package store

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Chunk-file header codec. Every chunk written by Dir and Obj starts
// with this fixed-size header so the chunk is self-describing: a read
// after a misdirected write, a torn write or silent media corruption
// fails validation instead of returning wrong bytes.
//
// Layout (little-endian, HeaderSize bytes):
//
//	[0,4)   magic "FBFC"
//	[4,6)   version (currently 1)
//	[6,8)   reserved, must be zero
//	[8,12)  disk
//	[12,16) stripe
//	[16,20) chunk row
//	[20,24) payload length in bytes
//	[24,28) payload CRC32-Castagnoli
//	[28,32) header CRC32-Castagnoli over bytes [0,28)
//
// The header CRC makes every other field trustworthy before it is used:
// in particular the payload length is never believed from a header that
// fails its own checksum, so a bit-flipped length cannot cause an
// over-read. DecodeHeader itself never reads past HeaderSize.
const (
	// HeaderSize is the fixed encoded size of a chunk-file header.
	HeaderSize = 32
	// HeaderVersion is the codec version this build reads and writes.
	HeaderVersion = 1
	// MaxPayload bounds the payload length a header may declare — a
	// final guard against pathological (but checksum-valid) headers
	// causing huge allocations.
	MaxPayload = 1 << 30
)

var headerMagic = [4]byte{'F', 'B', 'F', 'C'}

// Codec-level errors, wrapped into CorruptError by the backends. Each
// is a distinct typed condition so tests (and the fuzzer) can assert
// the taxonomy instead of matching message strings.
var (
	// ErrTruncated reports input shorter than the structure it should
	// hold (header or declared payload).
	ErrTruncated = errors.New("truncated")
	// ErrBadMagic reports a header that does not start with "FBFC".
	ErrBadMagic = errors.New("bad magic")
	// ErrVersion reports a well-formed header of an unsupported codec
	// version.
	ErrVersion = errors.New("unsupported header version")
	// ErrChecksum reports a header or payload failing its CRC, or a
	// reserved field that is not zero.
	ErrChecksum = errors.New("checksum mismatch")
	// ErrAddrMismatch reports a valid chunk stored under the wrong
	// address — a misdirected write or renamed file.
	ErrAddrMismatch = errors.New("address mismatch")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Header is the decoded chunk-file header.
type Header struct {
	Version    uint16
	Addr       Addr
	Length     int    // payload bytes
	PayloadCRC uint32 // CRC32-Castagnoli of the payload
}

// EncodeHeader appends the encoded header for a payload at addr to dst
// and returns the extended slice.
func EncodeHeader(dst []byte, addr Addr, payload []byte) []byte {
	var b [HeaderSize]byte
	copy(b[0:4], headerMagic[:])
	binary.LittleEndian.PutUint16(b[4:6], HeaderVersion)
	binary.LittleEndian.PutUint32(b[8:12], uint32(addr.Disk))
	binary.LittleEndian.PutUint32(b[12:16], uint32(addr.Stripe))
	binary.LittleEndian.PutUint32(b[16:20], uint32(addr.Chunk))
	binary.LittleEndian.PutUint32(b[20:24], uint32(len(payload)))
	binary.LittleEndian.PutUint32(b[24:28], crc32.Checksum(payload, castagnoli))
	binary.LittleEndian.PutUint32(b[28:32], crc32.Checksum(b[:28], castagnoli))
	return append(dst, b[:]...)
}

// DecodeHeader parses and validates a chunk-file header from the start
// of b. It reads at most HeaderSize bytes and returns a typed error
// (ErrTruncated, ErrBadMagic, ErrChecksum, ErrVersion) on any invalid
// input — never a panic.
func DecodeHeader(b []byte) (Header, error) {
	if len(b) < HeaderSize {
		return Header{}, fmt.Errorf("%w: header is %d bytes, want %d", ErrTruncated, len(b), HeaderSize)
	}
	b = b[:HeaderSize]
	if [4]byte(b[0:4]) != headerMagic {
		return Header{}, fmt.Errorf("%w: %q", ErrBadMagic, b[0:4])
	}
	if got, want := binary.LittleEndian.Uint32(b[28:32]), crc32.Checksum(b[:28], castagnoli); got != want {
		return Header{}, fmt.Errorf("%w: header CRC %08x, computed %08x", ErrChecksum, got, want)
	}
	// Past the CRC every field is authentic; version and reserved
	// checks now distinguish skew from corruption.
	h := Header{
		Version: binary.LittleEndian.Uint16(b[4:6]),
		Addr: Addr{
			Disk:   int(binary.LittleEndian.Uint32(b[8:12])),
			Stripe: int(binary.LittleEndian.Uint32(b[12:16])),
			Chunk:  int(binary.LittleEndian.Uint32(b[16:20])),
		},
		Length:     int(binary.LittleEndian.Uint32(b[20:24])),
		PayloadCRC: binary.LittleEndian.Uint32(b[24:28]),
	}
	if h.Version != HeaderVersion {
		return Header{}, fmt.Errorf("%w: %d (this build reads %d)", ErrVersion, h.Version, HeaderVersion)
	}
	if reserved := binary.LittleEndian.Uint16(b[6:8]); reserved != 0 {
		return Header{}, fmt.Errorf("%w: reserved field %#x is not zero", ErrChecksum, reserved)
	}
	if h.Length > MaxPayload {
		return Header{}, fmt.Errorf("%w: payload length %d exceeds limit %d", ErrChecksum, h.Length, MaxPayload)
	}
	return h, nil
}

// EncodeChunk encodes a complete chunk file (header + payload) for
// addr.
func EncodeChunk(addr Addr, payload []byte) []byte {
	out := make([]byte, 0, HeaderSize+len(payload))
	out = EncodeHeader(out, addr, payload)
	return append(out, payload...)
}

// DecodeChunk parses a complete chunk file, validating the header, the
// exact framing (no missing or trailing payload bytes) and the payload
// CRC, and checking the stored address against want. The returned
// payload aliases b. Like DecodeHeader it returns typed errors and
// never over-reads.
func DecodeChunk(b []byte, want Addr) (Header, []byte, error) {
	h, err := DecodeHeader(b)
	if err != nil {
		return Header{}, nil, err
	}
	if err := checkFraming(h, int64(len(b)-HeaderSize)); err != nil {
		return Header{}, nil, err
	}
	payload := b[HeaderSize : HeaderSize+h.Length]
	if err := checkPayload(h, payload, want); err != nil {
		return Header{}, nil, err
	}
	return h, payload, nil
}

// checkFraming compares the payload bytes present after the header
// with the length the header declares.
func checkFraming(h Header, got int64) error {
	if got != int64(h.Length) {
		return fmt.Errorf("%w: payload is %d bytes, header declares %d", ErrTruncated, got, h.Length)
	}
	return nil
}

// checkPayload validates a framed payload: its CRC against the header,
// then the stored address against want.
func checkPayload(h Header, payload []byte, want Addr) error {
	if got := crc32.Checksum(payload, castagnoli); got != h.PayloadCRC {
		return fmt.Errorf("%w: payload CRC %08x, computed %08x", ErrChecksum, h.PayloadCRC, got)
	}
	if h.Addr != want {
		return fmt.Errorf("%w: chunk stored as %v, addressed as %v", ErrAddrMismatch, h.Addr, want)
	}
	return nil
}

// ArrayManifest describes the array a store holds: which erasure code
// its chunks encode and the array dimensions. It is written by `fbfctl
// init` at the store root and read back by `status` and `rebuild`, so
// operator commands need no geometry flags.
type ArrayManifest struct {
	Version   int    `json:"version"`
	Code      string `json:"code"` // code family name ("star", "tip", ...)
	P         int    `json:"p"`
	Disks     int    `json:"disks"`
	Rows      int    `json:"rows"`
	Stripes   int    `json:"stripes"`
	ChunkSize int    `json:"chunk_size"`
}

// ManifestVersion is the array-manifest schema version this build
// reads and writes.
const ManifestVersion = 1

// ManifestName is the array manifest's file/object name at the store
// root.
const ManifestName = "manifest.json"

// Validate checks the manifest's invariants (schema version and
// positive dimensions). Code-name resolution is the caller's concern —
// the store is geometry-agnostic.
func (m *ArrayManifest) Validate() error {
	// Zero means "current": manifests built in code need not repeat the
	// version; anything decoded from disk carries an explicit one.
	if m.Version != 0 && m.Version != ManifestVersion {
		return fmt.Errorf("store: manifest %w: %d (this build reads %d)", ErrVersion, m.Version, ManifestVersion)
	}
	if m.Code == "" {
		return fmt.Errorf("store: manifest has no code name")
	}
	if m.P < 2 || m.Disks <= 0 || m.Rows <= 0 || m.Stripes <= 0 || m.ChunkSize <= 0 {
		return fmt.Errorf("store: manifest has non-positive dimensions (p=%d disks=%d rows=%d stripes=%d chunk=%d)",
			m.P, m.Disks, m.Rows, m.Stripes, m.ChunkSize)
	}
	return nil
}

// Chunks returns the total number of chunks a clean array holds.
func (m *ArrayManifest) Chunks() int { return m.Disks * m.Rows * m.Stripes }

// WriteManifest writes the array manifest to dir/manifest.json.
func WriteManifest(dir string, m ArrayManifest) error {
	m.Version = ManifestVersion
	if err := m.Validate(); err != nil {
		return err
	}
	data, err := json.MarshalIndent(&m, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, ManifestName), append(data, '\n'), 0o644)
}

// ReadManifest reads and validates dir/manifest.json.
func ReadManifest(dir string) (ArrayManifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return ArrayManifest{}, fmt.Errorf("store: reading array manifest: %w", err)
	}
	var m ArrayManifest
	if err := json.Unmarshal(data, &m); err != nil {
		return ArrayManifest{}, fmt.Errorf("store: parsing array manifest: %w", err)
	}
	if err := m.Validate(); err != nil {
		return ArrayManifest{}, err
	}
	return m, nil
}
