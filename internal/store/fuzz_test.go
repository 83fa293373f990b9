package store

import (
	"bytes"
	"errors"
	"testing"
)

// FuzzManifest fuzzes the chunk-file codec end to end: arbitrary bytes
// fed to DecodeHeader/DecodeChunk must either decode to a header whose
// canonical re-encoding reproduces the input bit-for-bit, or fail with
// one of the typed codec errors — never panic, never over-read, never
// return an out-of-bounds payload. Each input is also written as a
// chunk file and read back through Dir.ReadChunk, which must agree with
// DecodeChunk on the same bytes (same error, or same payload), into a
// full-size and a short buffer. The checked-in corpus
// (testdata/fuzz/FuzzManifest) pins a valid chunk plus the truncation,
// bit-flip and version-skew shapes as replayable regression cases.
func FuzzManifest(f *testing.F) {
	a := Addr{Disk: 2, Stripe: 7, Chunk: 1}
	valid := EncodeChunk(a, payload(a, 48))
	f.Add(valid)
	f.Add(valid[:HeaderSize])              // header only, zero... truncated payload
	f.Add(valid[:HeaderSize-5])            // truncated header
	f.Add(append([]byte("FBFX"), valid[4:]...)) // bad magic
	skew := append([]byte(nil), valid...)
	skew[4] = 3 // version 3
	resealHeader(skew)
	f.Add(skew)
	flip := append([]byte(nil), valid...)
	flip[HeaderSize+20] ^= 0x40
	f.Add(flip)
	f.Add([]byte{})
	f.Add(EncodeChunk(Addr{}, nil))

	typed := []error{ErrTruncated, ErrBadMagic, ErrVersion, ErrChecksum, ErrAddrMismatch}
	isTyped := func(err error) bool {
		for _, want := range typed {
			if errors.Is(err, want) {
				return true
			}
		}
		return false
	}

	d, err := OpenDirWith(f.TempDir(), DirOptions{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, dstLen := range []int{len(data), len(data) / 2} {
			if msg := readMatchesDecode(d, a, data, dstLen); msg != "" {
				t.Fatal(msg)
			}
		}
		h, err := DecodeHeader(data)
		if err != nil {
			if !isTyped(err) {
				t.Fatalf("DecodeHeader returned an untyped error: %v", err)
			}
			// A header the codec rejects must make the full decode fail
			// identically — no path may believe an invalid header.
			if _, _, cerr := DecodeChunk(data, Addr{}); cerr == nil {
				t.Fatal("DecodeChunk accepted input DecodeHeader rejected")
			}
			return
		}
		if h.Version != HeaderVersion {
			t.Fatalf("decoded unsupported version %d without error", h.Version)
		}
		if h.Length < 0 || h.Length > MaxPayload {
			t.Fatalf("decoded out-of-bounds payload length %d", h.Length)
		}
		_, p, err := DecodeChunk(data, h.Addr)
		if err != nil {
			if !isTyped(err) {
				t.Fatalf("DecodeChunk returned an untyped error: %v", err)
			}
			return
		}
		if len(p) != h.Length {
			t.Fatalf("payload length %d, header declares %d", len(p), h.Length)
		}
		// The codec is canonical: a successful decode re-encodes to the
		// exact input, so no two distinct byte strings decode equal.
		if !bytes.Equal(EncodeChunk(h.Addr, p), data) {
			t.Fatal("decode/encode round trip is not the identity")
		}
		// Misaddressed reads must be rejected.
		if _, _, err := DecodeChunk(data, Addr{Disk: h.Addr.Disk + 1}); !errors.Is(err, ErrAddrMismatch) {
			t.Fatalf("wrong-address decode = %v, want ErrAddrMismatch", err)
		}
	})
}
