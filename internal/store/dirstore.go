package store

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Layout naming shared by Dir and Obj: one "disk-NNN" namespace per
// disk, one "sSSSSSSSS-cCCC.chk" entry per chunk. The zero-padding
// keeps lexicographic order equal to numeric order, so a plain
// directory or key listing is already in List's contract order.

// DiskDirName returns the directory/prefix name for one disk.
func DiskDirName(disk int) string { return fmt.Sprintf("disk-%03d", disk) }

// chunkFileName returns the file/object name for one chunk within its
// disk directory.
func chunkFileName(a Addr) string { return fmt.Sprintf("s%08d-c%03d.chk", a.Stripe, a.Chunk) }

// ChunkPath returns the chunk's path relative to the store root —
// dirstore's on-disk layout and the object backend's key space share
// it. Exposed for tooling and tests that reach past the Backend
// interface (fault injection, corruption drills).
func ChunkPath(a Addr) string { return DiskDirName(a.Disk) + "/" + chunkFileName(a) }

// parseChunkFileName inverts chunkFileName, rejecting anything that is
// not exactly a chunk file (so stray files in a disk directory are
// ignored rather than misread).
func parseChunkFileName(disk int, name string) (Addr, bool) {
	rest, ok := strings.CutSuffix(name, ".chk")
	if !ok {
		return Addr{}, false
	}
	s, c, ok := strings.Cut(rest, "-")
	if !ok || len(s) < 2 || len(c) < 2 || s[0] != 's' || c[0] != 'c' {
		return Addr{}, false
	}
	stripe, ok := parseDigits(s[1:])
	if !ok {
		return Addr{}, false
	}
	chunkRow, ok := parseDigits(c[1:])
	if !ok {
		return Addr{}, false
	}
	return Addr{Disk: disk, Stripe: stripe, Chunk: chunkRow}, true
}

// parseDigits parses a non-negative decimal integer, rejecting signs,
// spaces and any other syntax strconv would tolerate.
func parseDigits(s string) (int, bool) {
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return 0, false
		}
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, false
	}
	return v, true
}

// Dir is the directory-backed chunk store: one directory per disk under
// a root, one self-describing chunk file per chunk (header + payload,
// see manifest.go). Writes go through a temp file and rename, so a
// reader sees either the old chunk or the new one, and by default the
// temp file is fsynced before the rename and the parent directory after
// it, so a committed chunk survives a crash or power cut.
//
// Dir methods are safe for concurrent use; concurrency control is the
// filesystem's.
type Dir struct {
	root   string
	noSync bool
}

// DirOptions tunes a directory store.
type DirOptions struct {
	// NoSync disables the fsync-before-rename and parent-directory
	// fsync on WriteChunk — the O_SYNC-style durability switch.
	// Benchmarks and throwaway test stores opt out; anything holding
	// real data should not: without the syncs a crash can lose a
	// renamed chunk or leave a torn one.
	NoSync bool
}

// OpenDir opens (creating if necessary) a directory store rooted at
// root, with durable writes. Orphaned temp files from writes
// interrupted by a crash are swept on open.
func OpenDir(root string) (*Dir, error) { return OpenDirWith(root, DirOptions{}) }

// OpenDirWith is OpenDir with explicit options.
func OpenDirWith(root string, opts DirOptions) (*Dir, error) {
	if root == "" {
		return nil, fmt.Errorf("store: empty dirstore root")
	}
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating root: %w", err)
	}
	d := &Dir{root: root, noSync: opts.NoSync}
	if err := d.sweepOrphans(); err != nil {
		return nil, err
	}
	return d, nil
}

// tmpChunkPrefix names in-flight chunk temp files. A crash between
// CreateTemp and the rename strands one; sweepOrphans collects them on
// the next open, so the debris of a killed writer never accumulates and
// never shadows a real chunk (the parser ignores non-.chk names
// anyway).
const tmpChunkPrefix = ".tmp-chunk-"

// sweepOrphans removes stranded temp chunk files from every disk
// directory — the on-disk state a writer killed mid-WriteChunk leaves
// behind.
func (d *Dir) sweepOrphans() error {
	disks, err := os.ReadDir(d.root)
	if err != nil {
		return fmt.Errorf("store: sweeping orphans: %w", err)
	}
	for _, disk := range disks {
		if !disk.IsDir() || !strings.HasPrefix(disk.Name(), "disk-") {
			continue
		}
		dir := filepath.Join(d.root, disk.Name())
		entries, err := os.ReadDir(dir)
		if err != nil {
			return fmt.Errorf("store: sweeping orphans: %w", err)
		}
		for _, e := range entries {
			if e.IsDir() || !strings.HasPrefix(e.Name(), tmpChunkPrefix) {
				continue
			}
			if err := os.Remove(filepath.Join(dir, e.Name())); err != nil {
				return fmt.Errorf("store: sweeping orphan %s: %w", e.Name(), err)
			}
		}
	}
	return nil
}

// Root returns the store's root directory.
func (d *Dir) Root() string { return d.root }

func (d *Dir) chunkPath(a Addr) string {
	return filepath.Join(d.root, DiskDirName(a.Disk), chunkFileName(a))
}

// ReadChunk implements Backend. It reads the header onto the stack and
// the payload straight into dst, with one open and no intermediate
// buffer, and validates in DecodeChunk's order with its errors: header,
// framing (the file's size against the declared length), payload CRC,
// address. dst may hold partial bytes when an error is returned.
func (d *Dir) ReadChunk(a Addr, dst []byte) (int, error) {
	if !a.Valid() {
		return 0, &NotFoundError{Addr: a}
	}
	f, err := os.Open(d.chunkPath(a))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, &NotFoundError{Addr: a}
		}
		return 0, fmt.Errorf("store: reading %v: %w", a, err)
	}
	defer f.Close()
	var hdr [HeaderSize]byte
	n, err := io.ReadFull(f, hdr[:])
	if err != nil && err != io.ErrUnexpectedEOF && err != io.EOF {
		return 0, fmt.Errorf("store: reading %v: %w", a, err)
	}
	h, err := DecodeHeader(hdr[:n])
	if err != nil {
		return 0, &CorruptError{Addr: a, Err: err}
	}
	fi, err := f.Stat()
	if err != nil {
		return 0, fmt.Errorf("store: reading %v: %w", a, err)
	}
	if err := checkFraming(h, fi.Size()-HeaderSize); err != nil {
		return 0, &CorruptError{Addr: a, Err: err}
	}
	// A too-short dst is the caller's error, reported only for a chunk
	// that validates; the payload is still read (into scratch) so a
	// corrupt chunk reads as corrupt whatever the buffer.
	payload := dst
	if len(dst) < h.Length {
		payload = make([]byte, h.Length)
	}
	payload = payload[:h.Length]
	if n, err := io.ReadFull(f, payload); err != nil {
		if err != io.ErrUnexpectedEOF && err != io.EOF {
			return 0, fmt.Errorf("store: reading %v: %w", a, err)
		}
		// The file shrank after the size check.
		return 0, &CorruptError{Addr: a, Err: checkFraming(h, int64(n))}
	}
	if err := checkPayload(h, payload, a); err != nil {
		return 0, &CorruptError{Addr: a, Err: err}
	}
	if len(dst) < h.Length {
		return 0, fmt.Errorf("store: %v: destination buffer %d bytes, chunk payload %d", a, len(dst), h.Length)
	}
	return h.Length, nil
}

// WriteChunk implements Backend. The durable sequence is write temp →
// fsync temp → rename → fsync parent directory: the first fsync
// guarantees the renamed file's bytes are on media (a rename alone can
// commit the name before the data, leaving a torn chunk after a crash),
// the second makes the rename itself survive. DirOptions.NoSync skips
// both fsyncs.
func (d *Dir) WriteChunk(a Addr, data []byte) error {
	if !a.Valid() {
		return fmt.Errorf("store: invalid address %v", a)
	}
	dir := filepath.Join(d.root, DiskDirName(a.Disk))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: creating disk directory: %w", err)
	}
	tmp, err := os.CreateTemp(dir, tmpChunkPrefix+"*")
	if err != nil {
		return fmt.Errorf("store: writing %v: %w", a, err)
	}
	encoded := EncodeChunk(a, data)
	if _, err := tmp.Write(encoded); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("store: writing %v: %w", a, err)
	}
	if !d.noSync {
		if err := tmp.Sync(); err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return fmt.Errorf("store: syncing %v: %w", a, err)
		}
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: writing %v: %w", a, err)
	}
	if err := os.Rename(tmp.Name(), d.chunkPath(a)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("store: writing %v: %w", a, err)
	}
	if !d.noSync {
		if err := syncDir(dir); err != nil {
			return fmt.Errorf("store: syncing %v: %w", a, err)
		}
	}
	return nil
}

// syncDir fsyncs a directory so a rename within it is durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// CrashWrite materializes the on-disk debris of a WriteChunk killed
// mid-flight: the first keep bytes of the encoded chunk land in an
// orphan temp file and the final path is never touched. Fault drills
// (internal/store/faultstore) use it to prove that a crashed write is
// invisible after reopen — the old chunk (or its absence) is what
// readers see, and sweepOrphans collects the temp file.
func (d *Dir) CrashWrite(a Addr, data []byte, keep int) error {
	if !a.Valid() {
		return fmt.Errorf("store: invalid address %v", a)
	}
	dir := filepath.Join(d.root, DiskDirName(a.Disk))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: creating disk directory: %w", err)
	}
	tmp, err := os.CreateTemp(dir, tmpChunkPrefix+"*")
	if err != nil {
		return err
	}
	encoded := EncodeChunk(a, data)
	keep = min(max(keep, 0), len(encoded))
	_, err = tmp.Write(encoded[:keep])
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	return err
}

// TornWrite materializes a torn chunk at the final path: the first keep
// bytes of the encoded chunk, in place, with no temp file and no
// atomicity — the state a non-atomic overwrite interrupted by a crash
// leaves behind. The codec guarantees such a chunk reads as ErrCorrupt,
// never as wrong bytes; fault drills depend on that.
func (d *Dir) TornWrite(a Addr, data []byte, keep int) error {
	if !a.Valid() {
		return fmt.Errorf("store: invalid address %v", a)
	}
	dir := filepath.Join(d.root, DiskDirName(a.Disk))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("store: creating disk directory: %w", err)
	}
	encoded := EncodeChunk(a, data)
	keep = min(max(keep, 0), len(encoded))
	return os.WriteFile(d.chunkPath(a), encoded[:keep], 0o644)
}

// Delete implements Backend.
func (d *Dir) Delete(a Addr) error {
	if !a.Valid() {
		return &NotFoundError{Addr: a}
	}
	err := os.Remove(d.chunkPath(a))
	if errors.Is(err, fs.ErrNotExist) {
		return &NotFoundError{Addr: a}
	}
	return err
}

// List implements Backend. A missing disk directory (the "disk died"
// state the rebuild service scans for) lists as empty.
func (d *Dir) List(disk int) ([]Addr, error) {
	entries, err := os.ReadDir(filepath.Join(d.root, DiskDirName(disk)))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("store: listing disk %d: %w", disk, err)
	}
	var out []Addr
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if a, ok := parseChunkFileName(disk, e.Name()); ok {
			out = append(out, a)
		}
	}
	// ReadDir sorts by name and the zero-padded names sort numerically,
	// but re-sorting keeps the contract independent of the encoding.
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out, nil
}

// Stat implements Backend: it reads and validates only the header, plus
// the file size against the header's declared payload length, so a
// truncated or grown chunk stats as corrupt without reading its
// payload. (Payload bit-rot needs a full read — the rebuild service's
// scrub pass.)
func (d *Dir) Stat(a Addr) (Info, error) {
	if !a.Valid() {
		return Info{}, &NotFoundError{Addr: a}
	}
	f, err := os.Open(d.chunkPath(a))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return Info{}, &NotFoundError{Addr: a}
		}
		return Info{}, fmt.Errorf("store: stat %v: %w", a, err)
	}
	defer f.Close()
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(f, hdr[:]); err != nil {
		return Info{}, &CorruptError{Addr: a, Err: fmt.Errorf("%w: header is shorter than %d bytes", ErrTruncated, HeaderSize)}
	}
	h, err := DecodeHeader(hdr[:])
	if err != nil {
		return Info{}, &CorruptError{Addr: a, Err: err}
	}
	if h.Addr != a {
		return Info{}, &CorruptError{Addr: a, Err: fmt.Errorf("%w: chunk stored as %v, addressed as %v", ErrAddrMismatch, h.Addr, a)}
	}
	fi, err := f.Stat()
	if err != nil {
		return Info{}, fmt.Errorf("store: stat %v: %w", a, err)
	}
	if fi.Size() != int64(HeaderSize+h.Length) {
		return Info{}, &CorruptError{Addr: a, Err: fmt.Errorf("%w: file is %d bytes, header declares %d", ErrTruncated, fi.Size(), HeaderSize+h.Length)}
	}
	return Info{Addr: a, Size: h.Length}, nil
}
