package store

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

// openDirT opens a dirstore in a fresh temp dir with one chunk written.
func openDirT(t *testing.T) (*Dir, Addr, []byte) {
	t.Helper()
	d, err := OpenDir(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	a := Addr{Disk: 1, Stripe: 4, Chunk: 2}
	p := payload(a, 512)
	if err := d.WriteChunk(a, p); err != nil {
		t.Fatal(err)
	}
	return d, a, p
}

// TestDirCorruptionTaxonomy damages the on-disk chunk file in every way
// the codec distinguishes and asserts each reads back as ErrCorrupt
// with the right codec-level cause.
func TestDirCorruptionTaxonomy(t *testing.T) {
	damage := []struct {
		name  string
		mutil func(t *testing.T, path string)
		cause error
		stat  bool // Dir.Stat must also detect it (header-only check)
	}{
		{"payload-bit-flip", func(t *testing.T, path string) {
			flipByte(t, path, HeaderSize+100)
		}, ErrChecksum, false},
		{"header-bit-flip", func(t *testing.T, path string) {
			flipByte(t, path, 9) // inside the disk field, breaks the header CRC
		}, ErrChecksum, true},
		{"bad-magic", func(t *testing.T, path string) {
			flipByte(t, path, 0)
		}, ErrBadMagic, true},
		{"truncated-header", func(t *testing.T, path string) {
			truncateTo(t, path, HeaderSize-4)
		}, ErrTruncated, true},
		{"truncated-payload", func(t *testing.T, path string) {
			truncateTo(t, path, HeaderSize+17)
		}, ErrTruncated, true},
		{"trailing-garbage", func(t *testing.T, path string) {
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write([]byte("junk")); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}, ErrTruncated, true},
		{"misdirected-write", func(t *testing.T, path string) {
			// A chunk validly written for a different address, copied
			// over this one (e.g. a fat-fingered file move).
			other := Addr{Disk: 7, Stripe: 7, Chunk: 0}
			if err := os.WriteFile(path, EncodeChunk(other, payload(other, 512)), 0o644); err != nil {
				t.Fatal(err)
			}
		}, ErrAddrMismatch, true},
		{"version-skew", func(t *testing.T, path string) {
			rewriteVersion(t, path, 2)
		}, ErrVersion, true},
	}
	for _, c := range damage {
		t.Run(c.name, func(t *testing.T) {
			d, a, _ := openDirT(t)
			c.mutil(t, d.chunkPath(a))
			_, err := d.ReadChunk(a, make([]byte, 512))
			if !IsCorrupt(err) {
				t.Fatalf("ReadChunk = %v, want ErrCorrupt", err)
			}
			if !errors.Is(err, c.cause) {
				t.Errorf("ReadChunk cause = %v, want %v", err, c.cause)
			}
			if IsNotFound(err) {
				t.Errorf("corrupt chunk also matches ErrNotFound: %v", err)
			}
			if _, err := d.Stat(a); c.stat != IsCorrupt(err) {
				t.Errorf("Stat = %v, want corrupt=%v", err, c.stat)
			}
		})
	}
}

// TestDirIgnoresStrayFiles pins that non-chunk files in a disk
// directory are invisible to List rather than misparsed.
func TestDirIgnoresStrayFiles(t *testing.T) {
	d, a, _ := openDirT(t)
	dir := filepath.Dir(d.chunkPath(a))
	for _, name := range []string{"README", "s0001-c1.bak", "sX0000001-c001.chk", ".tmp-chunk-12345"} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := d.List(a.Disk)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0] != a {
		t.Fatalf("List = %v, want exactly [%v]", got, a)
	}
}

// TestDirKilledDisk pins the scan-side view of the e2e failure mode:
// removing a whole disk directory lists as empty, and each chunk reads
// as ErrNotFound.
func TestDirKilledDisk(t *testing.T) {
	d, a, _ := openDirT(t)
	if err := os.RemoveAll(filepath.Join(d.Root(), DiskDirName(a.Disk))); err != nil {
		t.Fatal(err)
	}
	got, err := d.List(a.Disk)
	if err != nil || len(got) != 0 {
		t.Fatalf("List(killed disk) = %v, %v; want empty, nil", got, err)
	}
	if _, err := d.ReadChunk(a, make([]byte, 512)); !IsNotFound(err) {
		t.Fatalf("ReadChunk(killed disk) = %v, want ErrNotFound", err)
	}
}

func TestParseChunkFileNameRoundTrip(t *testing.T) {
	for _, a := range []Addr{{0, 0, 0}, {3, 12, 5}, {1, 99999999, 999}, {2, 123456789, 1234}} {
		got, ok := parseChunkFileName(a.Disk, chunkFileName(a))
		if !ok || got != a {
			t.Errorf("round trip %v -> %q -> %v, ok=%v", a, chunkFileName(a), got, ok)
		}
	}
	for _, name := range []string{"", "s1-c1", "s1c1.chk", "s-1-c1.chk", "s+1-c01.chk", "s 1-c1.chk", "x00000001-c001.chk", "s00000001-x001.chk"} {
		if a, ok := parseChunkFileName(0, name); ok {
			t.Errorf("parseChunkFileName(%q) accepted as %v", name, a)
		}
	}
}

// TestDirSweepsOrphansOnOpen pins the crash-recovery half of the atomic
// write: temp files stranded by a killed writer are removed when the
// store is reopened, and the chunks themselves are untouched.
func TestDirSweepsOrphansOnOpen(t *testing.T) {
	d, a, want := openDirT(t)
	// Strand debris in an existing disk dir and in a fresh one.
	if err := d.CrashWrite(a, []byte("new bytes that must not land"), 20); err != nil {
		t.Fatal(err)
	}
	other := Addr{Disk: 5, Stripe: 0, Chunk: 0}
	if err := d.CrashWrite(other, payload(other, 64), 10); err != nil {
		t.Fatal(err)
	}
	if n := countOrphans(t, d.Root()); n != 2 {
		t.Fatalf("stranded %d orphans, want 2", n)
	}

	reopened, err := OpenDir(d.Root())
	if err != nil {
		t.Fatal(err)
	}
	if n := countOrphans(t, d.Root()); n != 0 {
		t.Fatalf("%d orphans survive reopen, want 0", n)
	}
	// The crashed overwrite is invisible: old bytes read back.
	dst := make([]byte, 1024)
	n, err := reopened.ReadChunk(a, dst)
	if err != nil || !equalBytes(dst[:n], want) {
		t.Fatalf("old chunk not intact after crashed overwrite: %d bytes, %v", n, err)
	}
	// The crashed first write is invisible: typed not-found.
	if _, err := reopened.ReadChunk(other, dst); !IsNotFound(err) {
		t.Fatalf("crashed first write reads as %v, want ErrNotFound", err)
	}
}

// TestDirTornWriteReadsCorrupt pins that a torn in-place overwrite is
// detected by the codec, never served as bytes.
func TestDirTornWriteReadsCorrupt(t *testing.T) {
	d, a, _ := openDirT(t)
	if err := d.TornWrite(a, payload(a, 512), HeaderSize+100); err != nil {
		t.Fatal(err)
	}
	if _, err := d.ReadChunk(a, make([]byte, 1024)); !IsCorrupt(err) {
		t.Fatalf("torn chunk reads as %v, want ErrCorrupt", err)
	}
	if _, err := d.Stat(a); !IsCorrupt(err) {
		t.Fatalf("torn chunk stats as %v, want ErrCorrupt", err)
	}
}

// TestDirNoSyncOption pins that the durability opt-out still writes
// correct chunks — only the fsyncs differ.
func TestDirNoSyncOption(t *testing.T) {
	d, err := OpenDirWith(t.TempDir(), DirOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	a := Addr{Disk: 0, Stripe: 1, Chunk: 2}
	want := payload(a, 256)
	if err := d.WriteChunk(a, want); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, 256)
	n, err := d.ReadChunk(a, dst)
	if err != nil || !equalBytes(dst[:n], want) {
		t.Fatalf("no-sync write read back wrong: %d bytes, %v", n, err)
	}
}

func countOrphans(t *testing.T, root string) int {
	t.Helper()
	n := 0
	disks, err := os.ReadDir(root)
	if err != nil {
		t.Fatal(err)
	}
	for _, disk := range disks {
		if !disk.IsDir() {
			continue
		}
		entries, err := os.ReadDir(filepath.Join(root, disk.Name()))
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if len(e.Name()) >= len(tmpChunkPrefix) && e.Name()[:len(tmpChunkPrefix)] == tmpChunkPrefix {
				n++
			}
		}
	}
	return n
}

func equalBytes(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func flipByte(t *testing.T, path string, off int) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off >= len(data) {
		t.Fatalf("offset %d beyond file size %d", off, len(data))
	}
	data[off] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func truncateTo(t *testing.T, path string, size int) {
	t.Helper()
	if err := os.Truncate(path, int64(size)); err != nil {
		t.Fatal(err)
	}
}

// rewriteVersion rewrites the header's version field and re-seals the
// header CRC, simulating a chunk written by a future codec version.
func rewriteVersion(t *testing.T, path string, version uint16) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[4] = byte(version)
	data[5] = byte(version >> 8)
	resealHeader(data)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDirReadChunkAllocs pins the copy-free read path: a 64 KiB chunk
// read lands straight in the caller's buffer, so the bytes allocated
// per read are the file handle's bookkeeping, not a payload copy.
func TestDirReadChunkAllocs(t *testing.T) {
	d, err := OpenDirWith(t.TempDir(), DirOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	a := Addr{Disk: 3, Stripe: 9, Chunk: 1}
	p := payload(a, 64<<10)
	if err := d.WriteChunk(a, p); err != nil {
		t.Fatal(err)
	}
	dst := make([]byte, len(p))
	read := func() {
		if n, err := d.ReadChunk(a, dst); err != nil || n != len(p) {
			t.Fatalf("ReadChunk = %d, %v", n, err)
		}
	}
	const runs = 200
	allocs := testing.AllocsPerRun(runs, read)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		read()
	}
	runtime.ReadMemStats(&after)
	perRead := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("ReadChunk(64 KiB): %.0f allocs, %.0f bytes per read", allocs, perRead)
	if perRead >= 1024 {
		t.Fatalf("ReadChunk allocates %.0f bytes per 64 KiB read, want < 1 KiB", perRead)
	}
	if !bytes.Equal(dst, p) {
		t.Fatal("ReadChunk returned wrong bytes")
	}
}

// TestDirReadChunkMatchesDecodeChunk pins that the streaming read path
// keeps DecodeChunk's contract: for each damaged chunk file, ReadChunk
// fails with the same codec error DecodeChunk reports on the file's
// bytes, or returns the same payload.
func TestDirReadChunkMatchesDecodeChunk(t *testing.T) {
	d, err := OpenDirWith(t.TempDir(), DirOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	a := Addr{Disk: 2, Stripe: 7, Chunk: 1}
	valid := EncodeChunk(a, payload(a, 512))
	mutate := func(f func(b []byte) []byte) []byte { return f(append([]byte(nil), valid...)) }
	cases := []struct {
		name   string
		data   []byte
		dstLen int
	}{
		{"valid", valid, 512},
		{"valid-large-dst", valid, 4096},
		{"empty", nil, 512},
		{"short-header", valid[:HeaderSize-5], 512},
		{"header-only", valid[:HeaderSize], 512},
		{"bad-magic", mutate(func(b []byte) []byte { b[1] ^= 0xFF; return b }), 512},
		{"header-crc", mutate(func(b []byte) []byte { b[13] ^= 0x01; return b }), 512},
		{"version-skew", mutate(func(b []byte) []byte { b[4] = 9; resealHeader(b); return b }), 512},
		{"short-payload", valid[:len(valid)-3], 512},
		{"trailing-bytes", append(append([]byte(nil), valid...), "junk"...), 512},
		{"payload-crc", mutate(func(b []byte) []byte { b[HeaderSize+300] ^= 0x10; return b }), 512},
		{"address", EncodeChunk(Addr{Disk: 2, Stripe: 7, Chunk: 0}, payload(a, 512)), 512},
		{"short-dst", valid, 511},
		{"short-dst-corrupt", mutate(func(b []byte) []byte { b[HeaderSize] ^= 0x10; return b }), 100},
		{"short-dst-address", EncodeChunk(Addr{Disk: 9, Stripe: 7, Chunk: 1}, payload(a, 512)), 10},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if msg := readMatchesDecode(d, a, c.data, c.dstLen); msg != "" {
				t.Fatal(msg)
			}
		})
	}
}

// readMatchesDecode writes data as the chunk file of a, reads it back
// through d.ReadChunk into a dstLen-byte buffer, and compares with
// DecodeChunk on the same bytes. It returns "" when they agree: the
// same codec error (message included), or the same payload — or, for a
// valid chunk larger than dst, a buffer error that is neither corrupt
// nor not-found.
func readMatchesDecode(d *Dir, a Addr, data []byte, dstLen int) string {
	path := d.chunkPath(a)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err.Error()
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return err.Error()
	}
	dst := make([]byte, dstLen)
	n, err := d.ReadChunk(a, dst)
	_, want, derr := DecodeChunk(data, a)
	var cerr *CorruptError
	switch {
	case derr != nil:
		if !errors.As(err, &cerr) || cerr.Err.Error() != derr.Error() {
			return fmt.Sprintf("ReadChunk = %v, DecodeChunk = %v", err, derr)
		}
	case dstLen < len(want):
		if err == nil || IsCorrupt(err) || IsNotFound(err) {
			return fmt.Sprintf("ReadChunk of a %d-byte payload into %d bytes = %v, want a buffer error", len(want), dstLen, err)
		}
	case err != nil || !bytes.Equal(dst[:n], want):
		return fmt.Sprintf("ReadChunk = %d bytes, %v; DecodeChunk decoded %d bytes", n, err, len(want))
	}
	return ""
}
