package rebuild

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"fbf/internal/chunk"
	"fbf/internal/codes"
	"fbf/internal/core"
	"fbf/internal/grid"
	"fbf/internal/store"
	"fbf/internal/verify"
)

func testManifest(codeName string, p, stripes, chunkSize int) store.ArrayManifest {
	code := codes.MustNew(codeName, p)
	return store.ArrayManifest{
		Code: codeName, P: p,
		Disks: code.Disks(), Rows: code.Rows(),
		Stripes: stripes, ChunkSize: chunkSize,
	}
}

// initMem materializes a clean array into a fresh memstore.
func initMem(t *testing.T, m store.ArrayManifest, seed int64) *store.Mem {
	t.Helper()
	b := store.NewMem()
	if err := InitStore(b, m, seed); err != nil {
		t.Fatalf("InitStore: %v", err)
	}
	return b
}

// killDisk deletes every chunk of one disk — the memstore analogue of
// rm -rf on a disk directory.
func killDisk(t *testing.T, b store.Backend, disk int) {
	t.Helper()
	addrs, err := b.List(disk)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs {
		if err := b.Delete(a); err != nil {
			t.Fatal(err)
		}
	}
}

// checkAgainstGroundTruth recomputes every stripe from the init seed
// and byte-compares the whole store against it.
func checkAgainstGroundTruth(t *testing.T, b store.Backend, m store.ArrayManifest, seed int64) {
	t.Helper()
	code := codes.MustNew(m.Code, m.P)
	want := make([]chunk.Chunk, code.Layout().Cells())
	for i := range want {
		want[i] = chunk.New(m.ChunkSize)
	}
	got := chunk.New(m.ChunkSize)
	for s := 0; s < m.Stripes; s++ {
		code.MaterializeStripeInto(want, StripeSeed(seed, s))
		for idx := range want {
			cell := code.CoordOf(idx)
			a := AddrOf(s, cell)
			n, err := b.ReadChunk(a, got)
			if err != nil {
				t.Fatalf("read %v after rebuild: %v", a, err)
			}
			if n != m.ChunkSize || !got.Equal(want[idx]) {
				t.Fatalf("chunk %v does not match ground truth after rebuild", a)
			}
		}
	}
}

// TestServiceRebuildsKilledDisks is the storage-engine tentpole check:
// kill up to three whole disks of a materialized array and the service
// must restore every chunk byte-identically, oracle-verifying each.
func TestServiceRebuildsKilledDisks(t *testing.T) {
	for _, tc := range []struct {
		code  string
		p     int
		disks []int
	}{
		{"star", 5, []int{1}},
		{"star", 5, []int{0, 2, 4}},
		{"tip", 5, []int{1, 3, 4}},
		{"triplestar", 5, []int{0, 1}},
	} {
		t.Run(fmt.Sprintf("%s-p%d-kill%v", tc.code, tc.p, tc.disks), func(t *testing.T) {
			code := codes.MustNew(tc.code, tc.p)
			if !code.CanRecoverColumns(tc.disks...) {
				t.Fatalf("%v cannot recover columns %v; bad test setup", code, tc.disks)
			}
			const seed = 42
			m := testManifest(tc.code, tc.p, 4, 96)
			b := initMem(t, m, seed)
			for _, d := range tc.disks {
				killDisk(t, b, d)
			}

			var last Progress
			res, err := RunService(ServiceConfig{
				Backend: b, Manifest: m,
				Strategy: core.StrategyLooped,
				Progress: func(p Progress) { last = p },
			})
			if err != nil {
				t.Fatalf("RunService: %v", err)
			}
			if res.DataLoss || len(res.Lost) != 0 {
				t.Fatalf("unexpected data loss: %v", res.Lost)
			}
			wantChunks := len(tc.disks) * m.Rows * m.Stripes
			if res.ChunksRebuilt != wantChunks {
				t.Errorf("ChunksRebuilt = %d, want %d", res.ChunksRebuilt, wantChunks)
			}
			if res.ChunksVerified != wantChunks {
				t.Errorf("ChunksVerified = %d, want %d", res.ChunksVerified, wantChunks)
			}
			if res.Report.MissingChunks != wantChunks {
				t.Errorf("scan found %d missing chunks, want %d", res.Report.MissingChunks, wantChunks)
			}
			if len(res.Report.FailedDisks) != len(tc.disks) {
				t.Errorf("FailedDisks = %v, want %v", res.Report.FailedDisks, tc.disks)
			}
			if res.StripesRepaired != m.Stripes {
				t.Errorf("StripesRepaired = %d, want %d", res.StripesRepaired, m.Stripes)
			}
			if last.StripesDone != m.Stripes || last.Percent() != 100 {
				t.Errorf("final progress %+v, want %d stripes at 100%%", last, m.Stripes)
			}
			if res.DiskReads == 0 || res.VerifyReads == 0 {
				t.Errorf("reads not accounted: disk=%d verify=%d", res.DiskReads, res.VerifyReads)
			}
			checkAgainstGroundTruth(t, b, m, seed)
		})
	}
}

// TestServiceStrategiesAndPolicies sweeps strategy x policy over the
// same damage and expects identical recovered bytes from all of them —
// cache policy and chain choice must never change results, only cost.
func TestServiceStrategiesAndPolicies(t *testing.T) {
	const seed = 7
	m := testManifest("star", 5, 3, 64)
	for _, strategy := range []core.Strategy{core.StrategyTypical, core.StrategyLooped, core.StrategyGreedy} {
		for _, policy := range []string{"fbf", "lru", "fifo"} {
			t.Run(fmt.Sprintf("%s-%s", strategy, policy), func(t *testing.T) {
				b := initMem(t, m, seed)
				killDisk(t, b, 2)
				killDisk(t, b, 3)
				res, err := RunService(ServiceConfig{
					Backend: b, Manifest: m,
					Policy: policy, Strategy: strategy, CacheChunks: 8,
				})
				if err != nil {
					t.Fatalf("RunService: %v", err)
				}
				if res.DataLoss {
					t.Fatalf("data loss: %v", res.Lost)
				}
				if res.CacheHits+res.CacheMisses == 0 {
					t.Error("cache stats not collected")
				}
				checkAgainstGroundTruth(t, b, m, seed)
			})
		}
	}
}

// recordingBackend counts mutations, so read-only modes can prove they
// never write.
type recordingBackend struct {
	store.Backend
	writes, deletes int
}

func (r *recordingBackend) WriteChunk(a store.Addr, data []byte) error {
	r.writes++
	return r.Backend.WriteChunk(a, data)
}

func (r *recordingBackend) Delete(a store.Addr) error {
	r.deletes++
	return r.Backend.Delete(a)
}

// TestServiceCheckOnlyAndDryRun pins the read-only contract: check-only
// stops after the scan, dry-run additionally plans, and neither may
// touch the backend.
func TestServiceCheckOnlyAndDryRun(t *testing.T) {
	const seed = 9
	m := testManifest("star", 5, 3, 64)
	base := initMem(t, m, seed)
	killDisk(t, base, 1)
	missing := m.Rows * m.Stripes

	t.Run("check-only", func(t *testing.T) {
		rec := &recordingBackend{Backend: base}
		res, err := RunService(ServiceConfig{Backend: rec, Manifest: m, CheckOnly: true})
		if err != nil {
			t.Fatal(err)
		}
		if rec.writes != 0 || rec.deletes != 0 {
			t.Fatalf("check-only mutated the store: %d writes, %d deletes", rec.writes, rec.deletes)
		}
		if res.Report.MissingChunks != missing || res.ChunksRebuilt != 0 || res.PlannedChunks != 0 {
			t.Fatalf("check-only result: %+v", res)
		}
	})
	t.Run("dry-run", func(t *testing.T) {
		rec := &recordingBackend{Backend: base}
		res, err := RunService(ServiceConfig{Backend: rec, Manifest: m, DryRun: true})
		if err != nil {
			t.Fatal(err)
		}
		if rec.writes != 0 || rec.deletes != 0 {
			t.Fatalf("dry-run mutated the store: %d writes, %d deletes", rec.writes, rec.deletes)
		}
		if res.PlannedChunks != missing {
			t.Fatalf("PlannedChunks = %d, want %d", res.PlannedChunks, missing)
		}
		if res.PlannedReads == 0 || res.ChunksRebuilt != 0 || res.DiskReads != 0 {
			t.Fatalf("dry-run executed work: %+v", res)
		}
	})
}

// TestServiceEscalation corrupts a surviving chunk the scheme will
// fetch, with scrub off so the cheap header scan misses payload rot.
// The mid-chain read failure must escalate the cell, regenerate the
// scheme, and still finish a byte-perfect rebuild — the simulator's
// URE ladder running on real bytes.
func TestServiceEscalation(t *testing.T) {
	const seed = 5
	m := testManifest("star", 5, 2, 64)
	dir := t.TempDir()
	b, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := InitStore(b, m, seed); err != nil {
		t.Fatal(err)
	}
	code := codes.MustNew("star", 5)

	// Lose three cells of disk 0 in stripe 0, and predict which chunk
	// the scheme fetches first so we can rot exactly that one.
	e := core.PartialStripeError{Stripe: 0, Disk: 0, Row: 0, Size: 3}
	lost := e.LostCells()
	scheme, _, err := core.RegenerateScheme(code, e, lost, nil, core.StrategyLooped)
	if err != nil {
		t.Fatal(err)
	}
	victim := scheme.Selected[0].Fetch[0]
	for _, c := range lost {
		if err := b.Delete(AddrOf(0, c)); err != nil {
			t.Fatal(err)
		}
	}
	rotPayloadByte(t, dir, AddrOf(0, victim))

	res, err := RunService(ServiceConfig{
		Backend: b, Manifest: m, Strategy: core.StrategyLooped,
	})
	if err != nil {
		t.Fatalf("RunService: %v", err)
	}
	if res.Escalations == 0 || res.Regenerations == 0 {
		t.Fatalf("escalation ladder not exercised: %+v", res)
	}
	if res.DataLoss {
		t.Fatalf("data loss after escalation: %v", res.Lost)
	}
	// The rotted survivor must have been rebuilt too.
	if res.ChunksRebuilt != len(lost)+1 {
		t.Errorf("ChunksRebuilt = %d, want %d", res.ChunksRebuilt, len(lost)+1)
	}
	checkAgainstGroundTruth(t, b, m, seed)
}

// TestServiceEscalatesOracleOnlySource rots a survivor the GF(2)
// oracle reads but no selected chain fetches, with scrub off so the scan
// misses it. The oracle's unreadable source must escalate like a chain
// fetch — join the lost set, regenerate, and end in a byte-exact array —
// rather than abort the rebuild.
func TestServiceEscalatesOracleOnlySource(t *testing.T) {
	const seed = 5
	m := testManifest("star", 5, 2, 64)
	dir := t.TempDir()
	b, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := InitStore(b, m, seed); err != nil {
		t.Fatal(err)
	}
	code := codes.MustNew("star", 5)

	e := core.PartialStripeError{Stripe: 0, Disk: 0, Row: 0, Size: 3}
	lost := e.LostCells()
	scheme, _, err := core.RegenerateScheme(code, e, lost, nil, core.StrategyLooped)
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := verify.NewOracle(code, lost)
	if err != nil {
		t.Fatal(err)
	}
	fetched := make(map[grid.Coord]bool)
	for _, sel := range scheme.Selected {
		for _, c := range sel.Fetch {
			fetched[c] = true
		}
	}
	var victim *grid.Coord
	for _, sel := range scheme.Selected {
		for _, src := range oracle.Sources(sel.Lost) {
			if !fetched[src] && victim == nil {
				src := src
				victim = &src
			}
		}
	}
	if victim == nil {
		t.Fatal("every oracle source is also a chain fetch; the pattern cannot exercise an oracle-only source")
	}
	for _, c := range lost {
		if err := b.Delete(AddrOf(0, c)); err != nil {
			t.Fatal(err)
		}
	}
	rotPayloadByte(t, dir, AddrOf(0, *victim))

	res, err := RunService(ServiceConfig{Backend: b, Manifest: m, Strategy: core.StrategyLooped})
	if err != nil {
		t.Fatalf("RunService with oracle-only source %v rotted: %v", *victim, err)
	}
	if res.Escalations < 1 {
		t.Fatalf("rotted oracle source %v did not escalate: %+v", *victim, res)
	}
	if res.DataLoss {
		t.Fatalf("data loss after escalation: %v", res.Lost)
	}
	if res.ChunksVerified != res.ChunksRebuilt {
		t.Errorf("%d chunks rebuilt, %d oracle-checked", res.ChunksRebuilt, res.ChunksVerified)
	}
	checkAgainstGroundTruth(t, b, m, seed)
}

// lyingBackend returns flipped bytes, without error, on the nth read
// of one address — a silent corruption in flight that only a second,
// independent backend read can expose.
type lyingBackend struct {
	store.Backend
	target store.Addr
	nth    int
	reads  int
}

func (l *lyingBackend) ReadChunk(a store.Addr, dst []byte) (int, error) {
	n, err := l.Backend.ReadChunk(a, dst)
	if err == nil && a == l.target {
		l.reads++
		if l.reads == l.nth {
			dst[0] ^= 0xFF
		}
	}
	return n, err
}

// TestServiceOracleCatchesLyingRead pins that the oracle reads its
// sources from the backend on its own: when one of the two reads of a
// survivor (the oracle's and the replay's) returns different valid-
// looking bytes, the chain result and the oracle disagree and the lost
// chunk that chain rebuilds is never written. Were the oracle fed from
// the replay's cache or buffers, the survivor would be read once and
// the lie would go unseen.
func TestServiceOracleCatchesLyingRead(t *testing.T) {
	const seed = 17
	m := testManifest("star", 5, 1, 64)
	b := initMem(t, m, seed)
	code := codes.MustNew("star", 5)
	e := core.PartialStripeError{Stripe: 0, Disk: 0, Row: 0, Size: 3}
	lost := e.LostCells()
	scheme, _, err := core.RegenerateScheme(code, e, lost, nil, core.StrategyLooped)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range lost {
		if err := b.Delete(AddrOf(0, c)); err != nil {
			t.Fatal(err)
		}
	}
	first := scheme.Selected[0]
	liar := &lyingBackend{Backend: b, target: AddrOf(0, first.Fetch[0]), nth: 2}
	_, err = RunService(ServiceConfig{Backend: liar, Manifest: m, Strategy: core.StrategyLooped})
	if err == nil || !strings.Contains(err.Error(), "disagree") {
		t.Fatalf("RunService with a lying read of %v = %v, want an oracle disagreement", first.Fetch[0], err)
	}
	if liar.reads < 2 {
		t.Fatalf("survivor %v read %d times; the oracle and the replay must each read it", first.Fetch[0], liar.reads)
	}
	if _, err := b.ReadChunk(AddrOf(0, first.Lost), make([]byte, m.ChunkSize)); !store.IsNotFound(err) {
		t.Fatalf("lost chunk %v was written despite the disagreement (read = %v)", first.Lost, err)
	}
}

// TestServiceOracleReadsPerStripe pins the oracle's I/O exactly: a
// whole-stripe loss on STAR p=7 (the horizontal-parity disk plus two
// data disks) is verified from one backend read per surviving chunk,
// the same 42 per stripe the replay reads with a cache that holds the
// stripe.
func TestServiceOracleReadsPerStripe(t *testing.T) {
	const seed, stripes = 31, 3
	m := testManifest("star", 7, stripes, 64)
	b := initMem(t, m, seed)
	killed := []int{7, 1, 2}
	for _, d := range killed {
		killDisk(t, b, d)
	}
	res, err := RunService(ServiceConfig{Backend: b, Manifest: m, Strategy: core.StrategyLooped})
	if err != nil {
		t.Fatal(err)
	}
	survivors := uint64((m.Disks - len(killed)) * m.Rows)
	if survivors != 42 {
		t.Fatalf("STAR p=7 minus three disks has %d survivors per stripe, want 42", survivors)
	}
	if want := survivors * stripes; res.VerifyReads != want || res.DiskReads != want {
		t.Fatalf("VerifyReads = %d, DiskReads = %d, want both %d (42 per stripe)", res.VerifyReads, res.DiskReads, want)
	}
	if res.ChunksVerified != res.ChunksRebuilt || res.DataLoss {
		t.Fatalf("%d rebuilt, %d verified, data loss %v", res.ChunksRebuilt, res.ChunksVerified, res.DataLoss)
	}
	checkAgainstGroundTruth(t, b, m, seed)
}

// TestServiceScrubFindsPayloadRot pins the scan layering: the default
// header-only scan misses payload bit-rot, the scrub scan reads and
// CRC-checks every payload and reports it as corrupt damage.
func TestServiceScrubFindsPayloadRot(t *testing.T) {
	const seed = 3
	m := testManifest("star", 5, 2, 64)
	dir := t.TempDir()
	b, err := store.OpenDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := InitStore(b, m, seed); err != nil {
		t.Fatal(err)
	}
	rotted := store.Addr{Disk: 4, Stripe: 1, Chunk: 2}
	rotPayloadByte(t, dir, rotted)

	plain, err := ScanStore(b, m, false)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.Clean() {
		t.Fatalf("header-only scan flagged payload rot: %+v", plain)
	}
	scrub, err := ScanStore(b, m, true)
	if err != nil {
		t.Fatal(err)
	}
	if scrub.CorruptChunks != 1 || len(scrub.Stripes) != 1 || scrub.Stripes[0].Stripe != 1 {
		t.Fatalf("scrub scan: %+v", scrub)
	}

	// A scrub rebuild repairs the rot in place.
	res, err := RunService(ServiceConfig{Backend: b, Manifest: m, Scrub: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.ChunksRebuilt != 1 || res.DataLoss {
		t.Fatalf("scrub rebuild: %+v", res)
	}
	checkAgainstGroundTruth(t, b, m, seed)
}

// TestServiceBeyondTolerance kills one disk more than the code
// tolerates: the run must finish without error, reporting the
// unsolvable cells as data loss rather than fabricating bytes.
func TestServiceBeyondTolerance(t *testing.T) {
	const seed = 13
	m := testManifest("star", 5, 2, 64)
	b := initMem(t, m, seed)
	for d := 0; d < 4; d++ {
		killDisk(t, b, d)
	}
	res, err := RunService(ServiceConfig{Backend: b, Manifest: m})
	if err != nil {
		t.Fatalf("RunService: %v", err)
	}
	if !res.DataLoss || len(res.Lost) == 0 {
		t.Fatal("4-disk kill on a 3DFT code must report data loss")
	}
}

// TestServicePriorityVulnerable damages two stripes unevenly and
// expects the most-damaged stripe to be repaired first.
func TestServicePriorityVulnerable(t *testing.T) {
	const seed = 21
	m := testManifest("star", 5, 4, 64)
	b := initMem(t, m, seed)
	// Stripe 1: one lost chunk. Stripe 3: a whole column.
	if err := b.Delete(store.Addr{Disk: 0, Stripe: 1, Chunk: 0}); err != nil {
		t.Fatal(err)
	}
	for row := 0; row < m.Rows; row++ {
		if err := b.Delete(store.Addr{Disk: 2, Stripe: 3, Chunk: row}); err != nil {
			t.Fatal(err)
		}
	}
	var order []int
	_, err := RunService(ServiceConfig{
		Backend: b, Manifest: m,
		Priority: PriorityVulnerable,
		Progress: func(p Progress) { order = append(order, p.Stripe) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != 3 || order[1] != 1 {
		t.Fatalf("vulnerable-first repair order = %v, want [3 1]", order)
	}
	checkAgainstGroundTruth(t, b, m, seed)
}

// TestServiceCleanStoreIsNoOp pins that a healthy store is scanned and
// left alone.
func TestServiceCleanStoreIsNoOp(t *testing.T) {
	m := testManifest("star", 5, 2, 64)
	rec := &recordingBackend{Backend: initMem(t, m, 1)}
	rec.writes = 0 // reset after init
	res, err := RunService(ServiceConfig{Backend: rec, Manifest: m})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Report.Clean() || res.ChunksRebuilt != 0 || rec.writes != 0 {
		t.Fatalf("clean store was touched: %+v (writes %d)", res, rec.writes)
	}
}

// TestServiceConfigValidation walks the rejection table.
func TestServiceConfigValidation(t *testing.T) {
	m := testManifest("star", 5, 1, 32)
	good := func() ServiceConfig {
		return ServiceConfig{Backend: store.NewMem(), Manifest: m}
	}
	cases := []struct {
		name   string
		mutate func(*ServiceConfig)
	}{
		{"nil-backend", func(c *ServiceConfig) { c.Backend = nil }},
		{"bad-policy", func(c *ServiceConfig) { c.Policy = "no-such-policy" }},
		{"bad-priority", func(c *ServiceConfig) { c.Priority = "fastest" }},
		{"check-only-and-dry-run", func(c *ServiceConfig) { c.CheckOnly, c.DryRun = true, true }},
		{"bad-manifest", func(c *ServiceConfig) { c.Manifest.ChunkSize = 0 }},
		{"geometry-mismatch", func(c *ServiceConfig) { c.Manifest.Disks = 99 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := good()
			tc.mutate(&cfg)
			if _, err := RunService(cfg); err == nil {
				t.Error("invalid config accepted")
			}
		})
	}
	// And the good config itself must pass.
	if _, err := RunService(good()); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestInitStoreGeometryMismatch rejects a manifest whose dimensions
// disagree with its code.
func TestInitStoreGeometryMismatch(t *testing.T) {
	m := testManifest("star", 5, 1, 32)
	m.Rows = 2
	if err := InitStore(store.NewMem(), m, 1); err == nil {
		t.Fatal("InitStore accepted a geometry-mismatched manifest")
	}
}

// TestScanStoreReportsExtraChunks pins that out-of-geometry chunks are
// reported, never deleted.
func TestScanStoreReportsExtraChunks(t *testing.T) {
	m := testManifest("star", 5, 2, 64)
	b := initMem(t, m, 1)
	stray := store.Addr{Disk: 0, Stripe: 99, Chunk: 0}
	if err := b.WriteChunk(stray, make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	rep, err := ScanStore(b, m, false)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("stray chunk counted as damage: %+v", rep)
	}
	if len(rep.ExtraChunks) != 1 || rep.ExtraChunks[0] != stray {
		t.Fatalf("ExtraChunks = %v, want [%v]", rep.ExtraChunks, stray)
	}
	if _, err := b.Stat(stray); err != nil {
		t.Fatalf("scan deleted the stray chunk: %v", err)
	}
}

// rotPayloadByte flips one payload byte of a dirstore chunk file in
// place, leaving the header intact — silent media bit-rot.
func rotPayloadByte(t *testing.T, dir string, a store.Addr) {
	t.Helper()
	path := filepath.Join(dir, store.ChunkPath(a))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[store.HeaderSize+7] ^= 0x20
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestServiceGridCoordOrder guards the Addr<->Coord mapping the whole
// engine rests on: column is disk, row is chunk slot.
func TestServiceGridCoordOrder(t *testing.T) {
	a := AddrOf(7, grid.Coord{Row: 2, Col: 5})
	want := store.Addr{Disk: 5, Stripe: 7, Chunk: 2}
	if a != want {
		t.Fatalf("AddrOf = %v, want %v", a, want)
	}
}
