package main

import (
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"fbf/internal/chunk"
	"fbf/internal/codes"
	"fbf/internal/core"
	"fbf/internal/grid"
	"fbf/internal/obs"
	"fbf/internal/rebuild"
	"fbf/internal/store"
	"fbf/internal/trace"
)

// engineSpec describes one real-bytes workload: the array, its damage
// and the rebuild settings RunService gets.
type engineSpec struct {
	code        string
	p           int
	chunkSize   int
	stripes     int
	cacheChunks int
	scrub       bool
	journal     bool

	// killDisks removes three whole disks (disk3); otherwise error
	// groups from trace.Generate, at most one per stripe, damage the
	// array (lse-scrub): groupsPerSize groups of every size 1..p-1, so
	// every seed damages the same size mix and only placement varies.
	killDisks     bool
	groupsPerSize int
}

var (
	disk3Spec = engineSpec{code: "star", p: 7, chunkSize: 64 << 10, stripes: 24, cacheChunks: 64, journal: true, killDisks: true}
	lseSpec   = engineSpec{code: "tip", p: 13, chunkSize: 32 << 10, stripes: 64, cacheChunks: 16, scrub: true, groupsPerSize: 4}
)

// setupRounds is how many times set-up builds and damages the array;
// setup_s is the median.
const setupRounds = 3

// damage is one seeded damage pattern, re-applied before every
// repetition so every repetition repairs the same chunks.
type damage struct {
	killed  []int
	deleted []store.Addr
	rotted  []store.Addr
	rotAt   []int // payload offset flipped in each rotted chunk

	lost   []store.Addr              // every damaged chunk, sorted
	groups []core.PartialStripeError // scheme-generation inputs (Table IV style)
}

func newDamage(spec engineSpec, code *codes.Code, seed int64) (*damage, error) {
	d := &damage{}
	rng := rand.New(rand.NewSource(seed))
	if spec.killDisks {
		sets := killSets(code.P())
		d.killed = sets[rng.Intn(len(sets))]
		for s := 0; s < spec.stripes; s++ {
			for _, k := range d.killed {
				d.groups = append(d.groups, core.PartialStripeError{Stripe: s, Disk: k, Row: 0, Size: code.Rows()})
				for r := 0; r < code.Rows(); r++ {
					d.lost = append(d.lost, store.Addr{Disk: k, Stripe: s, Chunk: r})
				}
			}
		}
	} else {
		groups, err := stratifiedGroups(code, spec, seed)
		if err != nil {
			return nil, err
		}
		d.groups = groups
		// Every other group of each size is rotted, the rest deleted, so
		// every seed repairs the same mix.
		seen := make(map[int]int)
		for _, g := range groups {
			rot := seen[g.Size]%2 == 0
			seen[g.Size]++
			for _, cell := range g.LostCells() {
				a := rebuild.AddrOf(g.Stripe, cell)
				d.lost = append(d.lost, a)
				if rot {
					d.rotted = append(d.rotted, a)
					d.rotAt = append(d.rotAt, rng.Intn(spec.chunkSize))
				} else {
					d.deleted = append(d.deleted, a)
				}
			}
		}
	}
	sort.Slice(d.lost, func(i, j int) bool { return d.lost[i].Less(d.lost[j]) })
	return d, nil
}

// killSets lists the whole-disk losses disk3 draws from: the
// horizontal-parity disk p and two data disks i<j with i+j ≢ 0 (mod p).
// On STAR p=7 all 18 of these cost the same backend reads per rebuilt
// chunk, while the other triples range from 12.7 to 23.6; drawing from
// them lets the seed move the loss without changing how much work a run
// does.
func killSets(p int) [][]int {
	var sets [][]int
	for i := 0; i < p; i++ {
		for j := i + 1; j < p; j++ {
			if (i+j)%p != 0 {
				sets = append(sets, []int{i, j, p})
			}
		}
	}
	return sets
}

// stratifiedGroups draws error groups from successive seeded traces
// (uniform sizes 1..p-1, random disk and row) and keeps a group while
// its size still has quota and its stripe is undamaged, until every
// size has groupsPerSize groups.
func stratifiedGroups(code *codes.Code, spec engineSpec, seed int64) ([]core.PartialStripeError, error) {
	maxSize := min(code.MaxPartialSize(), code.Rows())
	quota := make([]int, maxSize+1)
	for k := 1; k <= maxSize; k++ {
		quota[k] = spec.groupsPerSize
	}
	need := maxSize * spec.groupsPerSize
	if need > spec.stripes {
		return nil, fmt.Errorf("%d error groups do not fit on %d stripes", need, spec.stripes)
	}
	used := make(map[int]bool, need)
	var out []core.PartialStripeError
	for round := int64(0); len(out) < need; round++ {
		if round == 1000 {
			return nil, fmt.Errorf("could not draw %d error groups", need)
		}
		groups, err := trace.Generate(code, trace.Config{Groups: spec.stripes, Stripes: spec.stripes, Seed: seed*1000 + round, Disk: -1, Dist: trace.SizeUniform})
		if err != nil {
			return nil, err
		}
		for _, g := range groups {
			if quota[g.Size] > 0 && !used[g.Stripe] {
				quota[g.Size]--
				used[g.Stripe] = true
				out = append(out, g)
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Stripe < out[j].Stripe })
	return out, nil
}

// apply damages the array under root: removed disk directories,
// deleted chunk files, and chunk files whose payload has one flipped
// byte under a still-valid header.
func (d *damage) apply(root string) error {
	for _, k := range d.killed {
		if err := os.RemoveAll(filepath.Join(root, store.DiskDirName(k))); err != nil {
			return err
		}
	}
	for _, a := range d.deleted {
		if err := os.Remove(filepath.Join(root, store.ChunkPath(a))); err != nil {
			return err
		}
	}
	for i, a := range d.rotted {
		path := filepath.Join(root, store.ChunkPath(a))
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		b[store.HeaderSize+d.rotAt[i]] ^= 0x5a
		if err := os.WriteFile(path, b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// present is how many chunk files the damaged array still holds.
func (d *damage) present(m store.ArrayManifest) int {
	return m.Chunks() - len(d.killed)*m.Rows*m.Stripes - len(d.deleted)
}

// serviceCounts are the deterministic counters of one RunService call;
// every repetition of a seed must reproduce them exactly.
type serviceCounts struct {
	DiskReads, VerifyReads, CacheHits, CacheMisses uint64
	StripesRepaired, ChunksRebuilt, ChunksVerified int
	ChunksDecoded, Escalations, Regenerations      int
	BytesWritten                                   int64
}

func countsOf(r *rebuild.ServiceResult) serviceCounts {
	return serviceCounts{
		DiskReads: r.DiskReads, VerifyReads: r.VerifyReads, CacheHits: r.CacheHits, CacheMisses: r.CacheMisses,
		StripesRepaired: r.StripesRepaired, ChunksRebuilt: r.ChunksRebuilt, ChunksVerified: r.ChunksVerified,
		ChunksDecoded: r.ChunksDecoded, Escalations: r.Escalations, Regenerations: r.Regenerations,
		BytesWritten: r.BytesWritten,
	}
}

// repResult is one measured RunService call.
type repResult struct {
	wall       time.Duration
	alloc      uint64          // TotalAlloc delta
	peakMB     float64         // peak RSS during the call
	marks      []time.Duration // Progress call times, since the epoch
	counts     serviceCounts
	ops        []opRecord // traced repetitions only
	scan       time.Duration
	order      []int // stripes in repair order
	start, end time.Duration
}

// engine runs one real-bytes workload.
type engine struct {
	name  string
	spec  engineSpec
	seed  int64
	code  *codes.Code
	m     store.ArrayManifest
	dmg   *damage
	root  string // array directory
	jpath string // journal path ("" when unjournaled)
	dir   *store.Dir
	epoch time.Time

	// tamper, when set, runs after each repair and before its check —
	// the hook the benchmark's own test uses to prove the check fires.
	tamper func(b store.Backend, lost []store.Addr) error

	// truth holds the SHA-256 of every damaged chunk's ground-truth
	// payload, recomputed from the stripe seeds once at set-up.
	truth map[store.Addr][sha256.Size]byte

	setupTimes []float64
	first      *serviceCounts
	attempted  int
	failed     int
	problems   []string
}

func newEngine(name string, spec engineSpec, seed int64, workDir string, epoch time.Time) (*engine, error) {
	code, err := codes.New(spec.code, spec.p)
	if err != nil {
		return nil, err
	}
	dmg, err := newDamage(spec, code, seed)
	if err != nil {
		return nil, err
	}
	e := &engine{
		name: name, spec: spec, seed: seed, code: code, dmg: dmg, epoch: epoch,
		root: filepath.Join(workDir, "array"),
		m: store.ArrayManifest{
			Version: store.ManifestVersion, Code: spec.code, P: spec.p,
			Disks: code.Disks(), Rows: code.Rows(), Stripes: spec.stripes, ChunkSize: spec.chunkSize,
		},
	}
	if spec.journal {
		e.jpath = filepath.Join(workDir, "rebuild.journal")
	}
	return e, nil
}

// setup builds and damages the array setupRounds times, timing each
// round. The build writes without per-chunk fsync and ends with one
// sync, so no writeback of set-up data lands in a timed repetition.
func (e *engine) setup() error {
	for i := 0; i < setupRounds; i++ {
		start := time.Now()
		if err := os.RemoveAll(e.root); err != nil {
			return err
		}
		d, err := store.OpenDirWith(e.root, store.DirOptions{NoSync: true})
		if err != nil {
			return err
		}
		if err := store.WriteManifest(e.root, e.m); err != nil {
			return err
		}
		if err := rebuild.InitStore(d, e.m, e.seed); err != nil {
			return err
		}
		if err := e.dmg.apply(e.root); err != nil {
			return err
		}
		syscall.Sync()
		e.setupTimes = append(e.setupTimes, time.Since(start).Seconds())
	}
	dir, err := store.OpenDir(e.root)
	if err != nil {
		return err
	}
	e.dir = dir
	e.truth = make(map[store.Addr][sha256.Size]byte, len(e.dmg.lost))
	stripe := make([]chunk.Chunk, e.code.Layout().Cells())
	for i := range stripe {
		stripe[i] = chunk.New(e.m.ChunkSize)
	}
	have := -1
	for _, a := range e.dmg.lost {
		if a.Stripe != have {
			e.code.MaterializeStripeInto(stripe, rebuild.StripeSeed(e.seed, a.Stripe))
			have = a.Stripe
		}
		e.truth[a] = sha256.Sum256(stripe[e.code.CellIndex(grid.Coord{Row: a.Chunk, Col: a.Disk})])
	}
	return nil
}

// rep damages the array (except on the first call, which set-up already
// damaged), runs one RunService, and checks its output.
func (e *engine) rep(i int, traced bool) (*repResult, error) {
	if i > 0 {
		if err := e.dmg.apply(e.root); err != nil {
			return nil, err
		}
	}
	syscall.Sync()
	runtime.GC()

	r := &repResult{}
	var backend store.Backend = e.dir
	var tb *timedBackend
	if traced {
		start := time.Now()
		report, err := rebuild.ScanStore(e.dir, e.m, e.spec.scrub)
		r.scan = time.Since(start)
		if err != nil {
			return nil, err
		}
		if report.LostChunks() != len(e.dmg.lost) {
			return nil, fmt.Errorf("%s: scan found %d damaged chunks, damage made %d", e.name, report.LostChunks(), len(e.dmg.lost))
		}
		tb = newTimedBackend(e.dir, e.epoch, 2*e.m.Chunks())
		backend = tb
	}
	marks := make([]time.Duration, 0, e.spec.stripes+1)
	order := make([]int, 0, e.spec.stripes)
	cfg := rebuild.ServiceConfig{
		Backend:     backend,
		Manifest:    e.m,
		Policy:      "fbf",
		Strategy:    core.StrategyLooped,
		CacheChunks: e.spec.cacheChunks,
		Scrub:       e.spec.scrub,
		JournalPath: e.jpath,
		Progress: func(p rebuild.Progress) {
			marks = append(marks, time.Since(e.epoch))
			order = append(order, p.Stripe)
		},
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	resetPeakRSS()
	start := time.Now()
	res, err := rebuild.RunService(cfg)
	end := time.Now()
	r.peakMB = peakRSSMB()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, fmt.Errorf("%s: RunService: %w", e.name, err)
	}
	r.wall = end.Sub(start)
	r.start, r.end = start.Sub(e.epoch), end.Sub(e.epoch)
	r.alloc = m1.TotalAlloc - m0.TotalAlloc
	r.counts = countsOf(res)
	r.order, r.marks = order, marks
	if tb != nil {
		r.ops = tb.ops
	}
	if e.tamper != nil {
		if err := e.tamper(e.dir, e.dmg.lost); err != nil {
			return nil, err
		}
	}
	if err := e.check(res); err != nil {
		return nil, err
	}
	if e.first == nil {
		c := r.counts
		e.first = &c
	} else if *e.first != r.counts {
		e.problems = append(e.problems, fmt.Sprintf("repetition %d counters %+v differ from the first repetition's %+v", i, r.counts, *e.first))
	}
	return r, nil
}

// check re-reads every damaged chunk through the backend and compares
// it with the ground truth recomputed from the stripe seed (by SHA-256).
// A chunk fails if it is not byte-exact or if the run reported it lost.
// The run itself must also report no data loss, an oracle check for
// every rebuilt chunk, and leave an array a scrubbing scan finds clean.
func (e *engine) check(res *rebuild.ServiceResult) error {
	lost := make(map[store.Addr]bool, len(res.Lost))
	for _, a := range res.Lost {
		lost[a] = true
	}
	buf := chunk.New(e.m.ChunkSize)
	for _, a := range e.dmg.lost {
		e.attempted++
		n, err := e.dir.ReadChunk(a, buf)
		if err != nil || n != e.m.ChunkSize || sha256.Sum256(buf[:n]) != e.truth[a] || lost[a] {
			e.failed++
		}
	}
	if res.DataLoss {
		e.problems = append(e.problems, fmt.Sprintf("run reported data loss on %d chunks", len(res.Lost)))
	}
	if res.ChunksVerified != res.ChunksRebuilt {
		e.problems = append(e.problems, fmt.Sprintf("%d chunks rebuilt but %d oracle-checked", res.ChunksRebuilt, res.ChunksVerified))
	}
	report, err := rebuild.ScanStore(e.dir, e.m, true)
	if err != nil {
		return err
	}
	if !report.Clean() {
		e.problems = append(e.problems, fmt.Sprintf("follow-up scrub found %d missing and %d corrupt chunks", report.MissingChunks, report.CorruptChunks))
	}
	return nil
}

// engineRun is everything one engine workload measured.
type engineRun struct {
	e        *engine
	untraced []*repResult
	traced   []*repResult
}

// measure runs repetitions until seconds have passed (at least
// minReps of each kind). With trace, untraced and traced repetitions
// alternate so trace overhead is measured under the same conditions.
func (e *engine) measure(seconds float64, trace bool) (*engineRun, error) {
	const minReps = 3
	run := &engineRun{e: e}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; ; i++ {
		traced := trace && i%2 == 1
		r, err := e.rep(i, traced)
		if err != nil {
			return nil, err
		}
		if traced {
			run.traced = append(run.traced, r)
		} else {
			run.untraced = append(run.untraced, r)
		}
		enough := len(run.untraced) >= minReps && (!trace || len(run.traced) >= minReps)
		if enough && time.Now().After(deadline) {
			return run, nil
		}
	}
}

// endToEnd derives the end-to-end metrics from the untraced
// repetitions.
func (run *engineRun) endToEnd() []metricValue {
	e := run.e
	var mbs, allocPerChunk, walls, allocs, peaks, lat []float64
	for _, r := range run.untraced {
		peaks = append(peaks, r.peakMB)
		mbs = append(mbs, float64(r.counts.BytesWritten)/1e6/r.wall.Seconds())
		allocPerChunk = append(allocPerChunk, float64(r.alloc)/1024/float64(r.counts.ChunksRebuilt))
		walls = append(walls, r.wall.Seconds())
		allocs = append(allocs, float64(r.alloc)/1024)
		for k := 1; k < len(r.marks); k++ {
			lat = append(lat, float64(r.marks[k]-r.marks[k-1])/float64(time.Millisecond))
		}
	}
	c := e.first
	return []metricValue{
		{"rebuild_mb_s", median(mbs), "MB/s"},
		{"stripe_ms_p50", quantile(lat, 0.50), "ms"},
		{"stripe_ms_p99", quantile(lat, 0.99), "ms"},
		{"read_amp", float64(c.DiskReads+c.VerifyReads) / float64(c.ChunksRebuilt), "count"},
		{"alloc_kb_per_chunk", median(allocPerChunk), "KB"},
		{"max_rss_mb", median(peaks), "MB"},
		{"setup_s", median(e.setupTimes), "s"},
		{"failed_frac", float64(e.failed) / float64(e.attempted), "frac"},
		{"sim_runs_per_s", 1 / median(walls), "1/s"},
		{"sim_alloc_kb_per_run", median(allocs), "KB"},
	}
}

// samples reports the pooled stripe-latency sample count.
func (run *engineRun) samples() int {
	n := 0
	for _, r := range run.untraced {
		n += max(0, len(r.marks)-1)
	}
	return n
}

// spansOf turns one traced repetition into trace events: a span for the
// RunService call, one for its scan, one per stripe (between Progress
// calls) and one per store op, whose parent is its stripe (or the scan).
func (run *engineRun) spansOf(sp *spans, rep int, r *repResult) {
	e := run.e
	track := obs.Track{Group: "rebuild", ID: rep}
	sp.add("RunService", "rebuild", track, r.start, r.wall, obs.Arg{Key: "rep", Val: int64(rep)})
	nScan := e.m.Disks + e.dmg.present(e.m)
	if nScan > len(r.ops) {
		nScan = len(r.ops)
	}
	scanEnd := r.start
	if nScan > 0 {
		last := r.ops[nScan-1]
		scanEnd = last.start + last.dur
	}
	scanID := sp.add("scan", "rebuild", track, r.start, scanEnd-r.start)
	stripeID := make(map[int]int64, len(r.order))
	prev := scanEnd
	for k, s := range r.order {
		stripeID[s] = sp.add("stripe", "stripe", track, prev, r.marks[k]-prev, obs.Arg{Key: "stripe", Val: int64(s)})
		prev = r.marks[k]
	}
	for i, op := range r.ops {
		parent := scanID
		if i >= nScan {
			parent = stripeID[op.addr.Stripe]
		}
		sp.add("store."+opNames[op.kind], "store", track, op.start, op.dur,
			obs.Arg{Key: "parent", Val: parent}, obs.Arg{Key: "disk", Val: int64(op.addr.Disk)},
			obs.Arg{Key: "stripe", Val: int64(op.addr.Stripe)}, obs.Arg{Key: "chunk", Val: int64(op.addr.Chunk)})
	}
}
