package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"fbf/internal/codes"
	"fbf/internal/core"
	"fbf/internal/experiments"
	"fbf/internal/grid"
	"fbf/internal/obs"
	"fbf/internal/rebuild"
	"fbf/internal/store"
	"fbf/internal/trace"
)

// The sim-sweep slice of Figures 8–11: two (code, prime) panels, the
// paper's five policies, pressured cache sizes (where the policies
// diverge) and a generous one (no evictions).
var (
	simPanels = []struct {
		code string
		p    int
	}{{"tip", 13}, {"star", 7}}
	simPolicies = []string{"fifo", "lru", "lfu", "arc", "fbf"}
	simSizesMB  = []int{4, 8, 2048}
)

// simPressuredMB is the cache size the standalone cache replay uses.
const simPressuredMB = 8

// pointKey is the deterministic fingerprint of one simulated run; every
// pass of a seed must reproduce it exactly.
type pointKey struct {
	DiskReads, Hits, Misses, XORChunks, Requests uint64
	Makespan                                     int64
}

func keyOf(r *rebuild.Result) pointKey {
	return pointKey{DiskReads: r.DiskReads, Hits: r.Cache.Hits, Misses: r.Cache.Misses,
		XORChunks: r.XORChunks, Requests: r.TotalRequests, Makespan: int64(r.Makespan)}
}

// simPanel is one panel's generated trace.
type simPanel struct {
	code   *codes.Code
	errors []core.PartialStripeError
	lost   int // lost chunks in the trace
}

// simPass is one measured pass: one Sweep per panel.
type simPass struct {
	wall    time.Duration
	alloc   uint64
	peakMB  float64 // peak RSS during the pass
	runs    int
	lost    int             // lost chunks simulated, summed over runs
	gaps    []time.Duration // intervals between Progress calls
	chunkMS []float64       // each gap per lost chunk of its run, ms
	points  []experiments.Point
	sweeps  [][2]time.Duration // per Sweep call: start, end since the epoch
	marks   [][]time.Duration  // per Sweep call: Progress times
	xors    uint64
	reads   uint64
	hits    uint64
	reqs    uint64
	recon   float64 // summed simulated makespan, ms
	schemes int     // scheme generations: groups per run, summed
}

type simSweep struct {
	seed   int64
	epoch  time.Time
	panels []simPanel

	setupTimes []float64
	ref        []pointKey
	attempted  int
	failed     int
	problems   []string
	verified   uint64
}

func (s *simSweep) params(i int) experiments.Params {
	p := experiments.DefaultParams()
	p.Codes = []string{simPanels[i].code}
	p.Primes = []int{simPanels[i].p}
	p.Policies = simPolicies
	p.CacheSizesMB = simSizesMB
	p.ChunkSizeKB = 32
	p.Workers = 128
	p.Groups = 256
	p.Stripes = 1 << 14
	p.Seed = s.seed
	p.Strategy = core.StrategyLooped
	// One simulated run at a time: each interval between Progress calls
	// is then exactly one run's wall time, and runs do not contend with
	// each other (or with the garbage collector) for the cores.
	p.Parallelism = 1
	return p
}

// generate builds each panel's trace the way Sweep does.
func (s *simSweep) generate() error {
	s.panels = s.panels[:0]
	for i, pn := range simPanels {
		code, err := codes.New(pn.code, pn.p)
		if err != nil {
			return err
		}
		p := s.params(i)
		errs, err := trace.Generate(code, trace.Config{Groups: p.Groups, Stripes: p.Stripes, Seed: p.Seed, Disk: -1, Dist: p.Dist})
		if err != nil {
			return err
		}
		lost := 0
		for _, e := range errs {
			lost += e.Size
		}
		s.panels = append(s.panels, simPanel{code: code, errors: errs, lost: lost})
	}
	return nil
}

// setup generates the traces and warms up with one full pass, several
// times; the last warm-up pass gives the reference fingerprints.
func (s *simSweep) setup() error {
	for i := 0; i < setupRounds; i++ {
		start := time.Now()
		if err := s.generate(); err != nil {
			return err
		}
		pass, err := s.pass()
		if err != nil {
			return err
		}
		s.setupTimes = append(s.setupTimes, time.Since(start).Seconds())
		s.ref = s.ref[:0]
		for _, pt := range pass.points {
			s.ref = append(s.ref, keyOf(pt.Result))
		}
	}
	return nil
}

// pass runs one Sweep per panel, timing the whole pass and the gaps
// between Progress calls.
func (s *simSweep) pass() (*simPass, error) {
	runtime.GC()
	ps := &simPass{}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	resetPeakRSS()
	start := time.Now()
	for i := range simPanels {
		p := s.params(i)
		n := len(p.Policies) * len(p.CacheSizesMB)
		marks := make([]time.Duration, 0, n)
		var mu sync.Mutex
		p.Progress = func(done, total int) {
			now := time.Since(s.epoch)
			mu.Lock()
			marks = append(marks, now)
			mu.Unlock()
		}
		sweepStart := time.Since(s.epoch)
		points, err := experiments.Sweep(p)
		if err != nil {
			return nil, err
		}
		sweepEnd := time.Since(s.epoch)
		prev := sweepStart
		for _, m := range marks {
			ps.gaps = append(ps.gaps, m-prev)
			ps.chunkMS = append(ps.chunkMS, float64(m-prev)/float64(time.Millisecond)/float64(s.panels[i].lost))
			prev = m
		}
		ps.sweeps = append(ps.sweeps, [2]time.Duration{sweepStart, sweepEnd})
		ps.marks = append(ps.marks, marks)
		ps.points = append(ps.points, points...)
		ps.runs += len(points)
		ps.lost += len(points) * s.panels[i].lost
		ps.schemes += len(points) * len(s.panels[i].errors)
	}
	ps.wall = time.Since(start)
	ps.peakMB = peakRSSMB()
	runtime.ReadMemStats(&m1)
	ps.alloc = m1.TotalAlloc - m0.TotalAlloc
	for _, pt := range ps.points {
		r := pt.Result
		ps.xors += r.XORChunks
		ps.reads += r.DiskReads
		ps.hits += r.Cache.Hits
		ps.reqs += r.Cache.Hits + r.Cache.Misses
		ps.recon += r.Makespan.Milliseconds()
	}
	return ps, nil
}

// check compares a pass's fingerprints with the reference pass.
func (s *simSweep) check(ps *simPass) {
	s.attempted += ps.runs
	for i, pt := range ps.points {
		if i >= len(s.ref) || keyOf(pt.Result) != s.ref[i] {
			s.problems = append(s.problems, fmt.Sprintf("%s p=%d %s %dMB: counters differ between passes", pt.Code, pt.P, pt.Policy, pt.CacheMB))
		}
	}
}

// verifyPass reruns sweep points with VerifyData on: each lost chunk's
// bytes are rebuilt and XOR-checked. A run fails if it errors or if its
// counters differ from the unverified sweep's (data verification must
// not change the simulation). VerifyData materializes every damaged
// stripe (about 0.7 GB and 4 s for one TIP p=13 run), so the pass covers
// every policy on the STAR p=7 panel and FBF on the TIP p=13 panel, at
// the pressured simPressuredMB size, one run at a time.
func (s *simSweep) verifyPass() {
	defer debug.SetGCPercent(debug.SetGCPercent(20))
	for i, pn := range simPanels {
		for j, pol := range simPolicies {
			if pn.code == "tip" && pol != "fbf" {
				continue
			}
			idx := (i*len(simPolicies)+j)*len(simSizesMB) + sizeIndex(simPressuredMB)
			p := s.params(i)
			res, err := rebuild.Run(rebuild.Config{
				Code: s.panels[i].code, Policy: pol, Strategy: p.Strategy, Workers: p.Workers,
				CacheChunks: p.CacheChunks(simPressuredMB), ChunkSize: p.ChunkSizeKB * 1024, Stripes: p.Stripes,
				VerifyData: true,
			}, s.panels[i].errors)
			s.attempted++
			if err != nil || keyOf(res) != s.ref[idx] {
				s.failed++
				continue
			}
			s.verified += res.VerifiedChunks
		}
	}
}

func sizeIndex(mb int) int {
	for i, m := range simSizesMB {
		if m == mb {
			return i
		}
	}
	panic("perfbench: size not in the sweep")
}

// simRun is everything the sim-sweep workload measured.
type simRun struct {
	s        *simSweep
	untraced []*simPass
	traced   []*simPass
}

func (s *simSweep) measure(seconds float64, traced bool) (*simRun, error) {
	const minPasses = 3
	run := &simRun{s: s}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; ; i++ {
		t := traced && i%2 == 1
		ps, err := s.pass()
		if err != nil {
			return nil, err
		}
		s.check(ps)
		if t {
			run.traced = append(run.traced, ps)
		} else {
			run.untraced = append(run.untraced, ps)
		}
		enough := len(run.untraced) >= minPasses && (!traced || len(run.traced) >= minPasses)
		if enough && time.Now().After(deadline) {
			break
		}
	}
	s.verifyPass()
	return run, nil
}

func (run *simRun) endToEnd() []metricValue {
	s := run.s
	var mbs, allocChunk, runsPerS, allocRun, peaks, lat []float64
	chunkBytes := float64(s.params(0).ChunkSizeKB * 1024)
	for _, ps := range run.untraced {
		peaks = append(peaks, ps.peakMB)
		lat = append(lat, ps.chunkMS...)
		mbs = append(mbs, float64(ps.lost)*chunkBytes/1e6/ps.wall.Seconds())
		allocChunk = append(allocChunk, float64(ps.alloc)/1024/float64(ps.lost))
		runsPerS = append(runsPerS, float64(ps.runs)/ps.wall.Seconds())
		allocRun = append(allocRun, float64(ps.alloc)/1024/float64(ps.runs))
	}
	first := run.untraced[0]
	return []metricValue{
		{"rebuild_mb_s", median(mbs), "MB/s"},
		{"stripe_ms_p50", quantile(lat, 0.50), "ms"},
		{"stripe_ms_p99", quantile(lat, 0.99), "ms"},
		{"read_amp", float64(first.reads) / float64(first.lost), "count"},
		{"alloc_kb_per_chunk", median(allocChunk), "KB"},
		{"max_rss_mb", median(peaks), "MB"},
		{"setup_s", median(s.setupTimes), "s"},
		{"failed_frac", float64(s.failed) / float64(s.attempted), "frac"},
		{"sim_runs_per_s", median(runsPerS), "1/s"},
		{"sim_alloc_kb_per_run", median(allocRun), "KB"},
	}
}

func (run *simRun) samples() int {
	n := 0
	for _, ps := range run.untraced {
		n += len(ps.gaps)
	}
	return n
}

// spansOf records a traced pass: one span per Sweep call and one per
// simulated run, which (runs being serial) spans from the previous
// completion to its own.
func (run *simRun) spansOf(sp *spans, pass int, ps *simPass) {
	track := obs.Track{Group: "sim", ID: pass}
	for i, sw := range ps.sweeps {
		pn := simPanels[i]
		sp.add("Sweep", "sim", track, sw[0], sw[1]-sw[0], obs.Arg{Key: "p", Val: int64(pn.p)})
		prev := sw[0]
		for k, m := range ps.marks[i] {
			sp.add("run", "sim", track, prev, m-prev, obs.Arg{Key: "done", Val: int64(k + 1)})
			prev = m
		}
	}
}

// probeGroups is how many error groups of the first panel the store
// probe repairs for real, and probeReps how many times.
const (
	probeGroups = 8
	probeReps   = 3
)

// storeProbe gives sim-sweep's store.* and rebuild.* metrics. The
// simulator does no store I/O, so the probe repairs the sweep's own
// damage with the engine instead: the first probeGroups error groups of
// the first panel, each moved to its own stripe of a small array on an
// in-memory store, repaired by RunService through the timing wrapper
// with the sweep's per-worker cache at the pressured size. Each
// repetition must restore every lost chunk byte-exact and report the
// same counters. The journal metrics replay the probe's record sequence
// under workDir.
func (s *simSweep) storeProbe(workDir string) ([]metricValue, error) {
	pn := s.panels[0]
	p := s.params(0)
	m := store.ArrayManifest{Version: store.ManifestVersion, Code: simPanels[0].code, P: simPanels[0].p,
		Disks: pn.code.Disks(), Rows: pn.code.Rows(), Stripes: probeGroups, ChunkSize: p.ChunkSizeKB * 1024}
	var lost []store.Addr
	for i, g := range pn.errors[:probeGroups] {
		g.Stripe = i
		for _, c := range g.LostCells() {
			lost = append(lost, rebuild.AddrOf(i, c))
		}
	}
	var ops [][]opRecord
	var scans []float64
	var first *serviceCounts
	var order []int
	for rep := 0; rep < probeReps; rep++ {
		mem := store.NewMem()
		if err := rebuild.InitStore(mem, m, s.seed); err != nil {
			return nil, err
		}
		truth := make(map[store.Addr][]byte, len(lost))
		buf := make([]byte, m.ChunkSize)
		for _, a := range lost {
			n, err := mem.ReadChunk(a, buf)
			if err != nil {
				return nil, err
			}
			truth[a] = append([]byte(nil), buf[:n]...)
			if err := mem.Delete(a); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		if _, err := rebuild.ScanStore(mem, m, false); err != nil {
			return nil, err
		}
		scans = append(scans, time.Since(start).Seconds())
		tb := newTimedBackend(mem, s.epoch, 4*len(lost))
		order = order[:0]
		res, err := rebuild.RunService(rebuild.ServiceConfig{
			Backend: tb, Manifest: m, Policy: "fbf", Strategy: p.Strategy,
			CacheChunks: max(1, p.CacheChunks(simPressuredMB)/p.Workers),
			Progress:    func(pr rebuild.Progress) { order = append(order, pr.Stripe) },
		})
		if err != nil {
			return nil, fmt.Errorf("store probe: RunService: %w", err)
		}
		ops = append(ops, tb.ops)
		for _, a := range lost {
			n, err := mem.ReadChunk(a, buf)
			if err != nil || !bytes.Equal(buf[:n], truth[a]) {
				s.problems = append(s.problems, fmt.Sprintf("store probe: chunk %v not restored", a))
			}
		}
		if res.DataLoss || res.ChunksVerified != res.ChunksRebuilt {
			s.problems = append(s.problems, fmt.Sprintf("store probe: data loss %v, %d chunks rebuilt, %d oracle-checked", res.DataLoss, res.ChunksRebuilt, res.ChunksVerified))
		}
		c := countsOf(res)
		if first == nil {
			first = &c
		} else if c != *first {
			s.problems = append(s.problems, "store probe: counters differ between repetitions")
		}
	}
	of, _, err := planPatterns(pn.code, lost, p.Strategy)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return nil, err
	}
	appendUS, syncUS, _, _, err := journalReplay(filepath.Join(workDir, "probe.journal"), m, pn.code, s.seed, len(lost), 0, order, of)
	if err != nil {
		return nil, err
	}
	sl := summarizeStore(ops)
	ms := []metricValue{
		{"rebuild.scan_s", median(scans), "s"},
		{"rebuild.journal_records", 0, "count"},
		{"rebuild.journal_syncs", 0, "count"},
		{"rebuild.journal_append_us", appendUS, "us"},
		{"rebuild.journal_sync_us", syncUS, "us"},
		{"store.read.mb", sl.readMB, "MB"},
		{"store.errors", float64(sl.errors), "count"},
	}
	ms = append(ms, first.metrics()...)
	return append(ms, sl.metrics()...), nil
}

// layers computes the sim-sweep per-layer metrics: the simulator's own
// counters from the traced passes, plus standalone calls into the
// layers it drives, made on the generated traces.
func (run *simRun) layers(workDir string) ([]metricValue, []budgetRow, float64, error) {
	s := run.s
	strat := core.StrategyLooped
	p0 := s.params(0)
	chunkSize := p0.ChunkSizeKB * 1024

	var genTotal, genN float64
	var plans int
	var regen, oracle, checks []float64
	var streams []replayStream
	for _, pn := range s.panels {
		genUS, err := schemegenCost(pn.code, pn.errors, strat)
		if err != nil {
			return nil, nil, 0, err
		}
		genTotal += genUS * float64(len(pn.errors))
		genN += float64(len(pn.errors))
		var lost []store.Addr
		for _, e := range pn.errors {
			for _, c := range e.LostCells() {
				lost = append(lost, rebuild.AddrOf(e.Stripe, c))
			}
		}
		of, distinct, err := planPatterns(pn.code, lost, strat)
		if err != nil {
			return nil, nil, 0, err
		}
		plans += len(distinct)
		r, o, err := coreCosts(pn.code, distinct, strat)
		if err != nil {
			return nil, nil, 0, err
		}
		regen, oracle = append(regen, r), append(oracle, o)
		c, err := checkCost(pn.code, distinct[:min(len(distinct), 8)], chunkSize, s.seed)
		if err != nil {
			return nil, nil, 0, err
		}
		checks = append(checks, c)
		for _, e := range pn.errors {
			streams = append(streams, streamOf(of[e.Stripe].scheme, e.Stripe))
		}
	}
	perWorker := max(1, p0.CacheChunks(simPressuredMB)/p0.Workers)
	var reqNS []float64
	for _, pol := range simPolicies {
		ns, _, err := cacheReplay(pol, perWorker, streams)
		if err != nil {
			return nil, nil, 0, err
		}
		reqNS = append(reqNS, ns)
	}
	requestNS := mean(reqNS)
	genUS := genTotal / genN
	gbs := xorRate(chunkSize)
	pn := s.panels[0]
	e := pn.errors[0]
	truth := stripeTruth(pn.code, chunkSize, s.seed, e.Stripe)
	encUS, decUS, err := codecCosts(store.Addr{Disk: e.Disk, Stripe: e.Stripe, Chunk: e.Row}, truth[pn.code.CellIndex(grid.Coord{Row: e.Row, Col: e.Disk})])
	if err != nil {
		return nil, nil, 0, err
	}

	var tracedWall, untracedWall, gaps []float64
	for _, ps := range run.traced {
		tracedWall = append(tracedWall, ps.wall.Seconds())
		for _, g := range ps.gaps {
			gaps = append(gaps, float64(g)/float64(time.Millisecond))
		}
	}
	for _, ps := range run.untraced {
		untracedWall = append(untracedWall, ps.wall.Seconds())
	}
	wall := median(tracedWall)
	ref := run.traced[0]
	budget := []budgetRow{
		{"core.schemegen", float64(ref.schemes) * genUS / 1e6},
		{"cache.request", float64(ref.reqs) * requestNS / 1e9},
	}
	var attributed float64
	for _, b := range budget {
		attributed += b.seconds
	}

	probe, err := s.storeProbe(workDir)
	if err != nil {
		return nil, nil, 0, err
	}
	ms := []metricValue{
		{"sim.run_ms_p50", quantile(gaps, 0.50), "ms"},
		{"sim.disk_reads", float64(ref.reads), "count"},
		{"sim.hit_ratio", float64(ref.hits) / float64(ref.reqs), "ratio"},
		{"sim.recon_ms", ref.recon / float64(ref.runs), "ms"},
		{"core.plans", float64(plans), "count"},
		{"core.regen_us", mean(regen), "us"},
		{"core.schemegen_us", genUS, "us"},
		{"verify.oracle_new_us", mean(oracle), "us"},
		{"verify.check_us", mean(checks), "us"},
		{"verify.checks", float64(s.verified), "count"},
		{"cache.request_ns", requestNS, "ns"},
		{"chunk.xor_gb_s", gbs, "GB/s"},
		{"chunk.xors", float64(ref.xors), "count"},
		{"store.encode_us", encUS, "us"},
		{"store.decode_us", decUS, "us"},
		{"budget.attributed_frac", attributed / wall, "frac"},
		{"trace.overhead_frac", wall/median(untracedWall) - 1, "frac"},
	}
	return append(ms, probe...), budget, wall, nil
}
