package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"fbf/internal/cache"
	"fbf/internal/chunk"
	"fbf/internal/codes"
	"fbf/internal/core"
	"fbf/internal/grid"
	"fbf/internal/rebuild"
	"fbf/internal/store"
	"fbf/internal/verify"
)

// metricValue is one named measurement with its unit.
type metricValue struct {
	name  string
	value float64
	unit  string
}

// budgetRow is one layer's share of the measured wall time.
type budgetRow struct {
	layer   string
	seconds float64
}

// Standalone-timing durations: long enough that timer resolution and
// one-off effects vanish, short enough to fit beside the run.
const (
	unitMin     = 20 * time.Millisecond
	unitMinEach = 2 * time.Millisecond
)

func patternKey(lost []grid.Coord) string {
	var b strings.Builder
	for _, c := range lost {
		fmt.Fprintf(&b, "%d,%d;", c.Row, c.Col)
	}
	return b.String()
}

// pattern is one distinct lost-cell set and the scheme the engine plans
// for it (RegenerateScheme is deterministic, so this is the same scheme
// RunService replays).
type pattern struct {
	stripe int // first stripe with this pattern
	lost   []grid.Coord
	scheme *core.Scheme
}

// planPatterns groups the damaged cells by stripe and plans each
// distinct pattern the way RunService does.
func planPatterns(code *codes.Code, lost []store.Addr, strat core.Strategy) (map[int]*pattern, []*pattern, error) {
	byStripe := map[int][]grid.Coord{}
	var stripes []int
	for _, a := range lost {
		if _, ok := byStripe[a.Stripe]; !ok {
			stripes = append(stripes, a.Stripe)
		}
		byStripe[a.Stripe] = append(byStripe[a.Stripe], grid.Coord{Row: a.Chunk, Col: a.Disk})
	}
	of := map[int]*pattern{}
	seen := map[string]*pattern{}
	var distinct []*pattern
	for _, s := range stripes {
		cells := byStripe[s]
		sort.Slice(cells, func(i, j int) bool { return cells[i].Less(cells[j]) })
		key := patternKey(cells)
		p, ok := seen[key]
		if !ok {
			e := core.PartialStripeError{Stripe: s, Disk: cells[0].Col, Row: cells[0].Row, Size: len(cells)}
			scheme, _, err := core.RegenerateScheme(code, e, cells, nil, strat)
			if err != nil {
				return nil, nil, err
			}
			p = &pattern{stripe: s, lost: cells, scheme: scheme}
			seen[key] = p
			distinct = append(distinct, p)
		}
		of[s] = p
	}
	return of, distinct, nil
}

// stripeTruth materializes one stripe's ground-truth chunks.
func stripeTruth(code *codes.Code, chunkSize int, seed int64, stripe int) []chunk.Chunk {
	out := make([]chunk.Chunk, code.Layout().Cells())
	for i := range out {
		out[i] = chunk.New(chunkSize)
	}
	code.MaterializeStripeInto(out, rebuild.StripeSeed(seed, stripe))
	return out
}

// coreCosts times the planning layers on the distinct patterns:
// RegenerateScheme (core.regen_us) and NewOracle (verify.oracle_new_us),
// in microseconds per call.
func coreCosts(code *codes.Code, distinct []*pattern, strat core.Strategy) (regenUS, oracleUS float64, err error) {
	var regen, oracle []float64
	for _, p := range distinct {
		e := core.PartialStripeError{Stripe: p.stripe, Disk: p.lost[0].Col, Row: p.lost[0].Row, Size: len(p.lost)}
		var ferr error
		regen = append(regen, us(unitCost(unitMinEach, 1, func() {
			_, _, ferr = core.RegenerateScheme(code, e, p.lost, nil, strat)
		})))
		oracle = append(oracle, us(unitCost(unitMinEach, 1, func() {
			if _, oerr := verify.NewOracle(code, p.lost); oerr != nil {
				ferr = oerr
			}
		})))
		if ferr != nil {
			return 0, 0, ferr
		}
	}
	return mean(regen), mean(oracle), nil
}

// checkCost times verify.Oracle.Check with in-memory source reads over
// every solvable lost cell of each distinct pattern, in microseconds
// per check.
func checkCost(code *codes.Code, distinct []*pattern, chunkSize int, seed int64) (float64, error) {
	var costs []float64
	for _, p := range distinct {
		truth := stripeTruth(code, chunkSize, seed, p.stripe)
		oracle, err := verify.NewOracle(code, p.lost)
		if err != nil {
			return 0, err
		}
		read := func(src grid.Coord, dst chunk.Chunk) error {
			copy(dst, truth[code.CellIndex(src)])
			return nil
		}
		var cells []grid.Coord
		for _, c := range p.lost {
			if oracle.Solvable(c) {
				cells = append(cells, c)
			}
		}
		if len(cells) == 0 {
			continue
		}
		var cerr error
		d := unitCost(unitMinEach, 1, func() {
			for _, c := range cells {
				if err := oracle.Check(c, truth[code.CellIndex(c)], read); err != nil {
					cerr = err
				}
			}
		})
		if cerr != nil {
			return 0, cerr
		}
		costs = append(costs, us(d)/float64(len(cells)))
	}
	return mean(costs), nil
}

// cacheReplay replays fetch streams through a fresh policy and returns
// the nanoseconds per request and the replay's hit count.
func cacheReplay(policy string, capacity int, streams []replayStream) (float64, uint64, error) {
	if _, err := cache.New(policy, capacity); err != nil {
		return 0, 0, err
	}
	requests := 0
	for _, s := range streams {
		requests += len(s.ids)
	}
	var hits uint64
	d := unitCost(unitMin, 1, func() {
		pol := cache.MustNew(policy, capacity)
		for _, s := range streams {
			if pa, ok := pol.(cache.PriorityAware); ok {
				pa.SetPriorities(s.priorities)
			}
			if fa, ok := pol.(cache.FutureAware); ok {
				fa.SetFuture(s.ids)
			}
			for _, id := range s.ids {
				pol.Request(id)
			}
		}
		hits = pol.Stats().Hits
	})
	return float64(d.Nanoseconds()) / float64(max(1, requests)), hits, nil
}

// replayStream is one scheme's fetch stream, qualified by its stripe.
type replayStream struct {
	ids        []cache.ChunkID
	priorities map[cache.ChunkID]int
}

func streamOf(scheme *core.Scheme, stripe int) replayStream {
	s := replayStream{priorities: make(map[cache.ChunkID]int, len(scheme.Priorities))}
	for _, c := range scheme.Requests() {
		s.ids = append(s.ids, cache.ChunkID{Stripe: stripe, Cell: c})
	}
	for c, pr := range scheme.Priorities {
		s.priorities[cache.ChunkID{Stripe: stripe, Cell: c}] = pr
	}
	return s
}

// xorRate times chunk.XORInto at the chunk size, in GB/s.
func xorRate(chunkSize int) float64 {
	a, b := chunk.New(chunkSize), chunk.New(chunkSize)
	for i := range b {
		b[i] = byte(i)
	}
	d := unitCost(unitMin, 1, func() { chunk.XORInto(a, b) })
	return float64(chunkSize) / d.Seconds() / 1e9
}

// codecCosts times store.EncodeChunk and store.DecodeChunk on one
// payload, in microseconds per call.
func codecCosts(a store.Addr, payload []byte) (encUS, decUS float64, err error) {
	enc := store.EncodeChunk(a, payload)
	encUS = us(unitCost(unitMin, 1, func() { store.EncodeChunk(a, payload) }))
	decUS = us(unitCost(unitMin, 1, func() {
		if _, _, derr := store.DecodeChunk(enc, a); derr != nil {
			err = derr
		}
	}))
	return encUS, decUS, err
}

// schemegenCost times core.GenerateScheme on each error group, in
// microseconds per group (Table IV's quantity).
func schemegenCost(code core.Geometry, groups []core.PartialStripeError, strat core.Strategy) (float64, error) {
	var err error
	d := unitCost(unitMin, 1, func() {
		for _, g := range groups {
			if _, gerr := core.GenerateScheme(code, g, strat); gerr != nil {
				err = gerr
			}
		}
	})
	return us(d) / float64(len(groups)), err
}

// journalReplay appends the record sequence a journaled rebuild of the
// damaged stripes writes — scan, then per stripe (in repair order) a
// plan, one commit per rebuilt chunk and a stripe-done record followed
// by a sync, then done — through the public Journal API at path. It
// returns the mean append and sync times in microseconds and the record
// and sync counts.
func journalReplay(path string, m store.ArrayManifest, code *codes.Code, seed int64, missing, corrupt int, order []int, of map[int]*pattern) (appendUS, syncUS float64, records, syncs int, err error) {
	j, _, err := rebuild.OpenJournal(path)
	if err != nil {
		return 0, 0, 0, 0, err
	}
	var appends, syncTimes []float64
	step := func(isSync bool, fn func() error) {
		if err != nil {
			return
		}
		start := time.Now()
		err = fn()
		if isSync {
			syncTimes = append(syncTimes, us(time.Since(start)))
		} else {
			appends = append(appends, us(time.Since(start)))
		}
	}
	step(false, func() error {
		return j.AppendScan(rebuild.JournalScan{Disks: m.Disks, Rows: m.Rows, Stripes: m.Stripes, ChunkSize: m.ChunkSize,
			Missing: missing, Corrupt: corrupt, DamagedStripes: len(order)})
	})
	step(true, j.Sync)
	for _, s := range order {
		p := of[s]
		truth := stripeTruth(code, m.ChunkSize, seed, s)
		step(false, func() error { return j.AppendPlan(s, p.lost) })
		for _, sel := range p.scheme.Selected {
			crc := rebuild.PayloadCRC(truth[code.CellIndex(sel.Lost)])
			step(false, func() error { return j.AppendCommit(rebuild.AddrOf(s, sel.Lost), crc) })
		}
		step(false, func() error { return j.AppendStripeDone(s) })
		step(true, j.Sync)
	}
	step(false, j.AppendDone)
	step(true, j.Sync)
	if rerr := j.Remove(); err == nil {
		err = rerr
	}
	return mean(appends), mean(syncTimes), len(appends), len(syncTimes), err
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// storeLayer summarizes the timing wrapper's records per op kind over
// repetitions: calls and bytes from the first (they repeat exactly),
// busy time as the median per repetition, latency quantiles pooled.
type storeLayer struct {
	calls  [numOpKinds]int
	busy   [numOpKinds]float64
	p50    [numOpKinds]float64
	p99    [numOpKinds]float64
	readMB float64
	errors int
}

func summarizeStore(reps [][]opRecord) storeLayer {
	var sl storeLayer
	var busy [numOpKinds][]float64
	var lat [numOpKinds][]float64
	for i, ops := range reps {
		var b [numOpKinds]float64
		for _, op := range ops {
			b[op.kind] += op.dur.Seconds()
			lat[op.kind] = append(lat[op.kind], us(op.dur))
			if i == 0 {
				sl.calls[op.kind]++
				if op.err {
					sl.errors++
				}
				if op.kind == opRead && !op.err {
					sl.readMB += float64(op.bytes) / 1e6
				}
			}
		}
		for k := range b {
			busy[k] = append(busy[k], b[k])
		}
	}
	for k := opKind(0); k < numOpKinds; k++ {
		sl.busy[k] = median(busy[k])
		sl.p50[k] = quantile(lat[k], 0.50)
		sl.p99[k] = quantile(lat[k], 0.99)
	}
	return sl
}

// engineLayers computes the per-layer metrics and the layer budget of
// an engine workload from its traced repetitions plus standalone calls
// into each layer on the workload's own inputs.
func (run *engineRun) layers(workDir string) ([]metricValue, []budgetRow, float64, error) {
	e := run.e
	strat := core.StrategyLooped
	of, distinct, err := planPatterns(e.code, e.dmg.lost, strat)
	if err != nil {
		return nil, nil, 0, err
	}
	order := run.traced[0].order

	regenUS, oracleUS, err := coreCosts(e.code, distinct, strat)
	if err != nil {
		return nil, nil, 0, err
	}
	checkUS, err := checkCost(e.code, distinct, e.m.ChunkSize, e.seed)
	if err != nil {
		return nil, nil, 0, err
	}
	var streams []replayStream
	xors, fetches := 0, 0
	for _, s := range order {
		scheme := of[s].scheme
		streams = append(streams, streamOf(scheme, s))
		for _, sel := range scheme.Selected {
			xors += max(0, len(sel.Fetch)-1)
			fetches += len(sel.Fetch)
		}
	}
	requestNS, replayHits, err := cacheReplay("fbf", e.spec.cacheChunks, streams)
	if err != nil {
		return nil, nil, 0, err
	}
	c := e.first
	if uint64(fetches) != c.DiskReads+c.CacheHits {
		e.problems = append(e.problems, fmt.Sprintf("planned schemes fetch %d chunks, the run made %d reads + %d cache hits", fetches, c.DiskReads, c.CacheHits))
	}
	if replayHits != c.CacheHits {
		e.problems = append(e.problems, fmt.Sprintf("cache replay hit %d times, the run %d", replayHits, c.CacheHits))
	}
	gbs := xorRate(e.m.ChunkSize)
	a := e.dmg.lost[0]
	truth := stripeTruth(e.code, e.m.ChunkSize, e.seed, a.Stripe)
	encUS, decUS, err := codecCosts(a, truth[e.code.CellIndex(grid.Coord{Row: a.Chunk, Col: a.Disk})])
	if err != nil {
		return nil, nil, 0, err
	}
	genUS, err := schemegenCost(e.code, e.dmg.groups, strat)
	if err != nil {
		return nil, nil, 0, err
	}
	appendUS, syncUS, records, syncs, err := journalReplay(filepath.Join(workDir, "replay.journal"), e.m, e.code, e.seed,
		len(e.dmg.lost)-len(e.dmg.rotted), len(e.dmg.rotted), order, of)
	if err != nil {
		return nil, nil, 0, err
	}
	if e.jpath == "" {
		records, syncs = 0, 0
	}

	simMS, err := simOnDamage(e.code, e.dmg.groups, e.spec.cacheChunks, e.m.ChunkSize, e.m.Stripes)
	if err != nil {
		return nil, nil, 0, err
	}

	var ops [][]opRecord
	var tracedWall, untracedWall, scans []float64
	for _, r := range run.traced {
		ops = append(ops, r.ops)
		tracedWall = append(tracedWall, r.wall.Seconds())
		scans = append(scans, r.scan.Seconds())
	}
	for _, r := range run.untraced {
		untracedWall = append(untracedWall, r.wall.Seconds())
	}
	wall := median(tracedWall)
	sl := summarizeStore(ops)

	budget := []budgetRow{
		{"store.read", sl.busy[opRead]},
		{"store.write", sl.busy[opWrite]},
		{"store.stat", sl.busy[opStat]},
		{"store.list", sl.busy[opList]},
		{"verify.check", float64(c.ChunksVerified) * checkUS / 1e6},
		{"verify.oracle_new", float64(len(distinct)) * oracleUS / 1e6},
		{"core.regen", float64(len(distinct)) * regenUS / 1e6},
		{"cache.request", float64(c.CacheHits+c.CacheMisses) * requestNS / 1e9},
		{"chunk.xor", float64(xors) * float64(e.m.ChunkSize) / (gbs * 1e9)},
		{"journal.append", float64(records) * appendUS / 1e6},
		{"journal.sync", float64(syncs) * syncUS / 1e6},
	}
	var attributed float64
	for _, b := range budget {
		attributed += b.seconds
	}
	ms := []metricValue{
		{"rebuild.scan_s", median(scans), "s"},
		{"rebuild.journal_records", float64(records), "count"},
		{"rebuild.journal_syncs", float64(syncs), "count"},
		{"rebuild.journal_append_us", appendUS, "us"},
		{"rebuild.journal_sync_us", syncUS, "us"},
		{"verify.oracle_new_us", oracleUS, "us"},
		{"verify.check_us", checkUS, "us"},
		{"verify.checks", float64(c.ChunksVerified), "count"},
		{"core.plans", float64(len(distinct)), "count"},
		{"core.regen_us", regenUS, "us"},
		{"core.schemegen_us", genUS, "us"},
		{"cache.request_ns", requestNS, "ns"},
		{"chunk.xor_gb_s", gbs, "GB/s"},
		{"chunk.xors", float64(xors), "count"},
		{"store.encode_us", encUS, "us"},
		{"store.decode_us", decUS, "us"},
		{"store.read.mb", sl.readMB, "MB"},
		{"store.errors", float64(sl.errors), "count"},
		{"budget.attributed_frac", attributed / wall, "frac"},
		{"trace.overhead_frac", wall/median(untracedWall) - 1, "frac"},
	}
	ms = append(ms, c.metrics()...)
	ms = append(ms, sl.metrics()...)
	ms = append(ms, simMS...)
	return ms, budget, wall, nil
}

// metrics are a RunService call's per-layer counters.
func (c *serviceCounts) metrics() []metricValue {
	chunks := float64(c.ChunksRebuilt)
	return []metricValue{
		{"rebuild.disk_reads_per_chunk", float64(c.DiskReads) / chunks, "count"},
		{"rebuild.verify_reads_per_chunk", float64(c.VerifyReads) / chunks, "count"},
		{"rebuild.cache_hit_ratio", float64(c.CacheHits) / float64(max(1, c.CacheHits+c.CacheMisses)), "ratio"},
		{"rebuild.decoded_chunks", float64(c.ChunksDecoded), "count"},
		{"rebuild.escalations", float64(c.Escalations), "count"},
	}
}

// simOnDamage runs the simulator on an engine workload's own error
// groups with the engine's settings — one worker, FBF, the looped
// strategy and the same cache — and gives the sim.* metrics: the wall
// time of one rebuild.Run call (median of repeated calls) and the
// simulated reads, hit ratio and reconstruction time, which every call
// must reproduce exactly. The simulator plans each error group on its
// own, so on disk3, where three groups share every stripe, its reads are
// the paper's partial-stripe model of the loss, not the engine's
// whole-stripe repair.
func simOnDamage(code *codes.Code, groups []core.PartialStripeError, cacheChunks, chunkSize, stripes int) ([]metricValue, error) {
	cfg := rebuild.Config{Code: code, Policy: "fbf", Strategy: core.StrategyLooped, Workers: 1,
		CacheChunks: cacheChunks, ChunkSize: chunkSize, Stripes: stripes}
	var walls []float64
	var first *rebuild.Result
	start := time.Now()
	for len(walls) < 5 || time.Since(start) < unitMin {
		t := time.Now()
		res, err := rebuild.Run(cfg, groups)
		if err != nil {
			return nil, err
		}
		walls = append(walls, float64(time.Since(t))/float64(time.Millisecond))
		if first == nil {
			first = res
		} else if keyOf(res) != keyOf(first) {
			return nil, fmt.Errorf("simulating the workload's damage twice gave different counters")
		}
	}
	return []metricValue{
		{"sim.run_ms_p50", quantile(walls, 0.50), "ms"},
		{"sim.disk_reads", float64(first.DiskReads), "count"},
		{"sim.hit_ratio", float64(first.Cache.Hits) / float64(max(1, first.Cache.Hits+first.Cache.Misses)), "ratio"},
		{"sim.recon_ms", first.Makespan.Milliseconds(), "ms"},
	}, nil
}

func (sl storeLayer) metrics() []metricValue {
	var out []metricValue
	for _, k := range []opKind{opRead, opWrite, opStat, opList} {
		n := "store." + opNames[k]
		out = append(out,
			metricValue{n + ".calls", float64(sl.calls[k]), "count"},
			metricValue{n + ".busy_s", sl.busy[k], "s"},
			metricValue{n + ".us_p50", sl.p50[k], "us"},
			metricValue{n + ".us_p99", sl.p99[k], "us"},
		)
	}
	return out
}
