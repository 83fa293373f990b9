// Command fbfsim regenerates the paper's evaluation artefacts on the
// simulated disk array: Figures 8–11 and Tables IV–V, plus the scheme
// ablation. With no artefact flag it runs the full evaluation.
//
// Usage:
//
//	fbfsim [-fig 8|9|10|11] [-table 4|5] [-ablation]
//	       [-serving] [-rate 100,200,400] [-slo-p99 MS] [-zipf-s S]
//	       [-write-frac F] [-hot-frac F] [-ops N]
//	       [-durability] [-ure-rates 0,0.001,0.01] [-transient-rate R]
//	       [-fault-seed N] [-second-failure-at MS] [-third-failure-at MS] [-trials N]
//	       [-codes star,triplestar,tip,hdd1] [-p 7,11,13]
//	       [-policies fifo,lru,lfu,arc,fbf] [-sizes 8,16,...,2048]
//	       [-groups N] [-workers N] [-stripes N] [-seed N]
//	       [-strategy typical|looped|greedy] [-dist uniform|fixed|geometric]
//	       [-csv] [-parallel N] [-progress]
//	       [-trace-out run.trace.json] [-trace-jsonl run.jsonl]
//	       [-metrics-out metrics.csv|metrics.json] [-metrics-interval MS]
//	       [-pprof-cpu cpu.prof] [-pprof-mem mem.prof]
//
// Sweeps fan their independent simulation runs out across cores
// (-parallel, default GOMAXPROCS); every run is an isolated
// deterministic simulation, so the output is identical at any
// parallelism level.
//
// An observability flag (-trace-out, -trace-jsonl, -metrics-out) runs a
// single instrumented rebuild instead of a sweep — the first configured
// (code, p, policy, size) point, or tip(p=13)/fbf/64MB by default — and
// writes the exports before a one-line summary. Traces are stamped in
// simulated time and reproduce byte for byte; load -trace-out in
// chrome://tracing or Perfetto, or feed -trace-jsonl to fbftrace.
package main

import (
	"fbf/internal/cli"
	"fbf/internal/core"
	"fbf/internal/experiments"
	"fbf/internal/obs"
	"fbf/internal/rebuild"
	"fbf/internal/sim"
	"fbf/internal/trace"
	"flag"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fbfsim: ")

	figFlag := flag.Int("fig", 0, "figure to regenerate (8, 9, 10 or 11)")
	tableFlag := flag.Int("table", 0, "table to regenerate (4 or 5)")
	ablation := flag.Bool("ablation", false, "run the chain-selection scheme ablation")
	online := flag.Bool("online", false, "run the online-recovery (foreground load) experiment")
	modes := flag.Bool("modes", false, "run the SOR-vs-DOR reconstruction-mode ablation")
	serving := flag.Bool("serving", false, "run the heavy-traffic serving experiment (foreground latency frontier per policy under rebuild)")
	ratesFlag := flag.String("rate", "100,200,400", "comma-separated client rates (ops/sec) for -serving")
	sloP99 := flag.Float64("slo-p99", 0, "foreground p99 SLO in ms for -serving; > 0 arms the adaptive QoS rebuild throttle")
	zipfS := flag.Float64("zipf-s", 1.2, "stripe-popularity Zipf skew for -serving (<= 1 uniform)")
	writeFrac := flag.Float64("write-frac", 0.1, "parity read-modify-write fraction for -serving")
	hotFrac := flag.Float64("hot-frac", 0.3, "fraction of -serving traffic aimed at stripes under repair")
	servingOps := flag.Int("ops", 0, "foreground operations per -serving run (default 2000)")
	durability := flag.Bool("durability", false, "run the fault-injection durability sweep (data-loss probability and repair makespan vs URE rate)")
	faultSeed := flag.Int64("fault-seed", 1, "fault-schedule RNG seed for -durability")
	ureRatesFlag := flag.String("ure-rates", "0,0.001,0.01", "comma-separated per-address URE rates for -durability")
	transientRate := flag.Float64("transient-rate", 0.01, "per-attempt transient-timeout rate for -durability")
	secondFailureAt := flag.Float64("second-failure-at", 0, "inject a second whole-disk failure at this simulated time (ms) during -durability; 0 disables")
	thirdFailureAt := flag.Float64("third-failure-at", 0, "inject a third whole-disk failure at this simulated time (ms) during -durability; 0 disables")
	trials := flag.Int("trials", 0, "fault schedules averaged per -durability row (default 5)")
	codesFlag := flag.String("codes", "", "comma-separated code families (default: paper's four)")
	primesFlag := flag.String("p", "", "comma-separated primes (default: per-figure paper values)")
	policiesFlag := flag.String("policies", "", "comma-separated cache policies (default: paper's five)")
	sizesFlag := flag.String("sizes", "", "comma-separated cache sizes in MB (default: paper's sweep)")
	groups := flag.Int("groups", 0, "error groups per run (default 256)")
	workers := flag.Int("workers", 0, "parallel recovery processes (default 128)")
	stripes := flag.Int("stripes", 0, "stripes on the array (default 16384)")
	seed := flag.Int64("seed", 1, "trace RNG seed")
	strategyFlag := flag.String("strategy", "looped", "chain-selection strategy (typical, looped, greedy)")
	distFlag := flag.String("dist", "uniform", "error-size distribution (uniform, fixed, geometric)")
	csv := flag.Bool("csv", false, "emit figures as CSV instead of text tables")
	parallel := flag.Int("parallel", 0, "concurrent simulation runs per sweep (0 = GOMAXPROCS, 1 = serial); results are identical at any level")
	progress := flag.Bool("progress", false, "report sweep progress on stderr")
	traceOut := flag.String("trace-out", "", "run one traced rebuild and write its Chrome trace-event JSON here (load in chrome://tracing or Perfetto)")
	traceJSONL := flag.String("trace-jsonl", "", "run one traced rebuild and write its event stream as JSONL here (fbftrace input)")
	metricsOut := flag.String("metrics-out", "", "run one instrumented rebuild and write its sampled metrics here (CSV if the path ends in .csv, JSON otherwise)")
	metricsInterval := flag.Float64("metrics-interval", 10, "metrics sampling period in simulated ms")
	pprofCPU := flag.String("pprof-cpu", "", "write a CPU profile of the whole invocation here")
	pprofMem := flag.String("pprof-mem", "", "write a heap profile at exit here")
	flag.Parse()

	params := experiments.DefaultParams()
	params.Seed = *seed
	if *parallel < 0 {
		log.Fatalf("bad -parallel %d: must be >= 0", *parallel)
	}
	params.Parallelism = *parallel
	if *progress {
		params.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rfbfsim: %d/%d runs", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	if *groups > 0 {
		params.Groups = *groups
	}
	if *workers > 0 {
		params.Workers = *workers
	}
	if *stripes > 0 {
		params.Stripes = *stripes
	}
	if *codesFlag != "" {
		params.Codes = cli.SplitList(*codesFlag)
	}
	if *policiesFlag != "" {
		params.Policies = cli.SplitList(*policiesFlag)
	}
	if *primesFlag != "" {
		primes, err := cli.ParseIntsFlag("p", *primesFlag)
		if err != nil {
			log.Fatal(err)
		}
		params.Primes = primes
	}
	if *sizesFlag != "" {
		sizes, err := cli.ParseIntsFlag("sizes", *sizesFlag)
		if err != nil {
			log.Fatal(err)
		}
		params.CacheSizesMB = sizes
	}
	strategy, err := core.ParseStrategy(*strategyFlag)
	if err != nil {
		log.Fatal(err)
	}
	params.Strategy = strategy
	if params.Dist, err = trace.ParseSizeDist(*distFlag); err != nil {
		log.Fatalf("bad -dist: %v", err)
	}

	// Validate every output path up front: a long simulation must not
	// discover an unwritable -trace-out/-metrics-out/-pprof-* path only
	// when it finally tries to write.
	outputs := map[string]*os.File{}
	for _, o := range []struct{ name, path string }{
		{"trace-out", *traceOut},
		{"trace-jsonl", *traceJSONL},
		{"metrics-out", *metricsOut},
		{"pprof-cpu", *pprofCPU},
		{"pprof-mem", *pprofMem},
	} {
		if o.path == "" {
			continue
		}
		f, err := cli.CreateOutput(o.name, o.path)
		if err != nil {
			log.Fatal(err)
		}
		outputs[o.name] = f
		defer f.Close()
	}
	if *metricsInterval <= 0 {
		log.Fatalf("bad -metrics-interval %v: must be > 0 ms", *metricsInterval)
	}
	if f := outputs["pprof-cpu"]; f != nil {
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("bad -pprof-cpu: %v", err)
		}
		defer pprof.StopCPUProfile()
	}
	if f := outputs["pprof-mem"]; f != nil {
		defer func() {
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Fatalf("bad -pprof-mem: %v", err)
			}
		}()
	}

	runAll := *figFlag == 0 && *tableFlag == 0 && !*ablation && !*online && !*modes && !*durability && !*serving
	out := os.Stdout

	runFig := func(n int) {
		var fig *experiments.Figure
		var err error
		p := params
		switch n {
		case 8:
			fig, err = experiments.Fig8(p)
		case 9:
			if *primesFlag == "" {
				p.Primes = []int{5, 7, 11, 13}
			}
			fig, err = experiments.Fig9(p)
		case 10:
			fig, err = experiments.Fig10(p)
		case 11:
			if *primesFlag == "" {
				p.Primes = []int{5, 7, 11, 13}
			}
			fig, err = experiments.Fig11(p)
		default:
			log.Fatalf("unknown figure %d (have 8, 9, 10, 11)", n)
		}
		if err != nil {
			log.Fatalf("figure %d: %v", n, err)
		}
		if *csv {
			if err := experiments.RenderFigureCSV(out, fig); err != nil {
				log.Fatal(err)
			}
			return
		}
		if err := experiments.RenderFigure(out, fig, p.Policies); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(out)
	}

	runTable := func(n int) {
		switch n {
		case 4:
			p := params
			if *primesFlag == "" {
				p.Primes = []int{5, 7, 11, 13}
			}
			rows, err := experiments.Table4(p)
			if err != nil {
				log.Fatalf("table 4: %v", err)
			}
			if err := experiments.RenderTable4(out, rows, p.Codes); err != nil {
				log.Fatal(err)
			}
		case 5:
			points, err := experiments.Sweep(params)
			if err != nil {
				log.Fatalf("table 5 sweep: %v", err)
			}
			if err := experiments.RenderTable5(out, experiments.Table5(points)); err != nil {
				log.Fatal(err)
			}
		default:
			log.Fatalf("unknown table %d (have 4, 5)", n)
		}
		fmt.Fprintln(out)
	}

	runAblation := func() {
		p := params
		rows, err := experiments.SchemeAblation(p)
		if err != nil {
			log.Fatalf("ablation: %v", err)
		}
		if err := experiments.RenderSchemeAblation(out, rows); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(out)
	}

	runOnline := func() {
		p := params
		if *codesFlag == "" {
			p.Codes = []string{"tip"}
		}
		if *primesFlag == "" {
			p.Primes = []int{13}
		}
		rows, err := experiments.OnlineRecovery(p, rebuild.AppWorkload{Seed: p.Seed})
		if err != nil {
			log.Fatalf("online: %v", err)
		}
		if err := experiments.RenderOnline(out, rows); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(out)
	}

	runModes := func() {
		p := params
		if *codesFlag == "" {
			p.Codes = []string{"tip"}
		}
		if *primesFlag == "" {
			p.Primes = []int{13}
		}
		rows, err := experiments.ModeComparison(p)
		if err != nil {
			log.Fatalf("modes: %v", err)
		}
		if err := experiments.RenderModes(out, rows); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(out)
	}

	runServing := func() {
		p := params
		if *codesFlag == "" {
			p.Codes = []string{"tip"}
		}
		if *primesFlag == "" {
			p.Primes = []int{13}
		}
		rates, err := cli.ParseFloatsFlag("rate", *ratesFlag)
		if err != nil {
			log.Fatal(err)
		}
		sc := experiments.ServingSweep{
			Rates: rates, Ops: *servingOps, Seed: p.Seed,
			ZipfS: *zipfS, WriteFrac: *writeFrac, HotFrac: *hotFrac,
		}
		if *sloP99 > 0 {
			sc.QoS = &rebuild.QoSConfig{SLOp99Ms: *sloP99}
		}
		rows, err := experiments.Serving(p, sc)
		if err != nil {
			log.Fatalf("serving: %v", err)
		}
		if *csv {
			if err := experiments.RenderServingCSV(out, rows); err != nil {
				log.Fatal(err)
			}
			return
		}
		if err := experiments.RenderServing(out, rows); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(out)
	}

	runDurability := func() {
		p := params
		if *codesFlag == "" {
			p.Codes = []string{"tip"}
		}
		if *primesFlag == "" {
			p.Primes = []int{7}
		}
		rates, err := cli.ParseFloatsFlag("ure-rates", *ureRatesFlag)
		if err != nil {
			log.Fatal(err)
		}
		rows, err := experiments.Durability(p, experiments.DurabilityConfig{
			URERates:        rates,
			TransientRate:   *transientRate,
			FaultSeed:       *faultSeed,
			Trials:          *trials,
			SecondFailureAt: sim.Time(*secondFailureAt * float64(sim.Millisecond)),
			ThirdFailureAt:  sim.Time(*thirdFailureAt * float64(sim.Millisecond)),
		})
		if err != nil {
			log.Fatalf("durability: %v", err)
		}
		if err := experiments.RenderDurability(out, rows); err != nil {
			log.Fatal(err)
		}
		fmt.Fprintln(out)
	}

	// An observability sink runs one instrumented rebuild instead of a
	// sweep: the first configured (code, p, policy, size) point — or the
	// paper's tip(p=13)/fbf/64MB when the axes were left at their
	// defaults — traced and/or sampled, with the exports written before
	// the summary line. The trace is stamped in simulated time, so the
	// same flags reproduce it byte for byte (unless ChargeSchemeGen-style
	// wall-clock charging is enabled elsewhere).
	if outputs["trace-out"] != nil || outputs["trace-jsonl"] != nil || outputs["metrics-out"] != nil {
		code, prime, policy, sizeMB := "tip", 13, "fbf", 64
		if *codesFlag != "" {
			code = params.Codes[0]
		}
		if *primesFlag != "" {
			prime = params.Primes[0]
		}
		if *policiesFlag != "" {
			policy = params.Policies[0]
		}
		if *sizesFlag != "" {
			sizeMB = params.CacheSizesMB[0]
		}
		geom, err := experiments.ResolveGeometry(code, prime)
		if err != nil {
			log.Fatal(err)
		}
		errs, err := trace.Generate(geom, trace.Config{
			Groups: params.Groups, Stripes: params.Stripes,
			Seed: params.Seed, Disk: -1, Dist: params.Dist,
		})
		if err != nil {
			log.Fatal(err)
		}
		cfg := rebuild.Config{
			Code: geom, Policy: policy, Strategy: params.Strategy,
			Workers: params.Workers, CacheChunks: params.CacheChunks(sizeMB),
			ChunkSize: params.ChunkSizeKB * 1024, Stripes: params.Stripes,
		}
		var collector *obs.Collector
		if outputs["trace-out"] != nil || outputs["trace-jsonl"] != nil {
			collector = obs.NewCollector()
			cfg.Tracer = collector
		}
		var reg *obs.Registry
		if outputs["metrics-out"] != nil {
			reg = obs.NewRegistry()
			cfg.Metrics = reg
			cfg.MetricsInterval = sim.Time(*metricsInterval * float64(sim.Millisecond))
		}
		res, err := rebuild.Run(cfg, errs)
		if err != nil {
			log.Fatal(err)
		}
		if f := outputs["trace-out"]; f != nil {
			if err := obs.WriteChrome(f, collector.Events()); err != nil {
				log.Fatalf("-trace-out: %v", err)
			}
		}
		if f := outputs["trace-jsonl"]; f != nil {
			if err := obs.WriteJSONL(f, collector.Events()); err != nil {
				log.Fatalf("-trace-jsonl: %v", err)
			}
		}
		if f := outputs["metrics-out"]; f != nil {
			if strings.HasSuffix(*metricsOut, ".csv") {
				err = reg.WriteCSV(f)
			} else {
				err = reg.WriteJSON(f)
			}
			if err != nil {
				log.Fatalf("-metrics-out: %v", err)
			}
		}
		events := 0
		if collector != nil {
			events = collector.Len()
		}
		fmt.Fprintf(out, "observed run %s(p=%d) %s %dMB: hit ratio %.3f, %d disk reads, %v reconstruction, %d trace events\n",
			code, prime, policy, sizeMB, res.HitRatio(), res.DiskReads, res.Makespan, events)
		return
	}

	switch {
	case runAll:
		for _, n := range []int{8, 9, 10, 11} {
			runFig(n)
		}
		runTable(4)
		runTable(5)
		runAblation()
		runOnline()
		runModes()
	default:
		if *figFlag != 0 {
			runFig(*figFlag)
		}
		if *tableFlag != 0 {
			runTable(*tableFlag)
		}
		if *ablation {
			runAblation()
		}
		if *online {
			runOnline()
		}
		if *modes {
			runModes()
		}
		if *durability {
			runDurability()
		}
		if *serving {
			runServing()
		}
	}
}
