// Benchmarks regenerating the paper's evaluation artefacts. Each
// Benchmark<FigN|TableN> drives the same pipeline as the corresponding
// figure or table (cmd/fbfsim reproduces them at full scale) and
// reports the figure's metric via b.ReportMetric, so `go test -bench .`
// prints the series the paper plots: who wins, by what factor, and
// where the curves converge.
package fbf_test

import (
	"fmt"
	"testing"

	"fbf"
	"fbf/internal/cache"
	"fbf/internal/core"
	"fbf/internal/rebuild"
)

// benchTrace memoizes one error trace per (code, prime) so every policy
// sees identical workloads, as in the experiments package.
var benchTraces = map[string][]fbf.PartialStripeError{}

func benchTrace(b *testing.B, code *fbf.Code, groups int) []fbf.PartialStripeError {
	b.Helper()
	key := fmt.Sprintf("%s-%d", code, groups)
	if t, ok := benchTraces[key]; ok {
		return t
	}
	t, err := fbf.GenerateTrace(code, fbf.TraceConfig{
		Groups: groups, Stripes: 1 << 13, Seed: 1, Disk: -1,
	})
	if err != nil {
		b.Fatal(err)
	}
	benchTraces[key] = t
	return t
}

func runRecovery(b *testing.B, code *fbf.Code, policy string, cacheMB, workers int, skipWrites bool) *rebuild.Result {
	b.Helper()
	errors := benchTrace(b, code, 64)
	var last *rebuild.Result
	for i := 0; i < b.N; i++ {
		res, err := fbf.Run(fbf.SimConfig{
			Code:            code,
			Policy:          policy,
			Strategy:        fbf.StrategyLooped,
			Workers:         workers,
			CacheChunks:     cacheMB * 1024 / 32,
			Stripes:         1 << 13,
			SkipSpareWrites: skipWrites,
		}, errors)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	return last
}

var benchPolicies = []string{"fifo", "lru", "lfu", "arc", "fbf"}

// BenchmarkFig8 regenerates Figure 8's series: hit ratio per policy
// across cache sizes (TIP, p=13; the full grid runs via
// `fbfsim -fig 8`).
func BenchmarkFig8(b *testing.B) {
	code := fbf.MustNewCode("tip", 13)
	for _, sizeMB := range []int{8, 32, 128, 512} {
		for _, policy := range benchPolicies {
			b.Run(fmt.Sprintf("cache=%dMB/policy=%s", sizeMB, policy), func(b *testing.B) {
				res := runRecovery(b, code, policy, sizeMB, 128, true)
				b.ReportMetric(res.HitRatio(), "hit-ratio")
			})
		}
	}
}

// BenchmarkFig9 regenerates Figure 9's series: disk reads during
// recovery (TIP, p=13).
func BenchmarkFig9(b *testing.B) {
	code := fbf.MustNewCode("tip", 13)
	for _, sizeMB := range []int{8, 32, 128, 512} {
		for _, policy := range benchPolicies {
			b.Run(fmt.Sprintf("cache=%dMB/policy=%s", sizeMB, policy), func(b *testing.B) {
				res := runRecovery(b, code, policy, sizeMB, 128, true)
				b.ReportMetric(float64(res.DiskReads), "disk-reads")
			})
		}
	}
}

// BenchmarkFig10 regenerates Figure 10's series: average response time
// per chunk request (TIP, p=13).
func BenchmarkFig10(b *testing.B) {
	code := fbf.MustNewCode("tip", 13)
	for _, sizeMB := range []int{8, 32, 128} {
		for _, policy := range benchPolicies {
			b.Run(fmt.Sprintf("cache=%dMB/policy=%s", sizeMB, policy), func(b *testing.B) {
				res := runRecovery(b, code, policy, sizeMB, 128, false)
				b.ReportMetric(res.AvgResponse().Milliseconds(), "resp-ms")
			})
		}
	}
}

// BenchmarkFig11 regenerates Figure 11's series: total reconstruction
// time (TIP, p=13).
func BenchmarkFig11(b *testing.B) {
	code := fbf.MustNewCode("tip", 13)
	for _, sizeMB := range []int{8, 32, 128} {
		for _, policy := range benchPolicies {
			b.Run(fmt.Sprintf("cache=%dMB/policy=%s", sizeMB, policy), func(b *testing.B) {
				res := runRecovery(b, code, policy, sizeMB, 128, false)
				b.ReportMetric(res.Makespan.Milliseconds(), "recon-ms")
			})
		}
	}
}

// BenchmarkTable4 measures Table IV directly: ns/op is the temporal
// overhead of generating one recovery scheme plus its priority
// dictionary, per code and prime.
func BenchmarkTable4(b *testing.B) {
	for _, prime := range []int{5, 7, 11, 13} {
		for _, name := range fbf.CodeNames() {
			code := fbf.MustNewCode(name, prime)
			e := fbf.PartialStripeError{Disk: 0, Row: 0, Size: min(prime-1, code.Rows()) / 2}
			if e.Size == 0 {
				e.Size = 1
			}
			b.Run(fmt.Sprintf("p=%d/code=%s", prime, name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := fbf.GenerateScheme(code, e, fbf.StrategyLooped); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkTable5 runs the Table V pipeline end to end at reduced scale:
// the reported metric is FBF's maximum hit-ratio gain over LRU across
// the sweep.
func BenchmarkTable5(b *testing.B) {
	params := fbf.DefaultExperimentParams()
	params.Codes = []string{"tip"}
	params.Primes = []int{13}
	params.CacheSizesMB = []int{8, 32, 128}
	params.Groups = 48
	params.Stripes = 1 << 13
	params.FastIO = true
	var gain float64
	for i := 0; i < b.N; i++ {
		points, err := fbf.Sweep(params)
		if err != nil {
			b.Fatal(err)
		}
		for _, imp := range fbf.Table5(points) {
			if imp.Metric == "hit ratio" && imp.Baseline == "lru" {
				gain = imp.Percent
			}
		}
	}
	b.ReportMetric(gain, "max-lru-gain-%")
}

// BenchmarkAblationScheme quantifies the design choice behind Figure 2:
// unique chunk reads per error group under each chain-selection
// strategy.
func BenchmarkAblationScheme(b *testing.B) {
	code := fbf.MustNewCode("tip", 13)
	errors := benchTrace(b, code, 64)
	for _, strategy := range []fbf.Strategy{fbf.StrategyTypical, fbf.StrategyLooped, core.StrategyGreedy} {
		b.Run("strategy="+strategy.String(), func(b *testing.B) {
			var unique int
			for i := 0; i < b.N; i++ {
				unique = 0
				for _, e := range errors {
					s, err := fbf.GenerateScheme(code, e, strategy)
					if err != nil {
						b.Fatal(err)
					}
					unique += s.UniqueFetches()
				}
			}
			b.ReportMetric(float64(unique)/float64(len(errors)), "unique-reads/group")
		})
	}
}

// BenchmarkAblationDiskModel checks that the Figure 10/11 ranking holds
// under the positional disk model, not just the paper's flat 10 ms.
func BenchmarkAblationDiskModel(b *testing.B) {
	code := fbf.MustNewCode("tip", 13)
	errors := benchTrace(b, code, 64)
	for _, policy := range []string{"lru", "fbf"} {
		b.Run("positional/policy="+policy, func(b *testing.B) {
			var last *rebuild.Result
			for i := 0; i < b.N; i++ {
				res, err := fbf.Run(fbf.SimConfig{
					Code: code, Policy: policy, Strategy: fbf.StrategyLooped,
					Workers: 128, CacheChunks: 32 * 1024 / 32, Stripes: 1 << 13,
					ModelFor: func(i int) fbf.DiskModel {
						return fbf.NewPositional((1<<13)*int64(code.Rows()), int64(i))
					},
				}, errors)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.Makespan.Milliseconds(), "recon-ms")
		})
	}
}

// BenchmarkAblationGreedy compares reconstruction with the greedy
// chain-selection extension against the paper's looping heuristic.
func BenchmarkAblationGreedy(b *testing.B) {
	code := fbf.MustNewCode("tip", 13)
	errors := benchTrace(b, code, 64)
	for _, strategy := range []fbf.Strategy{fbf.StrategyLooped, core.StrategyGreedy} {
		b.Run("strategy="+strategy.String(), func(b *testing.B) {
			var last *rebuild.Result
			for i := 0; i < b.N; i++ {
				res, err := fbf.Run(fbf.SimConfig{
					Code: code, Policy: "fbf", Strategy: strategy,
					Workers: 128, CacheChunks: 32 * 1024 / 32, Stripes: 1 << 13,
					SkipSpareWrites: true,
				}, errors)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(float64(last.DiskReads), "disk-reads")
		})
	}
}

// BenchmarkEncode measures stripe encoding throughput per code.
func BenchmarkEncode(b *testing.B) {
	for _, name := range fbf.CodeNames() {
		code := fbf.MustNewCode(name, 13)
		stripe := code.NewStripe(32 * 1024)
		b.Run("code="+name, func(b *testing.B) {
			b.SetBytes(int64(len(stripe)) * 32 * 1024)
			for i := 0; i < b.N; i++ {
				code.Encode(stripe)
			}
		})
	}
}

// BenchmarkCachePolicies measures raw request throughput per policy on
// a looped-scheme request stream.
func BenchmarkCachePolicies(b *testing.B) {
	code := fbf.MustNewCode("tip", 13)
	var requests []fbf.ChunkID
	var prios map[fbf.ChunkID]int
	for stripe := 0; stripe < 32; stripe++ {
		e := fbf.PartialStripeError{Stripe: stripe, Disk: stripe % code.Disks(), Row: 0, Size: 6}
		s, err := fbf.GenerateScheme(code, e, fbf.StrategyLooped)
		if err != nil {
			b.Fatal(err)
		}
		requests = append(requests, s.RequestIDs()...)
		if prios == nil {
			prios = s.PriorityIDs()
		}
	}
	for _, name := range fbf.PolicyNames() {
		b.Run("policy="+name, func(b *testing.B) {
			policy, err := cache.New(name, 256)
			if err != nil {
				b.Fatal(err)
			}
			if pa, ok := policy.(interface {
				SetPriorities(map[fbf.ChunkID]int)
			}); ok {
				pa.SetPriorities(prios)
			}
			if fa, ok := policy.(interface{ SetFuture([]fbf.ChunkID) }); ok {
				fa.SetFuture(requests)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				policy.Request(requests[i%len(requests)])
			}
		})
	}
}

// BenchmarkAblationMode compares the two parallel reconstruction
// organizations (Section III-B of the paper): stripe-oriented (SOR,
// partitioned caches) versus disk-oriented (DOR, one shared cache).
func BenchmarkAblationMode(b *testing.B) {
	code := fbf.MustNewCode("tip", 13)
	errors := benchTrace(b, code, 64)
	for _, mode := range []rebuild.Mode{rebuild.ModeSOR, rebuild.ModeDOR} {
		for _, policy := range []string{"lru", "fbf"} {
			b.Run(fmt.Sprintf("mode=%s/policy=%s", mode, policy), func(b *testing.B) {
				var last *rebuild.Result
				for i := 0; i < b.N; i++ {
					res, err := fbf.Run(fbf.SimConfig{
						Code: code, Policy: policy, Strategy: fbf.StrategyLooped,
						Mode: mode, Workers: 128, CacheChunks: 64 * 1024 / 32, Stripes: 1 << 13,
					}, errors)
					if err != nil {
						b.Fatal(err)
					}
					last = res
				}
				b.ReportMetric(last.Makespan.Milliseconds(), "recon-ms")
				b.ReportMetric(last.HitRatio(), "hit-ratio")
			})
		}
	}
}

// BenchmarkOnlineRecovery measures reconstruction under foreground
// application load (the paper's closing "online recovery" claim).
func BenchmarkOnlineRecovery(b *testing.B) {
	code := fbf.MustNewCode("tip", 13)
	errors := benchTrace(b, code, 64)
	for _, policy := range []string{"lru", "fbf"} {
		b.Run("policy="+policy, func(b *testing.B) {
			var last *rebuild.Result
			for i := 0; i < b.N; i++ {
				res, err := fbf.Run(fbf.SimConfig{
					Code: code, Policy: policy, Strategy: fbf.StrategyLooped,
					Workers: 128, CacheChunks: 64 * 1024 / 32, Stripes: 1 << 13,
					App: &rebuild.AppWorkload{Requests: 512, Seed: 1, ErrorLocality: 0.5},
				}, errors)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.Makespan.Milliseconds(), "recon-ms")
			b.ReportMetric(last.AppAvgResponse().Milliseconds(), "app-resp-ms")
		})
	}
}

// BenchmarkLRCBoundary regenerates the footnote-3 boundary result: FBF
// applied to LRC's local/global chains runs correctly but single-disk
// partial errors share no chunks, so the hit ratio is zero for every
// policy (compare BenchmarkFig8).
func BenchmarkLRCBoundary(b *testing.B) {
	code, err := fbf.NewLRC(12, 2, 2, 12)
	if err != nil {
		b.Fatal(err)
	}
	errors, err := fbf.GenerateTrace(code, fbf.TraceConfig{Groups: 64, Stripes: 1 << 13, Seed: 1, Disk: -1})
	if err != nil {
		b.Fatal(err)
	}
	for _, policy := range []string{"lru", "fbf"} {
		b.Run("policy="+policy, func(b *testing.B) {
			var last *rebuild.Result
			for i := 0; i < b.N; i++ {
				res, err := fbf.Run(fbf.SimConfig{
					Code: code, Policy: policy, Strategy: fbf.StrategyLooped,
					Workers: 128, CacheChunks: 64 * 1024 / 32, Stripes: 1 << 13,
					SkipSpareWrites: true,
				}, errors)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.HitRatio(), "hit-ratio")
			b.ReportMetric(float64(last.DiskReads), "disk-reads")
		})
	}
}

// BenchmarkClusteredErrors reruns the Figure-8 comparison under the
// spatially clustered error model of Section II-C's citations.
func BenchmarkClusteredErrors(b *testing.B) {
	code := fbf.MustNewCode("tip", 13)
	errors, err := fbf.GenerateTrace(code, fbf.TraceConfig{
		Groups: 64, Stripes: 1 << 13, Seed: 1, Disk: -1, Clustered: true,
	})
	if err != nil {
		b.Fatal(err)
	}
	for _, policy := range benchPolicies {
		b.Run("policy="+policy, func(b *testing.B) {
			var last *rebuild.Result
			for i := 0; i < b.N; i++ {
				res, err := fbf.Run(fbf.SimConfig{
					Code: code, Policy: policy, Strategy: fbf.StrategyLooped,
					Workers: 128, CacheChunks: 32 * 1024 / 32, Stripes: 1 << 13,
					SkipSpareWrites: true,
				}, errors)
				if err != nil {
					b.Fatal(err)
				}
				last = res
			}
			b.ReportMetric(last.HitRatio(), "hit-ratio")
		})
	}
}
