// Engine-focused benchmarks: where the figure benchmarks report the
// paper's metrics, these measure the simulator itself — ns/op and
// allocs/op of a full SOR rebuild per code and policy, raw XOR
// throughput, and scheme-generation latency. TestWriteBenchJSON reruns
// them via testing.Benchmark and emits BENCH_rebuild.json, the
// machine-readable baseline checked in at the repo root.
package fbf_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"testing"

	"fbf"
	"fbf/internal/chunk"
	"fbf/internal/rebuild"
)

// benchRebuildPolicies is the pair the paper's headline comparison
// needs; the full five-policy grid runs via the figure benchmarks.
var benchRebuildPolicies = []string{"lru", "fbf"}

// benchRebuild drives one full SOR reconstruction per iteration —
// scheme generation, cache replay, disk simulation, XOR and spare
// writes — and reports the engine's own cost (ns/op, allocs/op)
// alongside the simulated makespan.
func benchRebuild(b *testing.B, codeName, policy string) {
	b.Helper()
	code := fbf.MustNewCode(codeName, 13)
	errors := benchTrace(b, code, 48)
	b.ReportAllocs()
	b.ResetTimer()
	var last *rebuild.Result
	for i := 0; i < b.N; i++ {
		res, err := fbf.Run(fbf.SimConfig{
			Code: code, Policy: policy, Strategy: fbf.StrategyLooped,
			Workers: 64, CacheChunks: 32 * 1024 / 32, Stripes: 1 << 13,
		}, errors)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.Makespan.Milliseconds(), "recon-ms")
	b.ReportMetric(last.HitRatio(), "hit-ratio")
}

// BenchmarkRebuild measures the engine per code family and policy.
func BenchmarkRebuild(b *testing.B) {
	for _, codeName := range fbf.CodeNames() {
		for _, policy := range benchRebuildPolicies {
			b.Run(fmt.Sprintf("code=%s/policy=%s", codeName, policy), func(b *testing.B) {
				benchRebuild(b, codeName, policy)
			})
		}
	}
}

// benchXOR measures raw accumulator XOR throughput at the paper's 32 KB
// chunk size — the compute kernel of every chain repair.
func benchXOR(b *testing.B) {
	const size = 32 * 1024
	acc := chunk.New(size)
	src := chunk.New(size)
	for i := range src {
		src[i] = byte(i * 31)
	}
	b.SetBytes(size)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chunk.XORInto(acc, src)
	}
}

// BenchmarkXOR reports chunk-XOR throughput (MB/s).
func BenchmarkXOR(b *testing.B) { benchXOR(b) }

// xorKernelSizes sweeps the XOR kernel across its dispatch regimes:
// below 256 bytes XORInto runs the unrolled scalar word loop, at and
// above it routes through crypto/subtle's vectorized XORBytes.
var xorKernelSizes = []int{64, 255, 256, 4 * 1024, 32 * 1024, 256 * 1024}

// benchXORKernel measures one size point of the kernel sweep.
func benchXORKernel(b *testing.B, size int) {
	b.Helper()
	acc := chunk.New(size)
	src := chunk.New(size)
	for i := range src {
		src[i] = byte(i * 31)
	}
	b.SetBytes(int64(size))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chunk.XORInto(acc, src)
	}
}

// BenchmarkXORKernel reports kernel throughput per buffer size.
func BenchmarkXORKernel(b *testing.B) {
	for _, size := range xorKernelSizes {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) { benchXORKernel(b, size) })
	}
}

// benchSchemeGen measures one looped-scheme generation — the paper's
// Table IV temporal overhead — for a mid-sized error.
func benchSchemeGen(b *testing.B, codeName string) {
	b.Helper()
	code := fbf.MustNewCode(codeName, 13)
	e := fbf.PartialStripeError{Disk: 0, Row: 0, Size: code.Rows() / 2}
	if e.Size == 0 {
		e.Size = 1
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fbf.GenerateScheme(code, e, fbf.StrategyLooped); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchemeGen measures scheme-generation latency per code.
func BenchmarkSchemeGen(b *testing.B) {
	for _, codeName := range fbf.CodeNames() {
		b.Run("code="+codeName, func(b *testing.B) { benchSchemeGen(b, codeName) })
	}
}

var benchJSONOut = flag.String("bench-json", "", "write machine-readable engine benchmark results (BENCH_rebuild.json) to this path")

// benchRecord is one benchmark's machine-readable result.
type benchRecord struct {
	Name        string             `json:"name"`
	Iterations  int                `json:"iterations"`
	NsPerOp     int64              `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	MBPerSec    float64            `json:"mb_per_s,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
}

// TestWriteBenchJSON reruns the engine benchmarks through
// testing.Benchmark and writes BENCH_rebuild.json. Skipped unless
// -bench-json names an output path:
//
//	go test -run WriteBenchJSON -bench-json BENCH_rebuild.json .
//
// Wall-clock numbers vary by host; the file records which host-speed
// regime produced a given simulation result set, it is not a golden
// file.
func TestWriteBenchJSON(t *testing.T) {
	if *benchJSONOut == "" {
		t.Skip("run with -bench-json <path> to emit BENCH_rebuild.json")
	}
	var records []benchRecord
	add := func(name string, fn func(b *testing.B)) {
		r := testing.Benchmark(fn)
		rec := benchRecord{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     r.NsPerOp(),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		// BenchmarkResult keeps SetBytes throughput in r.Bytes, not in
		// Extra (the old Extra["MB/s"] lookup always missed, recording 0).
		if r.Bytes > 0 && r.T > 0 {
			rec.MBPerSec = float64(r.Bytes) * float64(r.N) / 1e6 / r.T.Seconds()
		}
		metrics := map[string]float64{}
		for k, v := range r.Extra {
			if k != "MB/s" {
				metrics[k] = v
			}
		}
		if len(metrics) > 0 {
			rec.Metrics = metrics
		}
		records = append(records, rec)
	}
	for _, codeName := range fbf.CodeNames() {
		for _, policy := range benchRebuildPolicies {
			codeName, policy := codeName, policy
			add(fmt.Sprintf("Rebuild/code=%s/policy=%s", codeName, policy), func(b *testing.B) {
				benchRebuild(b, codeName, policy)
			})
		}
	}
	add("XOR/32KB", benchXOR)
	for _, size := range xorKernelSizes {
		size := size
		add(fmt.Sprintf("XORKernel/size=%d", size), func(b *testing.B) { benchXORKernel(b, size) })
	}
	for _, codeName := range fbf.CodeNames() {
		codeName := codeName
		add("SchemeGen/code="+codeName, func(b *testing.B) { benchSchemeGen(b, codeName) })
	}
	sort.Slice(records, func(i, j int) bool { return records[i].Name < records[j].Name })

	doc := struct {
		Unit       string        `json:"ns_unit"`
		Benchmarks []benchRecord `json:"benchmarks"`
	}{Unit: "wall-clock nanoseconds per operation", Benchmarks: records}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*benchJSONOut, data, 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("wrote %d benchmark records to %s", len(records), *benchJSONOut)
}
