package fbf_test

import (
	"bytes"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"fbf"
)

// TestPublicAPIPipeline exercises the whole facade the way the README's
// quickstart does: code → trace → simulation → figures.
func TestPublicAPIPipeline(t *testing.T) {
	code, err := fbf.NewCode("tip", 7)
	if err != nil {
		t.Fatal(err)
	}
	if code.Disks() != 8 || code.Rows() != 6 {
		t.Fatalf("unexpected geometry %dx%d", code.Rows(), code.Disks())
	}

	errors, err := fbf.GenerateTrace(code, fbf.TraceConfig{Groups: 16, Stripes: 256, Seed: 3, Disk: -1})
	if err != nil {
		t.Fatal(err)
	}

	res, err := fbf.Run(fbf.SimConfig{
		Code: code, Policy: "fbf", Strategy: fbf.StrategyLooped,
		Workers: 4, CacheChunks: 32, Stripes: 256,
	}, errors)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 || res.TotalRequests == 0 {
		t.Fatalf("empty result %+v", res)
	}

	params := fbf.DefaultExperimentParams()
	params.Codes = []string{"tip"}
	params.Primes = []int{5}
	params.Policies = []string{"lru", "fbf"}
	params.CacheSizesMB = []int{1, 64}
	params.Groups = 8
	params.Stripes = 128
	params.Workers = 4
	fig, err := fbf.Fig8(params)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fbf.RenderFigure(&buf, fig, params.Policies); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "FIG8") {
		t.Error("figure rendering broken through facade")
	}
}

func TestPublicAPICodesAndPolicies(t *testing.T) {
	if len(fbf.CodeNames()) != 4 {
		t.Errorf("CodeNames = %v", fbf.CodeNames())
	}
	names := fbf.PolicyNames()
	hasFBF := false
	for _, n := range names {
		if n == "fbf" {
			hasFBF = true
		}
	}
	if !hasFBF {
		t.Errorf("fbf missing from PolicyNames %v", names)
	}
	for _, ctor := range []func(int) (*fbf.Code, error){fbf.NewSTAR, fbf.NewTripleStar, fbf.NewTIP, fbf.NewHDD1} {
		code, err := ctor(5)
		if err != nil {
			t.Fatal(err)
		}
		stripe := code.NewStripe(64)
		code.Encode(stripe)
		if !code.Verify(stripe) {
			t.Errorf("%v: zero stripe should verify", code)
		}
	}
	p := fbf.NewFBF(4)
	p.SetPriorities(map[fbf.ChunkID]int{{Stripe: 0, Cell: fbf.Coord{Row: 0, Col: 0}}: 3})
	if p.Request(fbf.ChunkID{Stripe: 0, Cell: fbf.Coord{Row: 0, Col: 0}}) {
		t.Error("cold request hit")
	}
	if p.QueueLen(3) != 1 {
		t.Error("priority routing broken through facade")
	}
}

func TestPublicAPITraceRoundTrip(t *testing.T) {
	code := fbf.MustNewCode("star", 5)
	errors, err := fbf.GenerateTrace(code, fbf.TraceConfig{Groups: 5, Stripes: 50, Seed: 1, Disk: 0})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fbf.WriteTraceCSV(&buf, errors); err != nil {
		t.Fatal(err)
	}
	back, err := fbf.ReadTraceCSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back) != len(errors) {
		t.Fatal("round trip lost errors")
	}
}

// TestPublicAPIStorageEngine exercises the storage-engine facade the
// way the README's fbfctl quick-start does: init → kill a disk →
// rebuild → verify, all through re-exported names.
func TestPublicAPIStorageEngine(t *testing.T) {
	m := fbf.StoreManifest{Code: "star", P: 5, Disks: 8, Rows: 4, Stripes: 2, ChunkSize: 64}
	b := fbf.NewMemStore()
	if err := fbf.InitStore(b, m, 7); err != nil {
		t.Fatal(err)
	}
	addrs, err := b.List(3)
	if err != nil {
		t.Fatal(err)
	}
	if len(addrs) != m.Rows*m.Stripes {
		t.Fatalf("disk 3 holds %d chunks, want %d", len(addrs), m.Rows*m.Stripes)
	}
	for _, a := range addrs {
		if err := b.Delete(a); err != nil {
			t.Fatal(err)
		}
	}
	res, err := fbf.Rebuild(fbf.RebuildConfig{Backend: b, Manifest: m})
	if err != nil {
		t.Fatal(err)
	}
	if res.DataLoss || res.ChunksRebuilt != m.Rows*m.Stripes || res.ChunksVerified != res.ChunksRebuilt {
		t.Fatalf("rebuild through facade: %+v", res)
	}
	rep, err := fbf.ScanStore(b, m, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("store not clean after facade rebuild: %+v", rep)
	}
}

// TestPublicAPICrashSafety exercises the crash-safety facade: a
// journaled rebuild crashed by an injected fault plan resumes to a
// clean store, and the watch daemon drives the same repair end to end.
func TestPublicAPICrashSafety(t *testing.T) {
	m := fbf.StoreManifest{Code: "star", P: 5, Disks: 8, Rows: 4, Stripes: 2, ChunkSize: 64}
	root := t.TempDir()
	d, err := fbf.OpenDirStoreWith(filepath.Join(root, "array"), fbf.DirStoreOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := fbf.InitStore(d, m, 7); err != nil {
		t.Fatal(err)
	}
	addrs, err := d.List(3)
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range addrs {
		if err := d.Delete(a); err != nil {
			t.Fatal(err)
		}
	}

	journal := filepath.Join(root, "rebuild.journal")
	faulty := fbf.WrapFaultStore(d, fbf.FaultStorePlan{Seed: 1, CrashAfterOps: 40})
	_, err = fbf.Rebuild(fbf.RebuildConfig{Backend: faulty, Manifest: m, JournalPath: journal})
	if !errors.Is(err, fbf.ErrFaultCrashed) {
		t.Fatalf("crashed rebuild returned %v, want ErrFaultCrashed", err)
	}

	throttled, err := fbf.NewStoreThrottle(d, 1<<30)
	if err != nil {
		t.Fatal(err)
	}
	dres, err := fbf.RunDaemon(fbf.DaemonConfig{
		Service:  fbf.RebuildConfig{Backend: throttled, Manifest: m, JournalPath: journal},
		MaxScans: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if dres.DataLoss || dres.Interrupted || dres.Scans != 1 || dres.Last == nil {
		t.Fatalf("daemon through facade: %+v", dres)
	}
	rep, err := fbf.ScanStore(d, m, true)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() {
		t.Fatalf("store not clean after facade resume: %+v", rep)
	}
	if _, err := os.Stat(journal); !os.IsNotExist(err) {
		t.Fatalf("journal survives completed resume: %v", err)
	}
}

// TestPublicAPIServing exercises the serving surface through the
// facade: workload generator, a QoS-throttled serving run, and the
// frontier sweep.
func TestPublicAPIServing(t *testing.T) {
	gen, err := fbf.NewWorkload(fbf.WorkloadConfig{
		Ops: 10, Rate: 100, Stripes: 8,
		Cells: []fbf.Coord{{Row: 0, Col: 0}}, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	op, ok := gen.Next()
	if !ok || op.At != fbf.WorkloadArrivalAt(0, 100) {
		t.Fatalf("generator broken through facade: %+v ok=%v", op, ok)
	}
	if pmf := fbf.WorkloadZipfPMF(1.5, 4); len(pmf) != 4 {
		t.Fatalf("ZipfPMF broken through facade: %v", pmf)
	}
	if next := fbf.AIMDNext(100, true, fbf.QoSConfig{SLOp99Ms: 50}); next != 50 {
		t.Fatalf("AIMDNext broken through facade: %v", next)
	}

	code := fbf.MustNewCode("tip", 7)
	errs, err := fbf.GenerateTrace(code, fbf.TraceConfig{Groups: 8, Stripes: 128, Seed: 2, Disk: -1})
	if err != nil {
		t.Fatal(err)
	}
	res, err := fbf.Run(fbf.SimConfig{
		Code: code, Policy: "lru", Strategy: fbf.StrategyLooped,
		Workers: 4, CacheChunks: 32, Stripes: 128,
		Serving: &fbf.ServingConfig{
			Ops: 200, Rate: 500, ZipfS: 1.2, WriteFrac: 0.1, HotFrac: 0.3, Seed: 5,
			QoS: &fbf.QoSConfig{SLOp99Ms: 50},
		},
	}, errs)
	if err != nil {
		t.Fatal(err)
	}
	sr := res.Serving
	if sr == nil || sr.Ops() == 0 || sr.Hist.Total() != sr.Ops() {
		t.Fatalf("serving result broken through facade: %+v", sr)
	}
	if sr.Classes[fbf.ClassHealthy].Ops+sr.Classes[fbf.ClassDegraded].Ops+sr.Classes[fbf.ClassLost].Ops != sr.Ops() {
		t.Fatal("class split broken through facade")
	}

	params := fbf.DefaultExperimentParams()
	params.Codes = []string{"tip"}
	params.Primes = []int{5}
	params.Policies = []string{"lru"}
	params.CacheSizesMB = []int{1}
	params.Groups = 8
	params.Stripes = 128
	params.Workers = 4
	rows, err := fbf.ServingSweep(params, fbf.ServingSweepConfig{Rates: []float64{200}, Ops: 100})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := fbf.RenderServing(&buf, rows); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "SERVING") {
		t.Error("serving rendering broken through facade")
	}
}

// TestFacadeNamesHaveUsers keeps the facade no larger than its users:
// every exported const, var and type in fbf.go must be written as
// fbf.<Name> somewhere in README.md, the examples or this file.
// Commands that need more import the internal packages directly.
func TestFacadeNamesHaveUsers(t *testing.T) {
	file, err := parser.ParseFile(token.NewFileSet(), "fbf.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, decl := range file.Decls {
		gen, ok := decl.(*ast.GenDecl)
		if !ok {
			continue
		}
		for _, spec := range gen.Specs {
			switch spec := spec.(type) {
			case *ast.TypeSpec:
				names = append(names, spec.Name.Name)
			case *ast.ValueSpec:
				for _, n := range spec.Names {
					names = append(names, n.Name)
				}
			}
		}
	}

	users := []string{"README.md", "fbf_api_test.go"}
	err = filepath.WalkDir("examples", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			users = append(users, path)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	var text strings.Builder
	for _, path := range users {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		text.Write(b)
		text.WriteByte('\n')
	}
	all := text.String()
	for _, name := range names {
		if !ast.IsExported(name) {
			continue
		}
		if !regexp.MustCompile(`\bfbf\.` + name + `\b`).MatchString(all) {
			t.Errorf("fbf.%s has no user in README.md, examples/ or fbf_api_test.go; drop it from fbf.go", name)
		}
	}
}
