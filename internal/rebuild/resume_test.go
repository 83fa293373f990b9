package rebuild

// resume_test.go is the crash-safety property suite: enumerate every
// operation index of a journaled kill-three-disks rebuild, crash there
// with injected torn debris, and prove the resumed run converges to a
// byte-identical array — plus targeted cases for graceful stop and for
// commits that lie (tampered chunks caught by the journal CRC and the
// GF(2) oracle).

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"fbf/internal/codes"
	"fbf/internal/grid"
	"fbf/internal/store"
	"fbf/internal/store/faultstore"
	"fbf/internal/verify"
)

const resumeSeed int64 = 424242

// openResumeDir opens the on-disk store fixture (fsync off: these tests
// model crash points with faultstore, not with real power loss).
func openResumeDir(t *testing.T, root string) *store.Dir {
	t.Helper()
	d, err := store.OpenDirWith(root, store.DirOptions{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// initResumeDir materializes a clean array and kills three whole disks.
func initResumeDir(t *testing.T, root string, m store.ArrayManifest) *store.Dir {
	t.Helper()
	d := openResumeDir(t, root)
	if err := InitStore(d, m, resumeSeed); err != nil {
		t.Fatal(err)
	}
	for _, disk := range []int{0, 2, 4} {
		if err := os.RemoveAll(filepath.Join(root, store.DiskDirName(disk))); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// TestResumeFromEveryCrashPoint is the tentpole property test: for
// EVERY operation index k of a journaled triple-disk rebuild, a run
// crashed at k (with torn on-disk debris) leaves a state from which a
// plain rerun converges — no data loss, the array byte-identical to
// ground truth, and the journal cleaned up.
func TestResumeFromEveryCrashPoint(t *testing.T) {
	m := testManifest("star", 5, 2, 64)

	// Counting run: the same rebuild against a fault-free wrapper bounds
	// the crash-point sweep.
	countRoot := t.TempDir()
	d := initResumeDir(t, countRoot, m)
	counter := faultstore.Wrap(d, faultstore.Plan{})
	res, err := RunService(ServiceConfig{
		Backend: counter, Manifest: m,
		JournalPath: filepath.Join(countRoot, "rebuild.journal"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DataLoss {
		t.Fatal("triple-disk kill must be recoverable")
	}
	checkAgainstGroundTruth(t, d, m, resumeSeed)
	total := counter.Ops()
	if total < 20 {
		t.Fatalf("counting run saw only %d ops; the sweep would prove nothing", total)
	}

	step := 1
	if testing.Short() {
		step = 7
	}
	resumedCommits, resumeVerified := 0, 0
	run := func(k int) {
		root := t.TempDir()
		journal := filepath.Join(root, "rebuild.journal")
		crashing := faultstore.Wrap(initResumeDir(t, root, m), faultstore.Plan{
			Seed: int64(k), CrashAfterOps: k, TornWrites: true,
		})
		_, err := RunService(ServiceConfig{Backend: crashing, Manifest: m, JournalPath: journal})
		if !errors.Is(err, faultstore.ErrCrashed) {
			t.Fatalf("crash at op %d: run returned %v, want ErrCrashed", k, err)
		}

		// Next process: reopen the medium (sweeping crash debris) and
		// rerun with the same journal, fault-free.
		re := openResumeDir(t, root)
		res, err := RunService(ServiceConfig{Backend: re, Manifest: m, JournalPath: journal})
		if err != nil {
			t.Fatalf("resume after crash at op %d: %v", k, err)
		}
		if res.DataLoss {
			t.Fatalf("resume after crash at op %d lost data: %v", k, res.Lost)
		}
		if res.Interrupted {
			t.Fatalf("resume after crash at op %d reports Interrupted without a Stop", k)
		}
		resumedCommits += res.ResumedCommits
		resumeVerified += res.ResumeVerified
		checkAgainstGroundTruth(t, re, m, resumeSeed)
		if _, err := os.Stat(journal); !os.IsNotExist(err) {
			t.Fatalf("journal survives clean completion after crash at op %d: %v", k, err)
		}
	}
	for k := 1; k <= total; k += step {
		run(k)
	}
	if step > 1 {
		run(total)
	}
	if resumedCommits == 0 {
		t.Fatal("no crash point replayed a journaled commit; the sweep never exercised resume")
	}
	if resumeVerified == 0 {
		t.Fatal("no replayed commit was oracle-verified; the sweep never exercised resume verification")
	}
}

// TestResumeCatchesTamperedCommit pins the journal-CRC half of resume
// verification: a committed chunk replaced with different (structurally
// valid) bytes between crash and resume fails the CRC cross-check, is
// flagged corrupt, and gets re-repaired.
func TestResumeCatchesTamperedCommit(t *testing.T) {
	m := testManifest("star", 5, 2, 64)
	root := t.TempDir()
	journal := filepath.Join(root, "rebuild.journal")

	// Find a crash point that left at least one commit in an unfinished
	// stripe.
	var victim store.Addr
	found := false
	for k := 20; !found && k < 2000; k += 10 {
		crashing := faultstore.Wrap(initResumeDir(t, root, m), faultstore.Plan{CrashAfterOps: k})
		_, err := RunService(ServiceConfig{Backend: crashing, Manifest: m, JournalPath: journal})
		if err == nil {
			t.Fatalf("no crash point up to op %d left an unfinished stripe", k)
		}
		if !errors.Is(err, faultstore.ErrCrashed) {
			t.Fatal(err)
		}
		j, st, err := OpenJournal(journal)
		if err != nil {
			t.Fatal(err)
		}
		for _, stripe := range st.InFlight() {
			for a := range st.Commits {
				if a.Stripe == stripe {
					victim, found = a, true
				}
			}
		}
		j.Close()
		if !found {
			if err := os.RemoveAll(root); err != nil {
				t.Fatal(err)
			}
			if err := os.MkdirAll(root, 0o755); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !found {
		t.Fatal("never found an in-flight commit to tamper with")
	}

	// Tamper: replace the committed chunk with different valid bytes.
	re := openResumeDir(t, root)
	buf := make([]byte, m.ChunkSize)
	if _, err := re.ReadChunk(victim, buf); err != nil {
		t.Fatal(err)
	}
	buf[11] ^= 0x55
	if err := re.WriteChunk(victim, buf); err != nil {
		t.Fatal(err)
	}

	res, err := RunService(ServiceConfig{Backend: re, Manifest: m, JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.CorruptChunks == 0 {
		t.Fatal("tampered commit was not flagged corrupt on resume")
	}
	if res.DataLoss {
		t.Fatal(err)
	}
	checkAgainstGroundTruth(t, re, m, resumeSeed)
}

// TestResumeOracleCatchesLyingCommit pins the GF(2) half: a journal
// whose commit record vouches for bytes that ARE what the store holds
// (CRC matches) but are not what the code derives is caught by the
// oracle cross-check on resume — the defense the CRC alone cannot
// provide.
func TestResumeOracleCatchesLyingCommit(t *testing.T) {
	m := testManifest("star", 5, 1, 64)
	root := t.TempDir()
	d := openResumeDir(t, root)
	if err := InitStore(d, m, resumeSeed); err != nil {
		t.Fatal(err)
	}

	// Hand-write a "repair" that lies: wrong bytes in the store, and a
	// journal that committed exactly those wrong bytes.
	target := grid.Coord{Row: 0, Col: 0}
	a := AddrOf(0, target)
	wrong := make([]byte, m.ChunkSize)
	if _, err := d.ReadChunk(a, wrong); err != nil {
		t.Fatal(err)
	}
	truth := append([]byte(nil), wrong...)
	wrong[3] ^= 0x80
	if err := d.WriteChunk(a, wrong); err != nil {
		t.Fatal(err)
	}
	journal := filepath.Join(root, "rebuild.journal")
	j, _, err := OpenJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendPlan(0, []grid.Coord{target}); err != nil {
		t.Fatal(err)
	}
	if err := j.AppendCommit(a, PayloadCRC(wrong)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// The scan alone sees a clean store (the lie is structurally valid);
	// only the journal knows stripe 0 is in flight.
	res, err := RunService(ServiceConfig{Backend: d, Manifest: m, JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	if res.Report.CorruptChunks != 1 || res.ChunksRebuilt != 1 {
		t.Fatalf("lying commit: %d corrupt, %d rebuilt, want 1 and 1", res.Report.CorruptChunks, res.ChunksRebuilt)
	}
	if res.ResumeVerified != 0 {
		t.Fatalf("lying commit counted as verified (%d)", res.ResumeVerified)
	}
	got := make([]byte, m.ChunkSize)
	if _, err := d.ReadChunk(a, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, truth) {
		t.Fatal("oracle flagged the lie but the rebuilt bytes are still wrong")
	}
	checkAgainstGroundTruth(t, d, m, resumeSeed)
	if _, err := os.Stat(journal); !os.IsNotExist(err) {
		t.Fatalf("journal survives clean completion: %v", err)
	}
}

// TestResumeKeepsCRCVerdictOnDamagedSource pins the per-stripe resume
// solve when a source is damaged: of two honest commits in one stripe,
// the one whose oracle plan reads a chunk deleted since the crash keeps
// its CRC verdict (neither flagged nor counted as oracle-verified),
// while the other is still oracle-checked by a solve without it.
func TestResumeKeepsCRCVerdictOnDamagedSource(t *testing.T) {
	m := testManifest("star", 5, 1, 64)
	root := t.TempDir()
	d := openResumeDir(t, root)
	if err := InitStore(d, m, resumeSeed); err != nil {
		t.Fatal(err)
	}
	code := codes.MustNew("star", 5)
	committed := []grid.Coord{{Row: 0, Col: 0}, {Row: 0, Col: 1}}
	oracle, err := verify.NewOracle(code, committed)
	if err != nil {
		t.Fatal(err)
	}
	var victim *grid.Coord
	for _, src := range oracle.Sources(committed[0]) {
		if !slices.Contains(oracle.Sources(committed[1]), src) {
			victim = &src
			break
		}
	}
	if victim == nil {
		t.Fatalf("every source of %v also feeds %v; pick other cells", committed[0], committed[1])
	}

	journal := filepath.Join(root, "rebuild.journal")
	j, _, err := OpenJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendPlan(0, committed); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, m.ChunkSize)
	for _, c := range committed {
		if _, err := d.ReadChunk(AddrOf(0, c), buf); err != nil {
			t.Fatal(err)
		}
		if err := j.AppendCommit(AddrOf(0, c), PayloadCRC(buf)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Delete(AddrOf(0, *victim)); err != nil {
		t.Fatal(err)
	}

	res, err := RunService(ServiceConfig{Backend: d, Manifest: m, JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	if res.ResumedCommits != 2 || res.ResumeVerified != 1 {
		t.Fatalf("resume: %d commits replayed, %d verified; want 2 and 1", res.ResumedCommits, res.ResumeVerified)
	}
	if res.Report.CorruptChunks != 0 || res.ChunksRebuilt != 1 || res.DataLoss {
		t.Fatalf("resume: %d corrupt, %d rebuilt, data loss %v; want 0, 1 (the deleted source), false",
			res.Report.CorruptChunks, res.ChunksRebuilt, res.DataLoss)
	}
	checkAgainstGroundTruth(t, d, m, resumeSeed)
}

// stopAfterWrites closes a stop channel once the backend has absorbed n
// chunk writes — the hook that lands a graceful stop mid-stripe.
type stopAfterWrites struct {
	store.Backend
	n      int
	writes int
	stop   chan struct{}
}

func (s *stopAfterWrites) WriteChunk(a store.Addr, data []byte) error {
	err := s.Backend.WriteChunk(a, data)
	if err == nil {
		s.writes++
		if s.writes == s.n {
			close(s.stop)
		}
	}
	return err
}

// TestServiceGracefulStop pins the Stop contract: the chunk in flight
// is finished and committed, the journal survives with the progress so
// far, and a rerun resumes to a byte-exact array.
func TestServiceGracefulStop(t *testing.T) {
	m := testManifest("star", 5, 2, 64)
	root := t.TempDir()
	journal := filepath.Join(root, "rebuild.journal")
	d := initResumeDir(t, root, m)

	hook := &stopAfterWrites{Backend: d, n: 3, stop: make(chan struct{})}
	res, err := RunService(ServiceConfig{Backend: hook, Manifest: m, JournalPath: journal, Stop: hook.stop})
	if err != nil {
		t.Fatalf("graceful stop must not be an error: %v", err)
	}
	if !res.Interrupted {
		t.Fatal("stopped run does not report Interrupted")
	}
	if res.ChunksRebuilt != hook.n {
		t.Fatalf("stopped run rebuilt %d chunks, want exactly the %d committed before the stop", res.ChunksRebuilt, hook.n)
	}
	if res.JournalOffset <= 0 {
		t.Fatalf("stopped run reports journal offset %d", res.JournalOffset)
	}
	if _, err := os.Stat(journal); err != nil {
		t.Fatalf("journal missing after graceful stop: %v", err)
	}

	res2, err := RunService(ServiceConfig{Backend: d, Manifest: m, JournalPath: journal})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Interrupted || res2.DataLoss {
		t.Fatalf("resume after stop: interrupted=%v dataloss=%v", res2.Interrupted, res2.DataLoss)
	}
	if res2.ResumedCommits != hook.n {
		t.Fatalf("resume replayed %d commits, want %d", res2.ResumedCommits, hook.n)
	}
	checkAgainstGroundTruth(t, d, m, resumeSeed)
	if _, err := os.Stat(journal); !os.IsNotExist(err) {
		t.Fatalf("journal survives completed resume: %v", err)
	}
}

// TestServiceStopBeforeAnything pins the degenerate stop: a request
// already pending at entry repairs nothing and keeps the journal.
func TestServiceStopBeforeAnything(t *testing.T) {
	m := testManifest("star", 5, 2, 64)
	root := t.TempDir()
	d := initResumeDir(t, root, m)
	stop := make(chan struct{})
	close(stop)
	res, err := RunService(ServiceConfig{
		Backend: d, Manifest: m, Stop: stop,
		JournalPath: filepath.Join(root, "rebuild.journal"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Interrupted || res.StripesRepaired != 0 || res.ChunksRebuilt != 0 {
		t.Fatalf("pre-closed stop: interrupted=%v stripes=%d chunks=%d", res.Interrupted, res.StripesRepaired, res.ChunksRebuilt)
	}
}

// TestJournalIncompatibleWithPlanOnlyModes pins the config guard.
func TestJournalIncompatibleWithPlanOnlyModes(t *testing.T) {
	m := testManifest("star", 5, 1, 32)
	b := initMem(t, m, resumeSeed)
	for _, cfg := range []ServiceConfig{
		{Backend: b, Manifest: m, JournalPath: "x", CheckOnly: true},
		{Backend: b, Manifest: m, JournalPath: "x", DryRun: true},
	} {
		if _, err := RunService(cfg); err == nil {
			t.Fatalf("journaled plan-only mode accepted: %+v", cfg)
		}
	}
}

// TestJournalGeometryGuard pins the cross-array guard: a journal
// written for one geometry refuses to resume another.
func TestJournalGeometryGuard(t *testing.T) {
	root := t.TempDir()
	journal := filepath.Join(root, "rebuild.journal")
	j, _, err := OpenJournal(journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendScan(JournalScan{Disks: 9, Rows: 6, Stripes: 8, ChunkSize: 128}); err != nil {
		t.Fatal(err)
	}
	j.Close()

	m := testManifest("star", 5, 2, 64)
	b := initMem(t, m, resumeSeed)
	killDisk(t, b, 0)
	if _, err := RunService(ServiceConfig{Backend: b, Manifest: m, JournalPath: journal}); err == nil {
		t.Fatal("geometry-mismatched journal accepted")
	}
}
