package main

import (
	"testing"
	"time"

	"fbf/internal/store"
)

// smallEngine is an engine workload shrunk to a few stripes so a test
// runs it in well under a second.
func smallEngine(t *testing.T, spec engineSpec, stripes int) *engine {
	t.Helper()
	spec.stripes = stripes
	e, err := newEngine("test", spec, 7, t.TempDir(), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.setup(); err != nil {
		t.Fatal(err)
	}
	return e
}

func failedFrac(t *testing.T, e *engine) float64 {
	t.Helper()
	run, err := e.measure(0.01, false)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range run.endToEnd() {
		if m.name == "failed_frac" {
			return m.value
		}
	}
	t.Fatal("no failed_frac metric")
	return 0
}

func TestCleanRepairsPassTheChecks(t *testing.T) {
	lse := lseSpec
	lse.groupsPerSize = 1
	for name, spec := range map[string]engineSpec{"disk3": disk3Spec, "lse-scrub": lse} {
		t.Run(name, func(t *testing.T) {
			e := smallEngine(t, spec, 12)
			if f := failedFrac(t, e); f != 0 {
				t.Errorf("failed_frac = %v on an untampered run, want 0", f)
			}
			if len(e.problems) > 0 {
				t.Errorf("checks failed on an untampered run: %v", e.problems)
			}
		})
	}
}

// TestFlippedByteFails proves the output check fires: one byte flipped
// in a repaired chunk, rewritten with a valid header and CRC so only the
// ground-truth comparison can notice, must count as a failed operation.
func TestFlippedByteFails(t *testing.T) {
	e := smallEngine(t, disk3Spec, 2)
	e.tamper = func(b store.Backend, lost []store.Addr) error {
		buf := make([]byte, e.m.ChunkSize)
		n, err := b.ReadChunk(lost[0], buf)
		if err != nil {
			return err
		}
		buf[n/2] ^= 0x01
		return b.WriteChunk(lost[0], buf[:n])
	}
	if f := failedFrac(t, e); f <= 0 {
		t.Fatalf("failed_frac = %v with a flipped byte in a repaired chunk, want > 0", f)
	}
}
