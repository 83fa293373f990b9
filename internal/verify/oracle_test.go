package verify

import (
	"errors"
	"strings"
	"testing"

	"fbf/internal/chunk"
	"fbf/internal/codes"
	"fbf/internal/core"
	"fbf/internal/grid"
)

// TestOracleAgreesWithChains recovers every cell of a partial stripe
// error through its selected parity chain and cross-checks each against
// the Oracle, the incremental form of the checkPattern gf2 diff.
func TestOracleAgreesWithChains(t *testing.T) {
	code := codes.MustNew("star", 5)
	stripe := code.MaterializeStripe(11, 128)
	e := core.PartialStripeError{Stripe: 0, Disk: 2, Row: 1, Size: 3}
	lost := e.LostCells()

	oracle, err := NewOracle(code, lost)
	if err != nil {
		t.Fatal(err)
	}
	read := func(c grid.Coord, dst chunk.Chunk) error {
		copy(dst, stripe[code.CellIndex(c)])
		return nil
	}
	scheme, err := core.GenerateScheme(code, e, core.StrategyLooped)
	if err != nil {
		t.Fatal(err)
	}
	for _, sel := range scheme.Selected {
		if !oracle.Solvable(sel.Lost) {
			t.Fatalf("oracle cannot solve %v", sel.Lost)
		}
		recovered, err := code.RebuildChunk(sel.Chain, sel.Lost, stripe)
		if err != nil {
			t.Fatal(err)
		}
		if err := oracle.Check(sel.Lost, recovered, read); err != nil {
			t.Errorf("oracle rejects a correct chain recovery: %v", err)
		}
		// A single flipped byte in the recovered chunk must be caught.
		recovered[17] ^= 0x01
		if err := oracle.Check(sel.Lost, recovered, read); err == nil {
			t.Errorf("oracle accepted corrupted recovery of %v", sel.Lost)
		} else if !strings.Contains(err.Error(), "disagree") {
			t.Errorf("unexpected oracle error: %v", err)
		}
	}
}

// TestOracleBeyondTolerance pins the unsolvable-cell reporting: erase
// more columns than the code tolerates and the oracle must refuse those
// cells rather than fabricate a plan.
func TestOracleBeyondTolerance(t *testing.T) {
	code := codes.MustNew("star", 5)
	var lost []grid.Coord
	for col := 0; col < 4; col++ { // 4 whole columns > 3DFT tolerance
		for row := 0; row < code.Rows(); row++ {
			lost = append(lost, grid.Coord{Row: row, Col: col})
		}
	}
	oracle, err := NewOracle(code, lost)
	if err != nil {
		t.Fatal(err)
	}
	solvable := 0
	for _, c := range lost {
		if oracle.Solvable(c) {
			solvable++
		}
	}
	if solvable == len(lost) {
		t.Fatal("oracle claims to solve a 4-column erasure on a 3DFT code")
	}
	for _, c := range lost {
		if !oracle.Solvable(c) {
			if err := oracle.Check(c, chunk.New(16), func(grid.Coord, chunk.Chunk) error { return nil }); err == nil {
				t.Fatalf("Check succeeded on unsolvable cell %v", c)
			}
			break
		}
	}
}

// TestOracleSolveMatchesCheck solves every lost cell of whole-column
// erasures at once and pins Solve against the per-cell path: each
// derived cell passes Check and equals the original bytes, and the read
// callback sees each distinct source exactly once.
func TestOracleSolveMatchesCheck(t *testing.T) {
	for _, tc := range []struct {
		code string
		p    int
		cols []int
	}{
		{"star", 5, []int{0, 2, 4}},
		{"star", 7, []int{1, 2, 7}},
		{"tip", 5, []int{1, 3}},
		{"triplestar", 5, []int{0}},
	} {
		code := codes.MustNew(tc.code, tc.p)
		stripe := code.MaterializeStripe(3, 96)
		var lost []grid.Coord
		for _, col := range tc.cols {
			for row := 0; row < code.Rows(); row++ {
				lost = append(lost, grid.Coord{Row: row, Col: col})
			}
		}
		oracle, err := NewOracle(code, lost)
		if err != nil {
			t.Fatal(err)
		}
		reads := make(map[grid.Coord]int)
		read := func(c grid.Coord, dst chunk.Chunk) error {
			reads[c]++
			copy(dst, stripe[code.CellIndex(c)])
			return nil
		}
		out := make([]chunk.Chunk, len(lost))
		for i := range out {
			out[i] = chunk.New(96)
		}
		if err := oracle.Solve(lost, out, chunk.New(96), read); err != nil {
			t.Fatalf("%s p=%d cols %v: Solve: %v", tc.code, tc.p, tc.cols, err)
		}
		distinct := make(map[grid.Coord]bool)
		for _, cell := range lost {
			for _, src := range oracle.Sources(cell) {
				distinct[src] = true
			}
		}
		if len(reads) != len(distinct) {
			t.Errorf("%s p=%d cols %v: Solve read %d distinct sources, plans name %d", tc.code, tc.p, tc.cols, len(reads), len(distinct))
		}
		for src, n := range reads {
			if n != 1 || !distinct[src] {
				t.Errorf("%s p=%d cols %v: source %v read %d times (in a plan: %v)", tc.code, tc.p, tc.cols, src, n, distinct[src])
			}
		}
		for i, cell := range lost {
			if !out[i].Equal(stripe[code.CellIndex(cell)]) {
				t.Errorf("%s p=%d cols %v: Solve derived wrong bytes for %v", tc.code, tc.p, tc.cols, cell)
			}
			if err := oracle.Check(cell, out[i], read); err != nil {
				t.Errorf("%s p=%d cols %v: Check rejects Solve's %v: %v", tc.code, tc.p, tc.cols, cell, err)
			}
		}
	}
}

// TestOracleSolveReadError pins that a failed source read stops the
// solve with the source named and the cause wrapped.
func TestOracleSolveReadError(t *testing.T) {
	code := codes.MustNew("star", 5)
	lost := []grid.Coord{{Row: 0, Col: 0}, {Row: 1, Col: 0}}
	oracle, err := NewOracle(code, lost)
	if err != nil {
		t.Fatal(err)
	}
	bad := oracle.Sources(lost[1])[0]
	cause := errors.New("unreadable")
	out := []chunk.Chunk{chunk.New(8), chunk.New(8)}
	err = oracle.Solve(lost, out, chunk.New(8), func(c grid.Coord, dst chunk.Chunk) error {
		if c == bad {
			return cause
		}
		return nil
	})
	if !errors.Is(err, cause) || !strings.Contains(err.Error(), bad.String()) {
		t.Fatalf("Solve with %v unreadable = %v", bad, err)
	}
}
