package verify

import (
	"fmt"

	"fbf/internal/chunk"
	"fbf/internal/codes"
	"fbf/internal/grid"
)

// Oracle is the independent GF(2) recovery cross-check, packaged for
// callers that repair real bytes incrementally rather than holding a
// whole stripe in memory (the storage engine's rebuild.Service). It
// wraps the same decoder plan checkPattern diffs schemes against: every
// solvable lost cell expressed as a XOR of surviving cells, derived by
// Gaussian elimination — a code path disjoint from parity-chain
// selection, so a scheme bug and a decoder bug would have to agree to
// escape.
type Oracle struct {
	code    *codes.Code
	plan    map[grid.Coord][]grid.Coord
	lostSet map[grid.Coord]bool
}

// NewOracle builds the decoder plan for one stripe's lost-cell set.
// Cells beyond the code's tolerance are simply absent from the plan
// (Solvable reports them); an out-of-bounds cell is an error.
func NewOracle(code *codes.Code, lost []grid.Coord) (*Oracle, error) {
	plan, _, err := code.PartialRecoveryPlan(lost)
	if err != nil {
		return nil, err
	}
	lostSet := make(map[grid.Coord]bool, len(lost))
	for _, c := range lost {
		lostSet[c] = true
	}
	return &Oracle{code: code, plan: plan, lostSet: lostSet}, nil
}

// Solvable reports whether the decoder can re-derive the cell at all.
func (o *Oracle) Solvable(cell grid.Coord) bool {
	_, ok := o.plan[cell]
	return ok
}

// Sources returns the surviving cells whose XOR re-derives cell, or nil
// when the decoder cannot solve it.
func (o *Oracle) Sources(cell grid.Coord) []grid.Coord { return o.plan[cell] }

// Solve re-derives every cell through the decoder plan into out
// (out[i] receives cells[i]). Each distinct source cell is read once,
// via read into buf, and XORed into every output whose plan names it,
// so verifying a whole stripe costs one read per surviving source
// rather than one per (cell, source) pair. The read callback must
// return surviving (or already-repaired) bytes; the oracle never asks
// for a cell in the lost set. buf and every out chunk must be the same
// size. On error the contents of out are unspecified.
func (o *Oracle) Solve(cells []grid.Coord, out []chunk.Chunk, buf chunk.Chunk, read func(grid.Coord, chunk.Chunk) error) error {
	if len(out) != len(cells) {
		return fmt.Errorf("verify: oracle solve of %d cells into %d buffers", len(cells), len(out))
	}
	// uses maps each distinct source to the outputs that fold it in;
	// order keeps the reads in first-use order, so runs are repeatable.
	var order []grid.Coord
	uses := make(map[grid.Coord][]int)
	for i, cell := range cells {
		sources, ok := o.plan[cell]
		if !ok {
			return fmt.Errorf("verify: oracle cannot solve %v", cell)
		}
		for _, src := range sources {
			if o.lostSet[src] {
				return fmt.Errorf("verify: oracle plan for %v reads lost cell %v", cell, src)
			}
			if _, seen := uses[src]; !seen {
				order = append(order, src)
			}
			uses[src] = append(uses[src], i)
		}
	}
	touched := make([]bool, len(out))
	for _, src := range order {
		if err := read(src, buf); err != nil {
			return fmt.Errorf("verify: oracle read %v: %w", src, err)
		}
		for _, i := range uses[src] {
			if touched[i] {
				chunk.XORInto(out[i], buf)
			} else {
				copy(out[i], buf)
				touched[i] = true
			}
		}
	}
	for i, t := range touched {
		if !t {
			clear(out[i])
		}
	}
	return nil
}

// Agree diffs the bytes a caller recovered for cell through its parity
// chain against the bytes Solve derived for it. A mismatch means chain
// recovery and the GF(2) decoder disagree: corruption in flight, a bad
// chain, or a decoder bug.
func Agree(cell grid.Coord, derived, recovered chunk.Chunk) error {
	if !derived.Equal(recovered) {
		return fmt.Errorf("verify: chain recovery and gf2 oracle disagree on %v (first diff at offset %d)",
			cell, firstDiff(derived, recovered))
	}
	return nil
}

// Check is Solve on one cell followed by Agree: it re-derives cell —
// reading each source cell's bytes via read — and diffs the result
// against the recovered bytes.
func (o *Oracle) Check(cell grid.Coord, recovered chunk.Chunk, read func(grid.Coord, chunk.Chunk) error) error {
	derived := chunk.New(len(recovered))
	if err := o.Solve([]grid.Coord{cell}, []chunk.Chunk{derived}, chunk.New(len(recovered)), read); err != nil {
		return err
	}
	return Agree(cell, derived, recovered)
}
