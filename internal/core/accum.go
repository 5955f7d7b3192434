package core

import (
	"github.com/blockreorg/blockreorg/sparse"
)

// AccumPlan is a plan's resolved merge-strategy assignment: one accumulator
// kind per output row, chosen once at plan-build time from the row-wise
// intermediate populations (Limit.RowWork) the symbolic sweeps already
// produced and the row populations of A (each row's run bound). The
// functional executor dispatches each row's merge through Rows[i]; the
// gpusim merge kernel prices a pinned strategy as assigned and resolves
// auto rows by size alone (DESIGN §15). The assignment depends only on the
// operand structure and the requested kind, so rebound plans (Rebind) keep
// it, and plan-cache hits reuse the selection without re-deciding.
type AccumPlan struct {
	// Requested is the kind the caller asked for; Rows holds the per-row
	// resolution (Requested itself unless it was sparse.AccumAuto).
	Requested sparse.AccumulatorKind
	Rows      []sparse.AccumulatorKind
	// Counts tallies the assigned rows per strategy, skipping zero-work
	// rows (they merge through no strategy at all). The three fields sum
	// to the product's populated row count.
	Counts sparse.AccumCounts
	// Cols is the output dimension the selection was made against; the
	// merge cost model derives the sort strategy's radix pass count from
	// it.
	Cols int
}

// BuildAccumPlan resolves the accumulator strategy for every output row of
// the product A×B with the given per-row intermediate populations and
// column count; row i's run bound is A's row population. It is cheap — one
// SelectAccumulator call per row — and allocates only the Rows array.
func BuildAccumPlan(requested sparse.AccumulatorKind, a *sparse.CSR, rowWork []int64, cols int) *AccumPlan {
	ap := &AccumPlan{
		Requested: requested,
		Rows:      make([]sparse.AccumulatorKind, len(rowWork)),
		Cols:      cols,
	}
	for i, w := range rowWork {
		kind := sparse.SelectAccumulator(requested, w, a.RowNNZ(i), cols)
		ap.Rows[i] = kind
		if w == 0 {
			continue
		}
		switch kind {
		case sparse.AccumHash:
			ap.Counts.Hash++
		case sparse.AccumSort:
			ap.Counts.Sort++
		default:
			ap.Counts.Dense++
		}
	}
	return ap
}
