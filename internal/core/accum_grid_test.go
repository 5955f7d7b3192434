package core

import (
	"math"
	"testing"

	"github.com/blockreorg/blockreorg/internal/datasets"
	"github.com/blockreorg/blockreorg/internal/parallel"
	"github.com/blockreorg/blockreorg/sparse"
)

// accumKinds is every requestable strategy, the per-row selector included.
var accumKinds = []sparse.AccumulatorKind{
	sparse.AccumAuto, sparse.AccumDense, sparse.AccumHash, sparse.AccumSort,
}

// TestAccumGridBitIdentical sweeps the Table II grid (downscaled) and
// requires every accumulator strategy, in both engines, to reproduce the
// sequential sparse.Multiply exactly — tolerance zero. The Gustavson engine
// is MultiplyConfigured; the plan executor (ExecuteOn) writes every row's
// products in the canonical order — ascending k over A's row, B-row order
// within one k — which is the row loop's order, so it owes the same bits.
// The executor is also checked against the sequential sort-merge Execute.
// All strategies accumulate each column's products in stream order. The
// grid spans regular meshes and hub-skewed networks, so the hash tables,
// the run-merging sort-combine and the per-row selector all see both
// families.
func TestAccumGridBitIdentical(t *testing.T) {
	const scale = 100
	ex := parallel.NewExecutor(6)
	for _, spec := range datasets.RealWorld() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			m, err := spec.Generate(scale)
			if err != nil {
				t.Fatal(err)
			}
			want, err := sparse.Multiply(m, m)
			if err != nil {
				t.Fatal(err)
			}
			legacy, err := BuildPlan(m, m, Params{Accumulator: sparse.AccumSort})
			if err != nil {
				t.Fatal(err)
			}
			planWant, err := legacy.Execute(0)
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range accumKinds {
				got, err := sparse.MultiplyConfigured(m, m, ex, nil,
					sparse.MulConfig{Accum: kind})
				if err != nil {
					t.Fatalf("%v: %v", kind, err)
				}
				if !got.Equal(want, 0) {
					t.Fatalf("MultiplyConfigured(%v) not bit-identical to Multiply", kind)
				}

				plan, err := BuildPlan(m, m, Params{Accumulator: kind})
				if err != nil {
					t.Fatalf("%v: %v", kind, err)
				}
				par, err := plan.ExecuteOn(ex, 0)
				if err != nil {
					t.Fatalf("%v: %v", kind, err)
				}
				if err := par.Validate(); err != nil {
					t.Fatalf("%v: %v", kind, err)
				}
				if !par.Equal(want, 0) {
					t.Fatalf("ExecuteOn(%v) not bit-identical to Multiply", kind)
				}
				if !par.Equal(planWant, 0) {
					t.Fatalf("ExecuteOn(%v) not bit-identical to the sort-merge Execute", kind)
				}
			}
		})
	}
}

// TestAccumPlanCountsAndSelection checks the plan's per-row assignment: a
// pinned strategy assigns every working row to it, auto matches
// SelectAccumulator row by row — each row's run bound is its A-row
// population — and the counts tally exactly the non-empty rows. On the
// skewed network auto must send some long rows of few runs to the run
// merge.
func TestAccumPlanCountsAndSelection(t *testing.T) {
	spec, err := datasets.ByName("youtube")
	if err != nil {
		t.Fatal(err)
	}
	m, err := spec.Generate(200)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range accumKinds {
		plan, err := BuildPlan(m, m, Params{Accumulator: kind})
		if err != nil {
			t.Fatal(err)
		}
		ap := plan.Accum
		if ap == nil {
			t.Fatalf("%v: plan has no accumulator assignment", kind)
		}
		if len(ap.Rows) != m.Rows {
			t.Fatalf("%v: %d row assignments, want %d", kind, len(ap.Rows), m.Rows)
		}
		var counts sparse.AccumCounts
		longFewRuns := 0
		for i, got := range ap.Rows {
			work, runs := plan.Limit.RowWork[i], m.RowNNZ(i)
			want := sparse.SelectAccumulator(kind, work, runs, ap.Cols)
			if got != want {
				t.Fatalf("%v: row %d assigned %v, want %v (work %d, runs %d)",
					kind, i, got, want, work, runs)
			}
			if work == 0 {
				continue
			}
			if work > sparse.SortRowMax && runs <= sparse.SortRunMax && got == sparse.AccumSort {
				longFewRuns++
			}
			switch got {
			case sparse.AccumDense:
				counts.Dense++
			case sparse.AccumHash:
				counts.Hash++
			case sparse.AccumSort:
				counts.Sort++
			}
		}
		if ap.Counts != counts {
			t.Fatalf("%v: plan counts %+v, want %+v", kind, ap.Counts, counts)
		}
		if kind == sparse.AccumAuto && (counts.Sort == 0 || counts.Dense+counts.Hash == 0) {
			t.Fatalf("auto on a skewed network selected only one class: %+v", counts)
		}
		if kind == sparse.AccumAuto && longFewRuns == 0 {
			t.Fatal("auto sent no long row of few runs to the run merge")
		}
	}
}

// TestAccumPlanBandedKeepsClass pins the selector's other side: on a banded
// FEM mesh most rows have more than SortRunMax runs, and auto assigns each
// of them the class its size alone gives it — none is re-classed to the
// run merge.
func TestAccumPlanBandedKeepsClass(t *testing.T) {
	spec, err := datasets.ByName("harbor")
	if err != nil {
		t.Fatal(err)
	}
	m, err := spec.Generate(32)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := BuildPlan(m, m, Params{})
	if err != nil {
		t.Fatal(err)
	}
	manyRuns := 0
	for i, got := range plan.Accum.Rows {
		work, runs := plan.Limit.RowWork[i], m.RowNNZ(i)
		if runs <= sparse.SortRunMax {
			continue
		}
		manyRuns++
		// The size-only rule: the selector with no run bound at all.
		want := sparse.SelectAccumulator(sparse.AccumAuto, work, math.MaxInt, plan.Accum.Cols)
		if got != want {
			t.Fatalf("row %d (work %d, runs %d) assigned %v, want %v", i, work, runs, got, want)
		}
	}
	if manyRuns < m.Rows/2 {
		t.Fatalf("only %d of %d harbor rows have more than SortRunMax runs", manyRuns, m.Rows)
	}
}
