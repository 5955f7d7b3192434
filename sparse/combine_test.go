package sparse

import (
	"testing"

	"github.com/blockreorg/blockreorg/internal/parallel"
)

// refCombineRow is the independent sort-combine oracle for CombineRow and
// every accumulator strategy: a stable sort that ignores run structure —
// 32-wide insertion-sorted blocks merged bottom-up — followed by a
// left-to-right sum of equal columns. It appends to outIdx/outVal and
// consumes idx/val, like CombineRow.
func refCombineRow(idx []int, val []float64, outIdx []int, outVal []float64) ([]int, []float64) {
	const block = 32
	n := len(idx)
	for lo := 0; lo < n; lo += block {
		insertionSortRowEntries(idx[lo:min(lo+block, n)], val[lo:min(lo+block, n)])
	}
	srcI, srcV := idx, val
	dstI, dstV := make([]int, n), make([]float64, n)
	for width := block; width < n; width *= 2 {
		for lo := 0; lo < n; lo += 2 * width {
			mid, hi := min(lo+width, n), min(lo+2*width, n)
			i, j := lo, mid
			for k := lo; k < hi; k++ {
				if i < mid && (j >= hi || srcI[i] <= srcI[j]) {
					dstI[k], dstV[k] = srcI[i], srcV[i]
					i++
				} else {
					dstI[k], dstV[k] = srcI[j], srcV[j]
					j++
				}
			}
		}
		srcI, srcV, dstI, dstV = dstI, dstV, srcI, srcV
	}
	for k := 0; k < n; {
		j, v := srcI[k], srcV[k]
		for k++; k < n && srcI[k] == j; k++ {
			v += srcV[k]
		}
		outIdx = append(outIdx, j)
		outVal = append(outVal, v)
	}
	return outIdx, outVal
}

// naturalRuns counts the maximal non-decreasing runs of a column stream —
// the run bound a Gustavson stream's A-row population stands in for.
func naturalRuns(idx []int) int {
	if len(idx) == 0 {
		return 0
	}
	runs := 1
	for k := 1; k < len(idx); k++ {
		if idx[k] < idx[k-1] {
			runs++
		}
	}
	return runs
}

// runStream concatenates `runs` sorted runs of `per` columns each drawn
// from [0, cols), with values in [-1, 1) — the shape of one Gustavson row.
func runStream(seed uint64, runs, per, cols int) ([]int, []float64) {
	rng := testRNG(seed)
	idx := make([]int, 0, runs*per)
	val := make([]float64, 0, runs*per)
	for r := 0; r < runs; r++ {
		run := make([]int, per)
		for k := range run {
			run[k] = rng.IntN(cols)
		}
		insertionSortRowEntries(run, make([]float64, per))
		for _, j := range run {
			idx = append(idx, j)
			val = append(val, rng.Float64()*2-1)
		}
	}
	return idx, val
}

// runShape is one named column stream the run merge must get right.
type runShape struct {
	name string
	idx  []int
}

// combineShapes are the run structures the run merge must get right, in a
// fixed order so fuzz seeds keep their numbering.
func combineShapes() []runShape {
	many := make([]int, 200) // many one-entry runs
	for k := range many {
		many[k] = (k * 7919) % 61
	}
	var edge []int // equal columns on every run boundary
	for r := 0; r < 9; r++ {
		edge = append(edge, r*3, r*3+1, r*3+2, r*3+2)
		edge = append(edge, r*3+2, r*3+5)
	}
	var dup []int // every column in each of five runs
	for r := 0; r < 5; r++ {
		for j := 0; j < 12; j++ {
			dup = append(dup, j*2+r%2)
		}
	}
	long := make([]int, 500) // one long run with duplicates
	for k := range long {
		long[k] = k / 3
	}
	desc := make([]int, 150) // strictly descending: every entry a run
	for k := range desc {
		desc[k] = 250 - k
	}
	return []runShape{
		{"one-entry-runs", many},
		{"equal-boundaries", edge},
		{"duplicates-across-runs", dup},
		{"one-long-run", long},
		{"descending", desc},
		{"two-runs", []int{
			1, 4, 4, 9, 12, 15, 16, 20, 21, 22, 30, 31, 33, 34, 35, 40, 41,
			0, 4, 9, 9, 10, 15, 16, 22, 23, 24, 25, 30, 31, 35, 36, 40, 50,
		}},
	}
}

// TestCombineRowMatchesOracle checks CombineRow against the run-blind
// oracle, bit for bit, on the hostile run shapes and on random Gustavson
// streams of 1 to 300 runs, and confirms it appends after existing output
// even when the previous row ends on the new row's first column.
func TestCombineRowMatchesOracle(t *testing.T) {
	check := func(label string, idx []int, val []float64) {
		t.Helper()
		wi, wv := append([]int(nil), idx...), append([]float64(nil), val...)
		wantIdx, wantVal := refCombineRow(wi, wv, []int{0}, []float64{0.5})
		ci, cv := append([]int(nil), idx...), append([]float64(nil), val...)
		gotIdx, gotVal := CombineRow(ci, cv, []int{0}, []float64{0.5})
		bitIdenticalRows(t, label, wantIdx, gotIdx, wantVal, gotVal)
	}
	rng := testRNG(3)
	for _, sh := range combineShapes() {
		val := make([]float64, len(sh.idx))
		for k := range val {
			val[k] = rng.Float64()*2 - 1
		}
		check(sh.name, sh.idx, val)
	}
	for seed, runs := range []int{1, 2, 3, 4, 5, 7, 8, 9, 16, 31, 33, 64, 65, 300} {
		for _, per := range []int{1, 3, 40} {
			idx, val := runStream(uint64(seed), runs, per, 97)
			check("random", idx, val)
		}
	}
}

// TestCombineRowScratch pins when the run merge draws arena scratch: rows
// of one or two runs never do, and a merger reuses one set of buffers for
// every later row it merges.
func TestCombineRowScratch(t *testing.T) {
	for _, runs := range []int{1, 2} {
		idx, val := runStream(9, runs, 300, 5000)
		before := parallel.ReadStats().ArenaGets
		CombineRow(idx, val, nil, nil)
		if got := parallel.ReadStats().ArenaGets - before; got != 0 {
			t.Fatalf("%d-run row drew %d arena buffers, want none", runs, got)
		}
	}
	m := NewRowMerger(5000)
	defer m.Release()
	idx, val := runStream(10, 12, 50, 5000)
	m.Merge(AccumSort, 12, idx, val, nil, nil)
	before := parallel.ReadStats().ArenaGets
	for r := 0; r < 20; r++ {
		idx, val := runStream(uint64(r), 3+r%9, 40, 5000)
		m.Merge(AccumSort, naturalRuns(idx), idx, val, nil, nil)
	}
	if got := parallel.ReadStats().ArenaGets - before; got != 0 {
		t.Fatalf("a warm merger drew %d arena buffers for smaller rows, want none", got)
	}
}
