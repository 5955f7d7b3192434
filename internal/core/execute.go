package core

import (
	"fmt"
	"sync/atomic"

	"github.com/blockreorg/blockreorg/internal/parallel"
	"github.com/blockreorg/blockreorg/internal/trace"
	"github.com/blockreorg/blockreorg/sparse"
)

// ExecuteOn is Execute on an explicit executor (nil selects the
// process-wide default), with all scratch drawn from the shared arenas.
//
// The result is bit-identical to Execute, to sparse.Multiply, and to the
// engine's Gustavson fallback: every output entry sums its intermediate
// products in the canonical order — ascending k over A's row entries,
// B-row order within one k — regardless of how the plan's block structure
// reorganizes the launch. Expansion achieves this by writing each
// partition's products directly at precomputed canonical offsets inside
// their output row's segment, so neither the block launch order nor
// expansion parallelism can influence a single bit of the result. This
// canonical-order contract is what lets an out-of-core tiling (package
// ooc) slice operands into arbitrary panels and still reassemble the
// bitwise-identical product: a column slice of B drops contributions
// without reordering the survivors. The plan's stashed row populations
// give every merged row its final position up front, so chunks write
// straight into the result arrays with no stitching pass.
func (p *Plan) ExecuteOn(ex *parallel.Executor, maxIntermediate int64) (*sparse.CSR, error) {
	return p.ExecuteTraced(ex, maxIntermediate, nil)
}

// ExecuteTraced is ExecuteOn with phase-level tracing: the expansion walk,
// the row scatter and the per-row merge each record a span on rec (nil
// disables tracing at zero cost; the result is identical either way).
func (p *Plan) ExecuteTraced(ex *parallel.Executor, maxIntermediate int64, rec *trace.Recorder) (*sparse.CSR, error) {
	if maxIntermediate > 0 && p.Cls.TotalWork > maxIntermediate {
		return nil, fmt.Errorf("core: intermediate matrix has %d products, over limit %d", p.Cls.TotalWork, maxIntermediate)
	}
	if ex == nil {
		ex = parallel.Default()
	}

	// Check the launch totals before drawing any scratch: the blocks must
	// launch exactly the classified products, and the plan's intermediate
	// row populations must cover them.
	nBlocks, nParts, total := 0, 0, 0
	p.VisitBlocks(func(_ BlockKind, parts []Partition) {
		nBlocks++
		nParts += len(parts)
		for _, part := range parts {
			total += (part.ColHi - part.ColLo) * p.B.RowNNZ(part.Pair)
		}
	})
	if int64(total) != p.Cls.TotalWork {
		return nil, fmt.Errorf("core: plan launches %d products, classified %d", total, p.Cls.TotalWork)
	}
	var rowTotal int64
	for _, w := range p.Limit.RowWork {
		rowTotal += w
	}
	if rowTotal != int64(total) {
		return nil, fmt.Errorf("core: row work sums to %d products, classified %d", rowTotal, total)
	}

	// Snapshot the launch order as flat arena-backed arrays, filled by a
	// second visit: partition triples plus the per-block partition extents.
	// A per-block []Partition copy would cost one allocation per block,
	// which for real plans is thousands.
	partPair := parallel.GetInts(nParts)
	partLo := parallel.GetInts(nParts)
	partHi := parallel.GetInts(nParts)
	blockPart := parallel.GetInts(nBlocks + 1)
	weights := parallel.GetInt64s(nBlocks)
	bi, pi := 0, 0
	p.VisitBlocks(func(_ BlockKind, parts []Partition) {
		blockPart[bi] = pi
		n := 0
		for _, part := range parts {
			partPair[pi] = part.Pair
			partLo[pi] = part.ColLo
			partHi[pi] = part.ColHi
			pi++
			n += (part.ColHi - part.ColLo) * p.B.RowNNZ(part.Pair)
		}
		weights[bi] = int64(n)
		bi++
	})
	blockPart[nBlocks] = pi

	// Scatter preparation: the row segment extents (exact, from the plan's
	// intermediate row populations) plus the canonical offset of every
	// ACSC entry's product run inside its row segment. Entry (i, k) — the
	// t-th entry of A's row i — owns the run of B.RowNNZ(k) products that
	// starts after the runs of the row's earlier entries; walking A's rows
	// while advancing one fill cursor per column reproduces the CSC entry
	// order exactly, so the offsets line up with ACSC's column storage.
	rows := p.A.Rows
	endScat := rec.SpanItems(trace.PhaseScatter, int64(total))
	ptr := parallel.GetInts(rows + 1)
	ptr[0] = 0
	for i := 0; i < rows; i++ {
		ptr[i+1] = ptr[i] + int(p.Limit.RowWork[i])
	}
	nCols := p.ACSC.Cols
	cscStart := parallel.GetInts(nCols + 1)
	cscStart[0] = 0
	for k := 0; k < nCols; k++ {
		cscStart[k+1] = cscStart[k] + p.ACSC.ColNNZ(k)
	}
	canon := parallel.GetInts(cscStart[nCols])
	cursor := parallel.GetIntsZeroed(nCols)
	for i := 0; i < rows; i++ {
		idx, _ := p.A.Row(i)
		off := 0
		for _, ka := range idx {
			canon[cscStart[ka]+cursor[ka]] = off
			cursor[ka]++
			off += p.B.RowNNZ(ka)
		}
	}
	parallel.PutInts(cursor)
	endScat()

	// Expansion: every partition writes each entry's product run directly
	// at its canonical position — row segment start plus canonical offset —
	// so the scattered arrays come out in canonical merge order with no
	// separate scatter pass. Blocks are chunked by product count so the
	// split dominators at the head of the launch order do not serialize
	// the phase; chunks write disjoint positions by construction.
	scatIdx := parallel.GetInts(total)
	scatVal := parallel.GetFloats(total)
	chunks := parallel.WeightedRanges(weights, 4*ex.Workers())
	parallel.PutInt64s(weights)
	endExp := rec.SpanItems(trace.PhaseExpansion, int64(total))
	ex.ForEach(chunks, func(r parallel.Range) {
		for b := r.Lo; b < r.Hi; b++ {
			for k := blockPart[b]; k < blockPart[b+1]; k++ {
				ka := partPair[k]
				colIdx, colVal := p.ACSC.Col(ka)
				rowIdx, rowVal := p.B.Row(ka)
				base := cscStart[ka]
				for e := partLo[k]; e < partHi[k]; e++ {
					i := colIdx[e]
					av := colVal[e]
					pos := ptr[i] + canon[base+e]
					for rr := range rowIdx {
						scatIdx[pos] = rowIdx[rr]
						scatVal[pos] = av * rowVal[rr]
						pos++
					}
				}
			}
		}
	})
	endExp()
	parallel.PutInts(partPair)
	parallel.PutInts(partLo)
	parallel.PutInts(partHi)
	parallel.PutInts(blockPart)
	parallel.PutInts(cscStart)
	parallel.PutInts(canon)

	// Merge: combine each row under the plan's assigned accumulator
	// strategy and append it into its final slot, known up front from the
	// stashed symbolic row populations. Row chunks are weighted by
	// pre-merge population — the merge's true cost. Every strategy sums
	// duplicate columns in stream order (sparse.RowMerger), so the result
	// is bit-identical regardless of the assignment.
	c := sparse.NewCSRWithRowSizes(rows, p.B.Cols, p.RowNNZ)
	endMerge := rec.SpanItems(trace.PhaseMerge, p.NNZC)
	var badRow atomic.Int64
	badRow.Store(-1)
	ex.ForEach(parallel.WeightedRanges(p.Limit.RowWork, 4*ex.Workers()), func(r parallel.Range) {
		mg := sparse.NewRowMerger(p.B.Cols)
		defer mg.Release()
		for i := r.Lo; i < r.Hi; i++ {
			kind := sparse.AccumSort
			if p.Accum != nil {
				kind = p.Accum.Rows[i]
			}
			// Three-index slices cap the append at the row's slot: a row
			// that merges to an unexpected length spills into a private
			// reallocation instead of a neighbouring chunk's rows.
			dstIdx, dstVal := c.Row(i)
			outIdx, _ := mg.Merge(kind, p.A.RowNNZ(i),
				scatIdx[ptr[i]:ptr[i+1]], scatVal[ptr[i]:ptr[i+1]],
				dstIdx[0:0:len(dstIdx)], dstVal[0:0:len(dstVal)])
			if len(outIdx) != p.RowNNZ[i] {
				badRow.Store(int64(i))
				return
			}
		}
	})
	parallel.PutInts(ptr)
	parallel.PutInts(scatIdx)
	parallel.PutFloats(scatVal)
	endMerge()
	if i := badRow.Load(); i >= 0 {
		return nil, fmt.Errorf("core: row %d merged to an unexpected population, plan recorded %d", i, p.RowNNZ[i])
	}
	return c, nil
}
