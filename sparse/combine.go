package sparse

import "github.com/blockreorg/blockreorg/internal/parallel"

// CombineRow sorts one row's (idx, val) entry pairs by column index,
// merges duplicate columns by addition, and appends the combined entries
// to outIdx/outVal, returning the extended slices. idx and val are
// consumed: their contents are unspecified afterwards.
//
// It is the single merge primitive behind SortRows (and therefore every
// COO→CSR conversion), the plan executor's sort-class rows, and the sort
// accumulator strategy; the hash strategy orders its unique keys through
// it too. The sort is stable, so duplicate columns are summed in their
// original stream order — the same addition order as the dense and hash
// accumulators, which is what makes every merge path agree to the last
// bit.
//
// Rows of at most SortRowMax entries are insertion-sorted. Longer rows are
// merged along their natural ascending runs: a Gustavson row arrives as one
// column-sorted run per entry of A's row (each a scaled CSR row of B), so
// a row of r runs costs at most about log2(r) linear passes instead of a
// full sort, a row of one or two runs costs one, and rows of one or two
// runs need no scratch.
func CombineRow(idx []int, val []float64, outIdx []int, outVal []float64) ([]int, []float64) {
	var rs runScratch
	outIdx, outVal = rs.combine(idx, val, outIdx, outVal)
	rs.release()
	return outIdx, outVal
}

// runScratch holds the column and value buffers a merge of three or more
// runs moves entries through. They are drawn from the arenas on first need
// and kept until release, so a RowMerger reuses one pair for every row it
// merges; rows of one or two runs draw nothing.
type runScratch struct {
	idx []int
	val []float64
}

// ensure guarantees room for an n-entry row.
func (rs *runScratch) ensure(n int) {
	if cap(rs.idx) < n {
		parallel.PutInts(rs.idx)
		parallel.PutFloats(rs.val)
		rs.idx = parallel.GetInts(n)
		rs.val = parallel.GetFloats(n)
	}
}

// release returns the buffers to the arenas.
func (rs *runScratch) release() {
	if rs.idx != nil {
		parallel.PutInts(rs.idx)
		parallel.PutFloats(rs.val)
	}
	*rs = runScratch{}
}

// pendingRun is a merged run waiting on the merge stack: its start, the
// buffer holding it (0 the row's own, 1 the scratch), and the power of
// the boundary after it.
type pendingRun struct {
	lo, power int
	buf       int
}

// combine is CombineRow drawing its merge scratch from rs.
//
// A row of three or more runs first has its short runs extended by
// insertion (extendRun). The runs are then merged in powersort order
// (Munro and Wild, ESA 2018): each boundary between adjacent runs gets a
// power from the runs' midpoints, and a stack merges across the
// higher-power boundaries first. That keeps the merge tree balanced by
// entry count rather than by run count, so the long run of a hub row of B
// is moved about once instead of once per pass. Every merge is stable —
// the left run wins on equal columns — and summing waits for the final
// merge: adding inside an earlier one would group a column's products
// differently from the stream order.
func (rs *runScratch) combine(idx []int, val []float64, outIdx []int, outVal []float64) ([]int, []float64) {
	n := len(idx)
	if n <= SortRowMax {
		insertionSortRowEntries(idx, val)
		return appendCombined(idx, val, outIdx, outVal)
	}
	end1 := runEnd(idx, 0)
	if end1 == n {
		return appendCombined(idx, val, outIdx, outVal)
	}
	end2 := runEnd(idx, end1)
	if end2 == n {
		return mergeCombined(idx[:end1], val[:end1], idx[end1:], val[end1:], outIdx, outVal)
	}

	rs.ensure(n)
	end1 = extendRun(idx, val, 0, end1)
	end2 = extendRun(idx, val, end1, runEnd(idx, end1))
	bufI := [2][]int{idx, rs.idx[:n]}
	bufV := [2][]float64{val, rs.val[:n]}
	// merge joins the adjacent runs [lo, mid) in buffer a and [mid, hi)
	// in buffer b and returns the buffer now holding [lo, hi).
	merge := func(lo, a, mid, b, hi int) int {
		dst := b
		if a == b {
			dst = 1 - b
		}
		mergeRunPair(bufI[a][lo:mid], bufV[a][lo:mid], bufI[b][mid:hi], bufV[b][mid:hi],
			bufI[dst][lo:hi], bufV[dst][lo:hi], dst == b)
		return dst
	}
	// The stack's powers strictly increase upwards and never exceed
	// bits.Len(2n)+1, so 66 entries always suffice.
	var stack [66]pendingRun
	sp := 0
	prevLo, prevBuf := 0, 0
	lo, hi := end1, end2
	for {
		p := runPower(prevLo, lo-prevLo, hi-lo, n)
		for sp > 0 && stack[sp-1].power > p {
			sp--
			prevBuf = merge(stack[sp].lo, stack[sp].buf, prevLo, prevBuf, lo)
			prevLo = stack[sp].lo
		}
		stack[sp] = pendingRun{lo: prevLo, power: p, buf: prevBuf}
		sp++
		prevLo, prevBuf = lo, 0
		if hi == n {
			break
		}
		lo, hi = hi, extendRun(idx, val, hi, runEnd(idx, hi))
	}
	for sp > 1 {
		sp--
		prevBuf = merge(stack[sp].lo, stack[sp].buf, prevLo, prevBuf, n)
		prevLo = stack[sp].lo
	}
	a := stack[0].buf
	return mergeCombined(bufI[a][:prevLo], bufV[a][:prevLo], bufI[prevBuf][prevLo:], bufV[prevBuf][prevLo:],
		outIdx, outVal)
}

// runEnd returns the end of the non-decreasing run starting at lo. A run
// ends at a descent only, so equal neighbours stay in one run in stream
// order.
func runEnd(idx []int, lo int) int {
	for k := lo + 1; k < len(idx); k++ {
		if idx[k] < idx[k-1] {
			return k
		}
	}
	return len(idx)
}

// extendRun lengthens the sorted run [lo, end) to SortRowMax entries (or
// to the end of the row) by insertion, and returns its new end. Runs of a
// row in arbitrary order — a COO row before SortRows — are a couple of
// entries long, and merging them one level at a time would cost more
// than insertion-sorting short blocks; runs already that long are kept.
// Insertion moves an entry only past strictly greater columns, so the
// extended run keeps equal columns in stream order.
func extendRun(idx []int, val []float64, lo, end int) int {
	if end-lo >= SortRowMax || end == len(idx) {
		return end
	}
	hi := min(lo+SortRowMax, len(idx))
	insertionSortRowEntries(idx[lo:hi], val[lo:hi])
	return hi
}

// runPower is powersort's boundary power for adjacent runs [s1, s1+n1)
// and [s1+n1, s1+n1+n2) of an n-entry row: the first binary digit at
// which the runs' midpoints, as fractions of n, differ.
func runPower(s1, n1, n2, n int) int {
	a := 2*s1 + n1
	b := a + n1 + n2
	d := 2 * n
	for l := 1; ; l++ {
		a <<= 1
		b <<= 1
		switch {
		case a >= d:
			a -= d
			b -= d
		case b >= d:
			return l
		}
	}
}

// insertionSortRowEntries is the stable sort for rows of at most
// SortRowMax entries.
func insertionSortRowEntries(idx []int, val []float64) {
	for i := 1; i < len(idx); i++ {
		ci, cv := idx[i], val[i]
		j := i - 1
		for j >= 0 && idx[j] > ci {
			idx[j+1], val[j+1] = idx[j], val[j]
			j--
		}
		idx[j+1], val[j+1] = ci, cv
	}
}

// appendCombined appends one sorted run with duplicate columns summed.
func appendCombined(idx []int, val []float64, outIdx []int, outVal []float64) ([]int, []float64) {
	for k := 0; k < len(idx); {
		j := idx[k]
		v := val[k]
		k++
		for k < len(idx) && idx[k] == j {
			v += val[k]
			k++
		}
		outIdx = append(outIdx, j)
		outVal = append(outVal, v)
	}
	return outIdx, outVal
}

// mergeRunPair stably merges the sorted runs l and r into dst (len(l) +
// len(r) entries), taking from l on equal columns. inPlace reports that r
// is the tail of dst itself: the write position then stays behind r's
// read position, and r's remainder is already in place once l runs out.
func mergeRunPair(lIdx []int, lVal []float64, rIdx []int, rVal []float64,
	dstIdx []int, dstVal []float64, inPlace bool) {
	i, j, k := 0, 0, 0
	for i < len(lIdx) && j < len(rIdx) {
		if lIdx[i] <= rIdx[j] {
			dstIdx[k], dstVal[k] = lIdx[i], lVal[i]
			i++
		} else {
			dstIdx[k], dstVal[k] = rIdx[j], rVal[j]
			j++
		}
		k++
	}
	copy(dstVal[k:], lVal[i:])
	k += copy(dstIdx[k:], lIdx[i:])
	if !inPlace {
		copy(dstIdx[k:], rIdx[j:])
		copy(dstVal[k:], rVal[j:])
	}
}

// mergeCombined stably merges the sorted runs l and r — the left run wins
// on equal columns — summing duplicate columns as it appends to
// outIdx/outVal. Each column's sum therefore adds its entries in stream
// order.
func mergeCombined(lIdx []int, lVal []float64, rIdx []int, rVal []float64,
	outIdx []int, outVal []float64) ([]int, []float64) {
	i, j := 0, 0
	// last is the column of the entry appended most recently; it starts
	// below the smaller head so the first entry always opens a column.
	last := lIdx[0]
	if rIdx[0] < last {
		last = rIdx[0]
	}
	last--
	for i < len(lIdx) && j < len(rIdx) {
		var c int
		var v float64
		if lIdx[i] <= rIdx[j] {
			c, v = lIdx[i], lVal[i]
			i++
		} else {
			c, v = rIdx[j], rVal[j]
			j++
		}
		if c == last {
			outVal[len(outVal)-1] += v
			continue
		}
		outIdx = append(outIdx, c)
		outVal = append(outVal, v)
		last = c
	}
	if i == len(lIdx) {
		lIdx, lVal, i = rIdx, rVal, j
	}
	// The rest of one run; its head may still continue the last column.
	for ; i < len(lIdx) && lIdx[i] == last; i++ {
		outVal[len(outVal)-1] += lVal[i]
	}
	return appendCombined(lIdx[i:], lVal[i:], outIdx, outVal)
}
