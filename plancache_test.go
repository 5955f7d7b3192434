package blockreorg

import (
	"context"
	"errors"
	"sync"
	"testing"

	"github.com/blockreorg/blockreorg/sparse"
	"github.com/blockreorg/blockreorg/sparse/rmat"
)

// cacheMatrix builds a small power-law network; distinct seeds give
// distinct structures.
func cacheMatrix(t *testing.T, n, nnz int, seed uint64) *sparse.CSR {
	t.Helper()
	m, err := rmat.PowerLaw(n, nnz, 2.1, seed)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// squareThrough squares m through c and checks the product bit for bit
// against the sequential oracle, returning the result.
func squareThrough(t *testing.T, c *PlanCache, m *sparse.CSR, opts Options) *Result {
	t.Helper()
	fp := m.StructureFingerprint()
	res, err := c.Multiply(context.Background(), m, m, fp, fp, opts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := sparse.Multiply(m, m)
	if err != nil {
		t.Fatal(err)
	}
	if !res.C.Equal(want, 0) {
		t.Fatal("product through the plan cache is not bit-identical to sparse.Multiply")
	}
	return res
}

func TestPlanCacheLRU(t *testing.T) {
	m1 := cacheMatrix(t, 60, 300, 1)
	m2 := cacheMatrix(t, 60, 300, 2)
	m3 := cacheMatrix(t, 60, 300, 3)
	c := NewPlanCache(2)

	steps := []struct {
		m   *sparse.CSR
		hit bool
	}{
		{m1, false},
		{m2, false},
		{m1, true},  // m1 is now most recent
		{m3, false}, // evicts m2, the least recently used
		{m1, true},
		{m2, false}, // m2 was evicted; evicts m3
		{m1, true},
	}
	for i, s := range steps {
		if res := squareThrough(t, c, s.m, Options{}); res.PlanReused != s.hit {
			t.Fatalf("step %d: PlanReused %v, want %v", i, res.PlanReused, s.hit)
		}
	}
	st := c.Stats()
	if st.Hits != 3 || st.Misses != 4 || st.Evictions != 2 || st.Size != 2 || st.Capacity != 2 {
		t.Fatalf("stats %+v, want 3 hits, 4 misses, 2 evictions, size 2 of 2", st)
	}

	// Re-putting a key replaces its plan rather than duplicating it, and a
	// nil plan is never admitted.
	k := planKey{fpA: 1, fpB: 2}
	p, err := NewPlan(m1, m1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c.put(k, p)
	c.put(k, p)
	if c.Len() != 2 {
		t.Fatalf("re-put grew the cache to %d", c.Len())
	}
	c.put(planKey{fpA: 9}, nil)
	if c.get(planKey{fpA: 9}) != nil {
		t.Fatal("nil plan was cached")
	}
}

func TestPlanCacheMinimumCapacity(t *testing.T) {
	if got := NewPlanCache(0).Stats().Capacity; got != 1 {
		t.Fatalf("capacity %d, want clamp to 1", got)
	}
}

// TestPlanCacheConcurrent runs multiplies from many goroutines through one
// cache over more structures than it holds, so lookups, inserts and
// evictions interleave; ci.sh runs it under -race.
func TestPlanCacheConcurrent(t *testing.T) {
	const structures, goroutines, rounds = 4, 6, 6
	ms := make([]*sparse.CSR, structures)
	want := make([]*sparse.CSR, structures)
	for i := range ms {
		ms[i] = cacheMatrix(t, 50, 250, uint64(10+i))
		var err error
		if want[i], err = sparse.Multiply(ms[i], ms[i]); err != nil {
			t.Fatal(err)
		}
	}
	c := NewPlanCache(2)
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % structures
				fp := ms[i].StructureFingerprint()
				res, err := c.Multiply(context.Background(), ms[i], ms[i], fp, fp, Options{Workers: 1})
				if err != nil {
					errs <- err
					return
				}
				if !res.C.Equal(want[i], 0) {
					errs <- errors.New("concurrent cached multiply diverged from sparse.Multiply")
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Hits+st.Misses != goroutines*rounds {
		t.Fatalf("lost lookups: hits %d + misses %d != %d", st.Hits, st.Misses, goroutines*rounds)
	}
	if st.Size > 2 {
		t.Fatalf("cache grew past capacity: %d", st.Size)
	}
}

// TestPlanCacheKeyIsolation checks that every plan-shaping option gets its
// own entry while the options that only change how a plan runs share one.
func TestPlanCacheKeyIsolation(t *testing.T) {
	m := cacheMatrix(t, 80, 500, 5)
	c := NewPlanCache(64)
	squareThrough(t, c, m, Options{})

	shaping := map[string]Options{
		"GPU":           {GPU: TeslaV100},
		"Alpha":         {Alpha: 5},
		"AutoTune":      {AutoTune: true},
		"Beta":          {Beta: 5},
		"SplitFactor":   {SplitFactor: 4},
		"LimitFactor":   {LimitFactor: 2},
		"Accumulator":   {Accumulator: "hash"},
		"DisableSplit":  {DisableSplit: true},
		"DisableGather": {DisableGather: true},
		"DisableLimit":  {DisableLimit: true},
	}
	for name, opts := range shaping {
		before := c.Len()
		if squareThrough(t, c, m, opts).PlanReused {
			t.Fatalf("%s: reused the plan of different settings", name)
		}
		if c.Len() != before+1 {
			t.Fatalf("%s: cache size %d, want a new entry (%d)", name, c.Len(), before+1)
		}
		if !squareThrough(t, c, m, opts).PlanReused {
			t.Fatalf("%s: its own entry was not reused", name)
		}
	}

	sharing := map[string]Options{
		"Workers":          {Workers: 2},
		"Paranoid":         {Paranoid: true},
		"Trace":            {Trace: NewTrace()},
		"Accumulator=auto": {Accumulator: "auto"},
		"Alpha=default":    {Alpha: 10},
		"Algorithm=BR":     {Algorithm: BlockReorganizer, GPU: TitanXp},
	}
	for name, opts := range sharing {
		before := c.Len()
		if !squareThrough(t, c, m, opts).PlanReused {
			t.Fatalf("%s: did not share the default entry", name)
		}
		if c.Len() != before {
			t.Fatalf("%s: grew the cache to %d", name, c.Len())
		}
	}
}

// TestPlanCachePassThrough checks that other algorithms, caller-supplied
// plans and rejected requests neither look up nor change a counter.
func TestPlanCachePassThrough(t *testing.T) {
	m := cacheMatrix(t, 60, 300, 6)
	c := NewPlanCache(4)
	plan, err := NewPlan(m, m, Options{})
	if err != nil {
		t.Fatal(err)
	}
	squareThrough(t, c, m, Options{Algorithm: RowProduct})
	if res := squareThrough(t, c, m, Options{Plan: plan}); !res.PlanReused {
		t.Fatal("a caller-supplied plan did not drive the run")
	}
	fp := m.StructureFingerprint()
	if _, err := c.Multiply(context.Background(), m, m, fp, fp, Options{Accumulator: "bogus"}); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("bogus accumulator: %v", err)
	}
	if _, err := c.Multiply(context.Background(), m, m, fp, fp, Options{GPU: "no such GPU"}); !errors.Is(err, ErrInvalidOptions) {
		t.Fatalf("unknown GPU: %v", err)
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 || st.Size != 0 {
		t.Fatalf("pass-through touched the cache: %+v", st)
	}

	// A nil cache caches nothing and still multiplies.
	var none *PlanCache
	if res := squareThrough(t, none, m, Options{}); res.PlanReused {
		t.Fatal("nil cache reused a plan")
	}
}

// TestPlanCacheRebindFailure plants a plan whose operands cannot be rebound
// under another structure's key, as a fingerprint collision would: the
// cache must count a miss, run cold, and replace the entry.
func TestPlanCacheRebindFailure(t *testing.T) {
	x := cacheMatrix(t, 40, 200, 7)
	y := cacheMatrix(t, 50, 300, 8)
	fpY := y.StructureFingerprint()
	c := NewPlanCache(4)
	if _, err := c.Multiply(context.Background(), x, x, fpY, fpY, Options{}); err != nil {
		t.Fatal(err)
	}
	if res := squareThrough(t, c, y, Options{}); res.PlanReused {
		t.Fatal("a plan that failed Rebind drove the run")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 2 || st.Size != 1 {
		t.Fatalf("after the failed rebind: %+v, want 2 misses and one entry", st)
	}
	if res := squareThrough(t, c, y, Options{}); !res.PlanReused {
		t.Fatal("the entry was not replaced by the cold run's plan")
	}
}
