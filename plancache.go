package blockreorg

import (
	"container/list"
	"context"
	"math"
	"sync"

	"github.com/blockreorg/blockreorg/internal/core"
	"github.com/blockreorg/blockreorg/sparse"
)

// PlanCache is a structure-keyed LRU of reusable Block Reorganizer plans:
// the one mechanism behind plan reuse in the serving layer, the pipeline
// runner and the out-of-core engine. A plan depends only on the operands'
// sparsity structure and the settings that shape the preprocessing, so the
// key is the two structure fingerprints plus the device and the normalized
// tuning — never the values, so refreshing a network's weights keeps its
// plans hot.
//
// A PlanCache is safe for concurrent use. Cached plans are immutable; a hit
// is rebound to each caller's own operands. A nil *PlanCache is valid and
// caches nothing: its Multiply is MultiplyContext.
type PlanCache struct {
	mu        sync.Mutex
	capacity  int
	order     *list.List // front = most recently used
	items     map[planKey]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
}

// planKey identifies a reusable plan: both operand structures plus every
// setting that shapes the plan. Workers, Paranoid and Trace change how a
// plan runs, not what it is, so they are not part of it.
type planKey struct {
	fpA, fpB uint64
	gpu      GPU
	params   core.Params
}

// cacheSlot is the list payload: the key is carried for eviction.
type cacheSlot struct {
	key  planKey
	plan *Plan
}

// PlanCacheStats is a point-in-time snapshot of a PlanCache's counters.
type PlanCacheStats struct {
	Hits, Misses, Evictions uint64
	Size, Capacity          int
}

// NewPlanCache returns an empty cache holding at most capacity plans
// (minimum 1).
func NewPlanCache(capacity int) *PlanCache {
	if capacity < 1 {
		capacity = 1
	}
	return &PlanCache{
		capacity: capacity,
		order:    list.New(),
		items:    make(map[planKey]*list.Element),
	}
}

// Multiply is MultiplyContext through the cache. fpA and fpB are the
// operands' StructureFingerprint digests, which callers already hold. A
// cached plan under the same key is rebound to (a, b) and drives the run,
// counting a hit; otherwise — including when Rebind rejects the cached plan
// after a fingerprint collision — the run is cold, counts a miss, and its
// plan replaces the entry. The product is bit-identical either way.
//
// Algorithms other than the Block Reorganizer and a caller-supplied
// opts.Plan pass straight through with no lookup, and a request Multiply
// rejects as a client fault changes no counter. Result.PlanReused reports
// a hit.
func (c *PlanCache) Multiply(ctx context.Context, a, b *sparse.CSR, fpA, fpB uint64, opts Options) (*Result, error) {
	key, ok := c.key(fpA, fpB, &opts)
	if !ok {
		return MultiplyContext(ctx, a, b, opts)
	}
	if cached := c.get(key); cached != nil {
		if bound, err := cached.Rebind(a, b); err == nil {
			opts.Plan = bound
		}
	}
	res, err := MultiplyContext(ctx, a, b, opts)
	if requestFault(err) {
		return nil, err
	}
	c.count(opts.Plan != nil)
	if err == nil && !res.PlanReused {
		c.put(key, res.ReusablePlan())
	}
	return res, err
}

// key builds the cache key for a multiply under opts, reporting false when
// the multiply bypasses the cache.
func (c *PlanCache) key(fpA, fpB uint64, opts *Options) (planKey, bool) {
	if c == nil || opts.Plan != nil ||
		(opts.Algorithm != "" && opts.Algorithm != BlockReorganizer) {
		return planKey{}, false
	}
	accum, err := sparse.ParseAccumulator(opts.Accumulator)
	if err != nil {
		return planKey{}, false
	}
	p := coreParams(opts)
	p.Accumulator = accum
	if p, err = p.Normalize(); err != nil || math.IsNaN(p.Alpha) || math.IsNaN(p.Beta) {
		// A NaN never equals itself, so its key could never be found (or
		// evicted) again.
		return planKey{}, false
	}
	gpu := opts.GPU
	if gpu == "" {
		gpu = TitanXp
	}
	return planKey{fpA: fpA, fpB: fpB, gpu: gpu, params: p}, true
}

// get returns the plan cached under k, marking it most recently used.
func (c *PlanCache) get(k planKey) *Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[k]
	if !ok {
		return nil
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheSlot).plan
}

// count records one lookup's outcome.
func (c *PlanCache) count(hit bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if hit {
		c.hits++
	} else {
		c.misses++
	}
}

// put stores p under k, evicting the least recently used entry when the
// cache is full. Re-putting an existing key replaces its plan and
// refreshes its recency.
func (c *PlanCache) put(k planKey, p *Plan) {
	if p == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		el.Value.(*cacheSlot).plan = p
		c.order.MoveToFront(el)
		return
	}
	for len(c.items) >= c.capacity {
		last := c.order.Back()
		c.order.Remove(last)
		delete(c.items, last.Value.(*cacheSlot).key)
		c.evictions++
	}
	c.items[k] = c.order.PushFront(&cacheSlot{key: k, plan: p})
}

// Len returns the number of cached plans.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

// Stats returns a snapshot of the cache counters.
func (c *PlanCache) Stats() PlanCacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return PlanCacheStats{
		Hits:      c.hits,
		Misses:    c.misses,
		Evictions: c.evictions,
		Size:      len(c.items),
		Capacity:  c.capacity,
	}
}
