package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"

	"github.com/blockreorg/blockreorg/internal/core"
	"github.com/blockreorg/blockreorg/internal/datasets"
	"github.com/blockreorg/blockreorg/internal/gpusim"
	"github.com/blockreorg/blockreorg/internal/parallel"
	"github.com/blockreorg/blockreorg/sparse"
)

// HostBenchEntry is one measured benchmark of the host execution engine.
type HostBenchEntry struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// HostBench is the machine-readable record cmd/blockreorg-bench -baseline
// writes (BENCH_host.json) and -compare checks against. GoMaxProcs and
// NumCPU pin the numbers to the host they were taken on: the parallel
// entries only separate from the sequential ones when the recording host
// actually has cores to run them on.
type HostBench struct {
	GoMaxProcs int                `json:"gomaxprocs"`
	NumCPU     int                `json:"num_cpu"`
	GoVersion  string             `json:"go_version"`
	Scale      int                `json:"scale"`
	Entries    []HostBenchEntry   `json:"entries"`
	Derived    map[string]float64 `json:"derived"`
}

// hostBenchDatasets is the reduced Table II grid the host benchmarks run
// on — the same subset bench_test.go uses, covering both families.
func hostBenchDatasets() []string {
	return []string{
		"harbor", "QCD", "mario002",
		"youtube", "as-caida", "slashDot",
	}
}

// RunHostBench measures the host execution engine on this machine: the
// Table II precalculation sweep sequentially and on the full executor, the
// plan execution path, the Reorganizer's chunked multiply engine — the
// latter two with the scratch arenas off and on — and the merge
// accumulator strategies head to head (all-dense vs per-row auto) on a
// skewed matrix. Scale (0 = 16) divides the dataset sizes.
func RunHostBench(scale int) (*HostBench, error) {
	if scale == 0 {
		scale = 16
	}
	var firstErr error
	fail := func(err error) {
		if firstErr == nil {
			firstErr = err
		}
	}

	bench := func(name string, fn func() error) *HostBenchEntry {
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := fn(); err != nil {
					fail(fmt.Errorf("%s: %w", name, err))
					b.FailNow()
				}
			}
		})
		return &HostBenchEntry{
			Name:        name,
			NsPerOp:     float64(res.NsPerOp()),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
		}
	}

	tab2Run := func(workers int) func() error {
		cfg := Config{Scale: scale, Datasets: hostBenchDatasets(), Workers: workers}
		e, err := ByID("tab2")
		if err != nil {
			return func() error { return err }
		}
		return func() error {
			_, err := e.Run(cfg)
			return err
		}
	}

	spec, err := datasets.ByName("as-caida")
	if err != nil {
		return nil, err
	}
	m, err := spec.Generate(scale)
	if err != nil {
		return nil, err
	}
	// The plan execution path: the reorganized plan is built once (the
	// serving layer's cache hit) and the arena-backed executor produces the
	// product. Pooling off reproduces allocate-per-call behavior.
	plan, err := core.BuildPlan(m, m, core.Params{NumSMs: gpusim.TitanXp().NumSMs})
	if err != nil {
		return nil, err
	}
	planRun := func(pooled bool) func() error {
		return func() error {
			parallel.SetPooling(pooled)
			defer parallel.SetPooling(true)
			_, err := plan.ExecuteOn(nil, 0)
			return err
		}
	}
	// The Reorganizer's multiply engine (finishProduct →
	// sparse.MultiplyConfigured) under the all-dense merge this entry has
	// always recorded: a four-worker executor exercises the chunked
	// two-phase kernel whatever the recording host's core count, so the
	// entry measures the engine the serving layer runs on multi-core
	// machines. finishProduct itself runs the auto accumulator; the
	// accumulator pair below compares the two.
	gustEx := parallel.NewExecutor(4)
	gustRun := func(pooled bool) func() error {
		return func() error {
			parallel.SetPooling(pooled)
			defer parallel.SetPooling(true)
			_, err := sparse.MultiplyConfigured(m, m, gustEx, nil, sparse.MulConfig{Accum: sparse.AccumDense})
			return err
		}
	}
	// The accumulator strategies, head to head on a skewed matrix: youtube's
	// power-law rows are where the per-row selector diverges from the legacy
	// all-dense merge. The symbolic populations are computed once and shared,
	// so the pair isolates the merge-strategy cost alone.
	ytSpec, err := datasets.ByName("youtube")
	if err != nil {
		return nil, err
	}
	yt, err := ytSpec.Generate(scale)
	if err != nil {
		return nil, err
	}
	ytNNZ, err := sparse.SymbolicRowNNZOn(yt, yt, gustEx)
	if err != nil {
		return nil, err
	}
	accumRun := func(kind sparse.AccumulatorKind) func() error {
		return func() error {
			_, err := sparse.MultiplyConfigured(yt, yt, gustEx, nil,
				sparse.MulConfig{Accum: kind, RowNNZ: ytNNZ})
			return err
		}
	}

	out := &HostBench{
		GoMaxProcs: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		GoVersion:  runtime.Version(),
		Scale:      scale,
		Derived:    map[string]float64{},
	}
	seq := bench("tab2/sequential", tab2Run(1))
	par := bench("tab2/parallel", tab2Run(0))
	planCold := bench("plan-execute/unpooled", planRun(false))
	planWarm := bench("plan-execute/pooled", planRun(true))
	gustCold := bench("reorganizer-multiply/unpooled", gustRun(false))
	gustWarm := bench("reorganizer-multiply/pooled", gustRun(true))
	accumDense := bench("accum-multiply/dense", accumRun(sparse.AccumDense))
	accumAuto := bench("accum-multiply/auto", accumRun(sparse.AccumAuto))
	if firstErr != nil {
		return nil, firstErr
	}
	out.Entries = []HostBenchEntry{*seq, *par, *planCold, *planWarm, *gustCold, *gustWarm, *accumDense, *accumAuto}
	if par.NsPerOp > 0 {
		out.Derived["tab2_speedup"] = seq.NsPerOp / par.NsPerOp
	}
	if accumAuto.NsPerOp > 0 {
		out.Derived["accum_auto_speedup"] = accumDense.NsPerOp / accumAuto.NsPerOp
	}
	if gustCold.AllocsPerOp > 0 {
		out.Derived["reorganizer_alloc_reduction"] =
			1 - float64(gustWarm.AllocsPerOp)/float64(gustCold.AllocsPerOp)
	}
	if planCold.BytesPerOp > 0 {
		out.Derived["plan_execute_bytes_reduction"] =
			1 - float64(planWarm.BytesPerOp)/float64(planCold.BytesPerOp)
	}
	return out, nil
}

// WriteFile stores the record as indented JSON.
func (h *HostBench) WriteFile(path string) error {
	data, err := json.MarshalIndent(h, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// ReadHostBench loads a stored baseline.
func ReadHostBench(path string) (*HostBench, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var h HostBench
	if err := json.Unmarshal(data, &h); err != nil {
		return nil, fmt.Errorf("bench: %s: %w", path, err)
	}
	return &h, nil
}

// Compare checks cur against the baseline h and returns one message per
// entry whose ns/op regressed by more than tolerance (0.10 = 10%). Entries
// missing from either side are reported too — a renamed benchmark must not
// silently drop its gate.
func (h *HostBench) Compare(cur *HostBench, tolerance float64) []string {
	base := make(map[string]HostBenchEntry, len(h.Entries))
	for _, e := range h.Entries {
		base[e.Name] = e
	}
	var problems []string
	seen := make(map[string]bool, len(cur.Entries))
	for _, e := range cur.Entries {
		seen[e.Name] = true
		b, ok := base[e.Name]
		if !ok {
			problems = append(problems, fmt.Sprintf("%s: no baseline entry", e.Name))
			continue
		}
		if b.NsPerOp > 0 && e.NsPerOp > b.NsPerOp*(1+tolerance) {
			problems = append(problems, fmt.Sprintf(
				"%s: %.0f ns/op vs baseline %.0f ns/op (+%.1f%%, tolerance %.0f%%)",
				e.Name, e.NsPerOp, b.NsPerOp, 100*(e.NsPerOp/b.NsPerOp-1), 100*tolerance))
		}
	}
	for name := range base {
		if !seen[name] {
			problems = append(problems, fmt.Sprintf("%s: baseline entry not measured", name))
		}
	}
	return problems
}
