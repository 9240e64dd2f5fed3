// Package perfbench is the machine-readable performance harness of the
// reproduction: it measures wall-clock ns/op, allocated B/op and
// allocs/op for every requested collective on the sequential engine and
// on the parallel engine over each fabric backend, and emits one JSON
// record (the BENCH_*.json trajectory) that future perf PRs are judged
// against.
//
// Wall-clock time is the one quantity the cross-engine equivalence
// matrix deliberately ignores — results, wire bytes and virtual clocks
// are pinned bit-identical there — so this harness is where the real
// speed of the hot paths is recorded. Before timing a case, the
// parallel leg's outputs are cross-checked against the sequential leg
// (a cheap one-round replay), so a benchmark can never silently time a
// wrong answer; any sub-run failure propagates as an error instead of
// being dropped.
package perfbench

import (
	"encoding/json"
	"fmt"
	"math"
	gort "runtime"
	"time"

	"marsit/internal/calib"
	"marsit/internal/collective/registry"
	"marsit/internal/core"
	"marsit/internal/netsim"
	"marsit/internal/obs"
	"marsit/internal/rng"
	"marsit/internal/tensor"
)

// DefaultCollectives is the suite a plain run measures: the paper's
// full-precision baselines, the compressed transports and the one-bit
// Marsit schedule itself.
var DefaultCollectives = []string{"rar", "marsit", "signsum", "ssdm", "cascading", "ps"}

// DefaultFabrics are the parallel-engine backends a plain run covers.
var DefaultFabrics = []string{"loopback", "tcp", "shm", "hybrid"}

// Config parameterizes a harness run. Zero values select the defaults.
type Config struct {
	// Collectives lists registry names to measure (DefaultCollectives
	// when empty).
	Collectives []string
	// Fabrics lists parallel backends ("loopback", "tcp", "shm",
	// "hybrid"; DefaultFabrics when empty).
	Fabrics []string
	// Workers and Dim shape every case (4 and 100 000 when zero — the
	// M=4, D=1e5 hot path the perf trajectory tracks).
	Workers, Dim int
	// Chunks is the hop-pipelining degree for chunk-capable collectives
	// (0 = off).
	Chunks int
	// MinTime and MinIters bound each measurement: iterate until both
	// are met (300 ms / 3 when zero).
	MinTime  time.Duration
	MinIters int
	// Label is copied into the report (e.g. "PR 5").
	Label string
	// Progress, when non-nil, is called with each result as its case
	// completes — long runs can show live output.
	Progress func(Result)
}

// Metrics is one engine leg's measurement.
type Metrics struct {
	NsOp     float64 `json:"ns_op"`
	BOp      uint64  `json:"b_op"`
	AllocsOp uint64  `json:"allocs_op"`
	Iters    int     `json:"iters"`
}

// TransportStats is the parallel leg's transport-counter delta over the
// timed iterations (warm-up excluded): total frames, cost-model wire
// bytes and payload bytes posted across the fabric, the TCP writev
// coalescing summary (zero on loopback), and the shared payload-pool
// traffic. Divide by Par.Iters for per-op figures; WritevFrames /
// WritevFlushes is the mean coalescing batch.
type TransportStats struct {
	Frames        int64 `json:"frames"`
	WireBytes     int64 `json:"wire_bytes"`
	PayloadBytes  int64 `json:"payload_bytes"`
	WritevFlushes int64 `json:"writev_flushes,omitempty"`
	WritevFrames  int64 `json:"writev_frames,omitempty"`
	PoolGets      int64 `json:"pool_gets"`
	PoolHits      int64 `json:"pool_hits"`
	PoolPuts      int64 `json:"pool_puts"`
}

// Result is one collective × fabric case: the sequential baseline, the
// parallel engine, and their ratio (> 1 means the parallel engine is
// faster in wall clock). Calibration is the schema-3 predicted-vs-
// measured block for the parallel leg's timed iterations (warm-up
// excluded): per cost-model phase, the α–β virtual seconds the run
// charged next to the wall-clock seconds it actually took, with
// wall-per-virtual error ratios.
type Result struct {
	Collective  string          `json:"collective"`
	Fabric      string          `json:"fabric"`
	Seq         Metrics         `json:"seq"`
	Par         Metrics         `json:"par"`
	Speedup     float64         `json:"speedup"`
	Transport   *TransportStats `json:"transport,omitempty"`
	Calibration *calib.Entry    `json:"calibration,omitempty"`
}

// Report is the full JSON record.
type Report struct {
	Schema     string   `json:"schema"`
	Label      string   `json:"label,omitempty"`
	Date       string   `json:"date"`
	GoVersion  string   `json:"go"`
	GOMAXPROCS int      `json:"gomaxprocs"`
	NumCPU     int      `json:"num_cpu"`
	Workers    int      `json:"workers"`
	Dim        int      `json:"dim"`
	Chunks     int      `json:"chunks"`
	Results    []Result `json:"results"`
}

// Run executes the configured suite. The first failing sub-run aborts
// the harness with its error — a partial report is never returned.
func Run(cfg Config) (*Report, error) {
	if len(cfg.Collectives) == 0 {
		cfg.Collectives = DefaultCollectives
	}
	if len(cfg.Fabrics) == 0 {
		cfg.Fabrics = DefaultFabrics
	}
	if cfg.Workers == 0 {
		cfg.Workers = 4
	}
	if cfg.Dim == 0 {
		cfg.Dim = 100_000
	}
	if cfg.MinTime == 0 {
		cfg.MinTime = 300 * time.Millisecond
	}
	if cfg.MinIters == 0 {
		cfg.MinIters = 3
	}

	// The schema-3 record carries a transport-counter snapshot and a
	// calibration block per case, so the harness always runs with
	// telemetry on: install a registry if the caller (or the CLI's
	// -trace flag) hasn't already, and make sure a calibration recorder
	// is attached either way.
	if obs.Active() == nil {
		defer obs.SetActive(obs.NewRegistry())()
	}
	obs.Active().EnsureCalib(cfg.Workers)

	rep := &Report{
		Schema:     "marsit-bench/3",
		Label:      cfg.Label,
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  gort.Version(),
		GOMAXPROCS: gort.GOMAXPROCS(0),
		NumCPU:     gort.NumCPU(),
		Workers:    cfg.Workers,
		Dim:        cfg.Dim,
		Chunks:     cfg.Chunks,
	}
	for _, name := range cfg.Collectives {
		desc, err := registry.Get(name)
		if err != nil {
			return nil, err
		}
		seq, err := measureSeq(&cfg, desc)
		if err != nil {
			return nil, fmt.Errorf("perfbench: %s seq: %w", name, err)
		}
		for _, fabric := range cfg.Fabrics {
			if err := verifyCase(&cfg, desc, fabric); err != nil {
				return nil, fmt.Errorf("perfbench: %s/%s verification: %w", name, fabric, err)
			}
			par, tstats, centry, err := measurePar(&cfg, desc, fabric)
			if err != nil {
				return nil, fmt.Errorf("perfbench: %s/%s par: %w", name, fabric, err)
			}
			res := Result{
				Collective:  name,
				Fabric:      fabric,
				Seq:         seq,
				Par:         par,
				Speedup:     seq.NsOp / par.NsOp,
				Transport:   tstats,
				Calibration: centry,
			}
			rep.Results = append(rep.Results, res)
			if cfg.Progress != nil {
				cfg.Progress(res)
			}
		}
	}
	return rep, nil
}

// JSON renders the report, indented, with a trailing newline.
func (r *Report) JSON() ([]byte, error) {
	out, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(out, '\n'), nil
}

// opts builds the case options; chunked hops apply only where the
// descriptor supports them (Prepare rejects the combination otherwise).
func (cfg *Config) opts(desc *registry.Descriptor) *registry.Opts {
	chunks := 0
	if desc.Caps.Chunked {
		chunks = cfg.Chunks
	}
	return &registry.Opts{
		Workers: cfg.Workers, Dim: cfg.Dim, Seed: 11,
		K: 3, GlobalLR: 0.01, Chunks: chunks,
	}
}

// inputs builds the per-rank gradient vectors every case consumes
// (collectives mutate them in place; steady-state timing reuses them,
// like the root engine benchmarks).
func (cfg *Config) inputs(seed uint64) []tensor.Vec {
	r := rng.New(seed)
	out := make([]tensor.Vec, cfg.Workers)
	for w := range out {
		out[w] = r.NormVec(make(tensor.Vec, cfg.Dim), 0, 1)
	}
	return out
}

// measure times f: one untimed warm-up (pools and runners settle), then
// iterations until both MinTime and MinIters are met, with allocation
// figures from the runtime's global counters — the whole process works
// for the op, so worker-goroutine allocations count exactly as they do
// under `go test -benchmem`. warm, when non-nil, runs between the
// warm-up and the timed loop (the transport-counter snapshot hook).
func (cfg *Config) measure(f func() error, warm func()) (Metrics, error) {
	if err := f(); err != nil {
		return Metrics{}, err
	}
	gort.GC()
	if warm != nil {
		warm()
	}
	var before, after gort.MemStats
	gort.ReadMemStats(&before)
	start := time.Now()
	iters := 0
	for iters < cfg.MinIters || time.Since(start) < cfg.MinTime {
		if err := f(); err != nil {
			return Metrics{}, err
		}
		iters++
	}
	elapsed := time.Since(start)
	gort.ReadMemStats(&after)
	return Metrics{
		NsOp:     float64(elapsed.Nanoseconds()) / float64(iters),
		BOp:      (after.TotalAlloc - before.TotalAlloc) / uint64(iters),
		AllocsOp: (after.Mallocs - before.Mallocs) / uint64(iters),
		Iters:    iters,
	}, nil
}

// guard converts a collective panic (poisoned fabric, shape bug) into
// an error so a failing sub-run reports instead of crashing the CLI.
func guard(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("collective panicked: %v", r)
		}
	}()
	f()
	return nil
}

func measureSeq(cfg *Config, desc *registry.Descriptor) (Metrics, error) {
	run, err := desc.Seq(cfg.opts(desc))
	if err != nil {
		return Metrics{}, err
	}
	c := netsim.NewCluster(cfg.Workers, netsim.DefaultCostModel())
	grads := cfg.inputs(23)
	return cfg.measure(func() error {
		return guard(func() { run(c, grads) })
	}, nil)
}

func measurePar(cfg *Config, desc *registry.Descriptor, fabric string) (Metrics, *TransportStats, *calib.Entry, error) {
	reg := obs.Active()
	var nFabrics int
	if reg != nil {
		nFabrics = len(reg.Fabrics())
	}
	eng, err := core.NewParallelEngine(cfg.Workers, core.Transport(fabric))
	if err != nil {
		return Metrics{}, nil, nil, err
	}
	defer eng.Close()
	cl, err := eng.Open(desc, cfg.opts(desc))
	if err != nil {
		return Metrics{}, nil, nil, err
	}

	// The engine's transport constructor registered this case's fabric
	// metrics (one new entry) — snapshot its counters after the warm-up
	// and diff after the timed loop, so the record covers exactly the
	// measured iterations.
	var fm *obs.FabricMetrics
	if reg != nil {
		if fabrics := reg.Fabrics(); len(fabrics) > nFabrics {
			fm = fabrics[len(fabrics)-1]
		}
	}
	var base TransportStats
	snapshot := func() TransportStats {
		var s TransportStats
		if fm != nil {
			s.Frames, s.WireBytes, s.PayloadBytes = fm.Totals()
			s.WritevFlushes = fm.WritevBatch.Count()
			s.WritevFrames = fm.WritevBatch.Sum()
		}
		s.PoolGets = reg.Pool.Gets.Value()
		s.PoolHits = reg.Pool.Hits.Value()
		s.PoolPuts = reg.Pool.Puts.Value()
		return s
	}

	c := netsim.NewCluster(cfg.Workers, netsim.DefaultCostModel())
	grads := cfg.inputs(23)
	// The calibration window opens at the same point as the transport
	// one: after the warm-up run, so warm-up wall time never skews the
	// reported ratios.
	rec := obs.ActiveCalib()
	var calibBase []obs.CalibEntry
	var warm func()
	if reg != nil {
		warm = func() {
			base = snapshot()
			if rec != nil {
				calibBase = rec.Snapshot()
			}
		}
	}
	m, err := cfg.measure(func() error {
		return guard(func() { cl.Run(c, grads) })
	}, warm)
	if err != nil || reg == nil {
		return m, nil, nil, err
	}
	end := snapshot()
	var centry *calib.Entry
	if rec != nil {
		if sums := calib.Summarize(calib.Diff(calibBase, rec.Snapshot())); len(sums) > 0 {
			centry = &sums[0]
		}
	}
	return m, &TransportStats{
		Frames:        end.Frames - base.Frames,
		WireBytes:     end.WireBytes - base.WireBytes,
		PayloadBytes:  end.PayloadBytes - base.PayloadBytes,
		WritevFlushes: end.WritevFlushes - base.WritevFlushes,
		WritevFrames:  end.WritevFrames - base.WritevFrames,
		PoolGets:      end.PoolGets - base.PoolGets,
		PoolHits:      end.PoolHits - base.PoolHits,
		PoolPuts:      end.PoolPuts - base.PoolPuts,
	}, centry, nil
}

// verifyCase replays one round on both engines from identical inputs
// and demands bit-exact outputs and identical wire bytes — the
// equivalence matrix's bar, applied here so a perf record can never be
// produced from a diverging run.
func verifyCase(cfg *Config, desc *registry.Descriptor, fabric string) error {
	seqRun, err := desc.Seq(cfg.opts(desc))
	if err != nil {
		return err
	}
	seqC := netsim.NewCluster(cfg.Workers, netsim.DefaultCostModel())
	seqIn := cfg.inputs(29)
	var seqOut []tensor.Vec
	if err := guard(func() { seqOut = seqRun(seqC, seqIn) }); err != nil {
		return err
	}

	eng, err := core.NewParallelEngine(cfg.Workers, core.Transport(fabric))
	if err != nil {
		return err
	}
	defer eng.Close()
	cl, err := eng.Open(desc, cfg.opts(desc))
	if err != nil {
		return err
	}
	parC := netsim.NewCluster(cfg.Workers, netsim.DefaultCostModel())
	parIn := cfg.inputs(29)
	var parOut []tensor.Vec
	if err := guard(func() { parOut = cl.Run(parC, parIn) }); err != nil {
		return err
	}

	if seqC.TotalBytes() != parC.TotalBytes() {
		return fmt.Errorf("wire bytes diverge: seq %d, par %d", seqC.TotalBytes(), parC.TotalBytes())
	}
	if len(seqOut) != len(parOut) {
		return fmt.Errorf("output counts diverge: seq %d, par %d", len(seqOut), len(parOut))
	}
	for w := range seqOut {
		if len(seqOut[w]) != len(parOut[w]) {
			return fmt.Errorf("rank %d output dims diverge", w)
		}
		for i := range seqOut[w] {
			if math.Float64bits(seqOut[w][i]) != math.Float64bits(parOut[w][i]) {
				return fmt.Errorf("rank %d element %d diverges: seq %v, par %v",
					w, i, seqOut[w][i], parOut[w][i])
			}
		}
	}
	return nil
}
