// Package obs is the telemetry layer of the reproduction: counters,
// histograms and per-rank trace rings that the transports, the runtime
// engine and the node daemon feed, a Prometheus-text renderer and a
// Chrome trace_event exporter that the CLIs serve. It has no external
// dependencies and — critically — no cost when disabled.
//
// # Zero overhead when disabled
//
// Telemetry is off by default. The single global switch is an atomic
// registry pointer: instrumented call sites do
//
//	if m := fabric.metrics; m != nil { m.OnSend(...) }
//
// or load the active registry once per collective (rankCtx creation).
// With no active registry every hook is a nil check — no allocation, no
// atomic traffic on the hot path — which internal/runtime/alloc_test.go
// pins. With telemetry on, every primitive here is allocation-free in
// steady state: counters are atomics, trace events are written into
// preallocated rings, so the equivalence matrix runs bit-identical with
// telemetry enabled (results, wire bytes and α–β clocks never pass
// through this package).
//
// # Ownership
//
// A Registry is plumbed process-globally (SetActive/Enable) because the
// instrumented layers — transport constructors, pooled buffers, per-rank
// engine contexts — have no configuration path of their own; tests
// install a private registry around the code under test and restore the
// previous one. Fabric metrics register at transport construction and
// stay registered after the fabric closes, so a final scrape (or the
// node's closing summary table) still sees the run's totals.
package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric.
type Counter struct{ v atomic.Int64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds d (d must be >= 0 for Prometheus counter semantics).
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down (queue depths, connections).
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add adds d (may be negative).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Histogram counts observations into fixed integer-bounded buckets
// (cumulative in the Prometheus rendering). Observe is lock-free.
type Histogram struct {
	bounds  []int64        // upper bound of bucket i (inclusive, sorted)
	buckets []atomic.Int64 // len(bounds)+1; last is +Inf
	count   atomic.Int64
	sum     atomic.Int64
}

// NewHistogram builds a histogram over the given sorted inclusive upper
// bounds.
func NewHistogram(bounds ...int64) *Histogram {
	h := &Histogram{bounds: bounds, buckets: make([]atomic.Int64, len(bounds)+1)}
	return h
}

// LinearBounds returns {start, start+step, ...} with n bounds.
func LinearBounds(start, step int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = start + int64(i)*step
	}
	return out
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	i := sort.Search(len(h.bounds), func(i int) bool { return h.bounds[i] >= v })
	h.buckets[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations, Sum their total.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// PoolStats counts the shared payload-buffer pool of internal/transport:
// Gets (requests), Hits (served from pooled capacity) and Puts
// (recycles). HitRate = Hits/Gets.
type PoolStats struct {
	Gets, Hits, Puts Counter
}

// Registry is one process's set of telemetry instruments. All methods
// are safe for concurrent use.
type Registry struct {
	mu       sync.Mutex
	fabrics  []*FabricMetrics
	counters map[string]*Counter
	gauges   map[string]*Gauge
	nextID   atomic.Int64

	// Pool is the payload-buffer pool instrumentation
	// (transport.GetBuffer/PutBuffer report here).
	Pool PoolStats

	tracer atomic.Pointer[Tracer]
	calib  atomic.Pointer[CalibRecorder]
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
	}
}

// metricKey renders name plus k=v label pairs into the exact Prometheus
// series key, which doubles as the lookup key.
func metricKey(name string, labels []string) string {
	if len(labels) == 0 {
		return name
	}
	if len(labels)%2 != 0 {
		panic(fmt.Sprintf("obs: odd label list for %s: %v", name, labels))
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i := 0; i < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", labels[i], labels[i+1])
	}
	b.WriteByte('}')
	return b.String()
}

// Counter returns (registering on first use) the named counter with the
// given k, v label pairs. The same name+labels always returns the same
// instrument; callers should cache it on hot paths.
func (r *Registry) Counter(name string, labels ...string) *Counter {
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[key]
	if !ok {
		c = &Counter{}
		r.counters[key] = c
	}
	return c
}

// Gauge returns (registering on first use) the named gauge.
func (r *Registry) Gauge(name string, labels ...string) *Gauge {
	key := metricKey(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[key]
	if !ok {
		g = &Gauge{}
		r.gauges[key] = g
	}
	return g
}

// AttachTracer installs t as the registry's tracer (nil detaches) and
// wires the registry's aggregate drop counter into it, so ring
// exhaustion surfaces as marsit_trace_dropped_total instead of only the
// per-rank tracer internals.
func (r *Registry) AttachTracer(t *Tracer) {
	if t != nil {
		t.dropCounter.Store(r.Counter("marsit_trace_dropped_total"))
	}
	r.tracer.Store(t)
}

// Tracer returns the attached tracer, nil if none.
func (r *Registry) Tracer() *Tracer { return r.tracer.Load() }

// AttachCalib installs cr as the registry's calibration recorder (nil
// detaches).
func (r *Registry) AttachCalib(cr *CalibRecorder) { r.calib.Store(cr) }

// Calib returns the attached calibration recorder, nil if none.
func (r *Registry) Calib() *CalibRecorder { return r.calib.Load() }

// EnsureCalib returns the attached calibration recorder, atomically
// attaching a fresh n-rank one if none is present — the idempotent
// entry point for in-process fleets whose ranks race to enable
// calibration.
func (r *Registry) EnsureCalib(n int) *CalibRecorder {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cr := r.calib.Load(); cr != nil {
		return cr
	}
	cr := NewCalibRecorder(n)
	r.calib.Store(cr)
	return cr
}

// Fabrics snapshots the registered fabric metrics in registration order.
func (r *Registry) Fabrics() []*FabricMetrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*FabricMetrics(nil), r.fabrics...)
}

// ---------------------------------------------------------------------------
// The process-global switch

var active atomic.Pointer[Registry]

// Active returns the process's registry, or nil when telemetry is
// disabled (the default). The nil return IS the fast path: instrumented
// call sites branch on it and touch nothing else.
func Active() *Registry { return active.Load() }

// ActiveTracer returns the active registry's tracer, nil when tracing
// (or telemetry entirely) is off.
func ActiveTracer() *Tracer {
	r := active.Load()
	if r == nil {
		return nil
	}
	return r.tracer.Load()
}

// ActiveCalib returns the active registry's calibration recorder, nil
// when calibration (or telemetry entirely) is off.
func ActiveCalib() *CalibRecorder {
	r := active.Load()
	if r == nil {
		return nil
	}
	return r.calib.Load()
}

// Enable installs a fresh registry if none is active and returns the
// active one — the CLI entry point.
func Enable() *Registry {
	if r := active.Load(); r != nil {
		return r
	}
	r := NewRegistry()
	if active.CompareAndSwap(nil, r) {
		return r
	}
	return active.Load()
}

// SetActive installs r (nil disables telemetry) and returns a function
// restoring the previous state — the test entry point:
//
//	defer obs.SetActive(obs.NewRegistry())()
//
// Instruments are picked up at construction time (fabric metrics) or
// per-operation (pool counters, tracer), so the swap must happen before
// the code under test builds its transports.
func SetActive(r *Registry) (restore func()) {
	prev := active.Swap(r)
	return func() { active.Store(prev) }
}

// ---------------------------------------------------------------------------
// Prometheus text rendering

// WritePrometheus renders every instrument in the Prometheus text
// exposition format (the /metrics payload). Metric families are emitted
// in a stable order.
func (r *Registry) WritePrometheus(w io.Writer) {
	r.mu.Lock()
	fabrics := append([]*FabricMetrics(nil), r.fabrics...)
	counterKeys := make([]string, 0, len(r.counters))
	for k := range r.counters {
		counterKeys = append(counterKeys, k)
	}
	gaugeKeys := make([]string, 0, len(r.gauges))
	for k := range r.gauges {
		gaugeKeys = append(gaugeKeys, k)
	}
	r.mu.Unlock()
	sort.Strings(counterKeys)
	sort.Strings(gaugeKeys)

	fmt.Fprintf(w, "# HELP marsit_pool_gets_total Payload-buffer pool requests.\n")
	fmt.Fprintf(w, "# TYPE marsit_pool_gets_total counter\n")
	fmt.Fprintf(w, "marsit_pool_gets_total %d\n", r.Pool.Gets.Value())
	fmt.Fprintf(w, "# HELP marsit_pool_hits_total Pool requests served from recycled capacity.\n")
	fmt.Fprintf(w, "# TYPE marsit_pool_hits_total counter\n")
	fmt.Fprintf(w, "marsit_pool_hits_total %d\n", r.Pool.Hits.Value())
	fmt.Fprintf(w, "# HELP marsit_pool_puts_total Payload buffers recycled into the pool.\n")
	fmt.Fprintf(w, "# TYPE marsit_pool_puts_total counter\n")
	fmt.Fprintf(w, "marsit_pool_puts_total %d\n", r.Pool.Puts.Value())

	for _, fm := range fabrics {
		fm.writePrometheus(w)
	}

	for _, k := range counterKeys {
		r.mu.Lock()
		c := r.counters[k]
		r.mu.Unlock()
		fmt.Fprintf(w, "%s %d\n", k, c.Value())
	}
	for _, k := range gaugeKeys {
		r.mu.Lock()
		g := r.gauges[k]
		r.mu.Unlock()
		fmt.Fprintf(w, "%s %d\n", k, g.Value())
	}

	if t := r.tracer.Load(); t != nil {
		t.writePrometheus(w)
	}
	if cr := r.calib.Load(); cr != nil {
		cr.writePrometheus(w)
	}
}
