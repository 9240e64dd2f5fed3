// Package runtime is the concurrent execution engine of the Marsit
// reproduction: M persistent worker goroutines, one per rank, each owning
// its shard of every collective and exchanging messages through a
// transport.Transport. It is the parallel counterpart of the lock-step
// loops in internal/collective and internal/core — the D-dimensional math
// genuinely runs on M cores, while the α–β virtual-time accounting of
// internal/netsim is reproduced exactly, so simulated times, wire bytes
// and phase breakdowns match the sequential engine bit for bit.
//
// Two invariants make the equivalence hold:
//
//  1. Data: every ported collective performs, per rank, the same sequence
//     of segment snapshots, additions and sign merges as the sequential
//     schedule, and payloads round-trip through an exact float64/bit
//     encoding. Per-rank RNG streams are goroutine-confined, so merge
//     draws consume each stream in the sequential order.
//  2. Time: each Packet carries the sender's virtual clock; the receiver
//     applies the same cut-through arithmetic as netsim.Cluster.Exchange
//     (arrival = sender clock + α + Bytes·β, floored by the local clock),
//     which is exact because every ported step is one send plus one
//     receive per NIC — no contention cases arise.
//
// The engine accounts onto a *netsim.Cluster: workers touch only their
// own rank's clock, phase and byte entries (disjoint, race-free), and the
// coordinator barriers after every collective.
package runtime

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"marsit/internal/netsim"
	"marsit/internal/obs"
	"marsit/internal/tensor"
	"marsit/internal/transport"
)

// Engine runs one goroutine per rank, dispatching collective bodies to
// all of them and joining on completion. Create with New (in-process
// loopback fabric) or NewWithTransport, and Close when done to release
// the worker goroutines.
type Engine struct {
	n             int
	tr            transport.Transport
	ownsTransport bool
	jobs          []chan job
	closed        atomic.Bool
	closeOnce     sync.Once
	failOnce      sync.Once
}

type job struct {
	body func(rank int, ep transport.Endpoint)
	wg   *sync.WaitGroup
	// panics[rank] records a recovered worker panic for the coordinator.
	panics []any
}

// New starts an engine of workers ranks connected by an in-process
// loopback transport.
func New(workers int) *Engine {
	e := NewWithTransport(transport.NewLoopback(workers))
	e.ownsTransport = true
	return e
}

// NewWithOwnedTransport starts an engine over an existing fabric and
// takes ownership of it: Close tears the fabric down too. Used when the
// fabric exists solely to back this engine (e.g. a TCP fabric built for
// the `-transport tcp` configuration).
func NewWithOwnedTransport(tr transport.Transport) *Engine {
	e := NewWithTransport(tr)
	e.ownsTransport = true
	return e
}

// NewWithTransport starts an engine over an existing fabric (one rank per
// transport endpoint). The caller retains ownership of tr: Close does not
// close it. Exception: a panic on a worker goroutine poisons the engine
// and closes tr (owned or not) — the only way to unblock peers mid-
// collective so the join can complete and re-raise the panic.
func NewWithTransport(tr transport.Transport) *Engine {
	n := tr.Size()
	if n < 1 {
		panic("runtime: engine needs >= 1 workers")
	}
	e := &Engine{n: n, tr: tr, jobs: make([]chan job, n)}
	for r := 0; r < n; r++ {
		e.jobs[r] = make(chan job)
		go e.workerLoop(r, e.jobs[r], tr.Endpoint(r))
	}
	return e
}

// Workers returns the number of ranks.
func (e *Engine) Workers() int { return e.n }

// Close stops the worker goroutines and closes the transport if the
// engine owns it. Close is idempotent; the engine is unusable afterwards.
func (e *Engine) Close() error {
	e.closeOnce.Do(func() {
		e.closed.Store(true)
		for _, ch := range e.jobs {
			close(ch)
		}
		if e.ownsTransport {
			e.tr.Close()
		}
	})
	return nil
}

func (e *Engine) workerLoop(rank int, jobs <-chan job, ep transport.Endpoint) {
	for j := range jobs {
		func() {
			defer j.wg.Done()
			defer func() {
				if r := recover(); r != nil {
					j.panics[rank] = r
					// Poison the engine and unblock peers mid-collective
					// so the join cannot hang; their transport errors
					// are recorded too. See NewWithTransport on why the
					// transport is closed even when not owned.
					e.failOnce.Do(func() {
						e.closed.Store(true)
						e.tr.Close()
					})
				}
			}()
			j.body(rank, ep)
		}()
	}
}

// Do executes body(rank, ep) on every worker goroutine, ep being the
// rank's own endpoint, and waits for all of them. It is the engine's one
// entry point: Collective.Run drives registry legs through it, and
// callers that layer their own per-rank work (core.Marsit's RankSyncs,
// the train layer's compress-then-exchange) run the exported *Rank
// legs inside body. The body must touch only rank-owned state. A worker
// panic is re-raised on the caller after the join.
func (e *Engine) Do(body func(rank int, ep transport.Endpoint)) {
	if e.closed.Load() {
		panic("runtime: engine used after Close")
	}
	var wg sync.WaitGroup
	wg.Add(e.n)
	j := job{body: body, wg: &wg, panics: make([]any, e.n)}
	for _, ch := range e.jobs {
		ch <- j
	}
	wg.Wait()
	// A root-cause panic closes the transport, so peers blocked in
	// Send/Recv record secondary "transport: closed" panics too; prefer
	// the originating one so the symptom does not mask the cause.
	firstRank := -1
	for rank, p := range j.panics {
		if p == nil {
			continue
		}
		if firstRank < 0 {
			firstRank = rank
		}
		if !strings.Contains(fmt.Sprint(p), transport.ErrClosed.Error()) {
			panic(fmt.Sprintf("runtime: worker %d: %v", rank, p))
		}
	}
	if firstRank >= 0 {
		panic(fmt.Sprintf("runtime: worker %d: %v", firstRank, j.panics[firstRank]))
	}
}

// checkShape validates one vector per rank, all of equal dimension, and
// returns the dimension (mirror of the collective-layer check).
func (e *Engine) checkShape(c *netsim.Cluster, vecs []tensor.Vec) int {
	if c.Size() != e.n {
		panic(fmt.Sprintf("runtime: cluster size %d != engine workers %d", c.Size(), e.n))
	}
	if len(vecs) != e.n {
		panic(fmt.Sprintf("runtime: %d vectors for %d workers", len(vecs), e.n))
	}
	d := len(vecs[0])
	for w, v := range vecs {
		if len(v) != d {
			panic(fmt.Sprintf("runtime: worker %d has dim %d, want %d", w, len(v), d))
		}
	}
	return d
}

// ---------------------------------------------------------------------------
// Rank-local accounting and exchange

// rankCtx is a worker's view of one collective: its endpoint, its virtual
// clock, and the cluster it charges. All cluster touches are confined to
// the rank's own entries.
type rankCtx struct {
	c    *netsim.Cluster
	ep   transport.Endpoint
	rank int
	clk  float64
	// chunks is the hop-pipelining degree: every exchangeChunked hop is
	// split into this many physical frames (1 = one frame per hop, the
	// historical behaviour). Purely a wall-clock knob — the charged
	// Wire/Clock arithmetic is computed once per hop either way.
	chunks int
	// tracer, when non-nil, receives one event per hop (and per chunk)
	// pairing the virtual α–β clock with wall-clock timing. Resolved once
	// at context creation so the hot loops pay a nil check, nothing more;
	// events never influence results, bytes or clocks.
	tracer *obs.Tracer
	// rec, when non-nil, is the calibration recorder: exchange spans
	// accumulate into commNanos and finish flushes the total, giving
	// CalibStep the measured communication share of the run's wall time.
	// Same nil-check discipline as the tracer.
	rec       *obs.CalibRecorder
	commNanos int64
	// hops numbers the rank's exchanges within the current collective.
	hops int
}

// maxHopChunks caps the pipelining degree: beyond this the frames are
// so small that per-frame overhead wins back everything pipelining
// saves, and the cap keeps exchangeChunked's bookkeeping bounded. It is
// deliberately not a deadlock guard — the chunk loop keeps its send
// window at one frame, so any link depth ≥ 1 is safe at any degree.
const maxHopChunks = 16

func newRankCtx(c *netsim.Cluster, ep transport.Endpoint, rank int) *rankCtx {
	return &rankCtx{c: c, ep: ep, rank: rank, clk: c.Clock(rank), chunks: 1,
		tracer: obs.ActiveTracer(), rec: obs.ActiveCalib()}
}

// newRankCtxChunks is newRankCtx with a hop-pipelining degree; values
// below 1 mean unchunked and values above maxHopChunks are clamped
// (clamping is invisible to the cost model).
func newRankCtxChunks(c *netsim.Cluster, ep transport.Endpoint, rank, chunks int) *rankCtx {
	rk := newRankCtx(c, ep, rank)
	if chunks > maxHopChunks {
		chunks = maxHopChunks
	}
	if chunks > 1 {
		rk.chunks = chunks
	}
	return rk
}

// exchange performs one symmetric ring step — post data to next, block on
// prev — and advances the virtual clock with exactly the arithmetic of
// netsim.Cluster.Exchange for a one-send, one-receive round:
//
//	sendDone  = start + outWire·β(rank→next)
//	recvStart = max(sender start + α(prev→rank), start)
//	recvDone  = recvStart + inWire·β(prev→rank)
//	clock     = max(start, sendDone, recvDone)
//
// α and β resolve through Cluster.Link, so per-link cost overrides
// (heterogeneous interconnects) flow through identically on both
// engines. The sender's step-start clock rides on the packet. Wire
// bytes are accounted to the sender, as in netsim.
func (r *rankCtx) exchange(next int, data []byte, outWire int, prev int) []byte {
	start := r.clk
	hop := r.hops
	r.hops++
	var t0 time.Time
	outBytes := len(data)
	timed := r.tracer != nil || r.rec != nil
	if timed {
		t0 = time.Now()
	}
	err := r.ep.Send(next, transport.Packet{Data: data, Wire: outWire, Clock: start})
	if err != nil {
		panic(fmt.Sprintf("runtime: rank %d send to %d: %v", r.rank, next, err))
	}
	r.c.AccountBytes(r.rank, outWire)
	p, err := r.ep.Recv(prev)
	if err != nil {
		panic(fmt.Sprintf("runtime: rank %d recv from %d: %v", r.rank, prev, err))
	}
	var span time.Duration
	if timed {
		span = time.Since(t0)
		r.commNanos += int64(span)
	}
	_, outBeta := r.c.Link(r.rank, next)
	inAlpha, inBeta := r.c.Link(prev, r.rank)
	sendDone := start + float64(outWire)*outBeta
	recvStart := p.Clock + inAlpha
	if start > recvStart {
		recvStart = start
	}
	recvDone := recvStart + float64(p.Wire)*inBeta
	if sendDone > r.clk {
		r.clk = sendDone
	}
	if recvDone > r.clk {
		r.clk = recvDone
	}
	if r.tracer != nil {
		r.tracer.Emit(obs.Event{Kind: obs.KindHop, Rank: r.rank, Hop: hop, Chunk: -1,
			Bytes: outBytes, Wire: outWire, VClock: r.clk, Start: t0, Dur: span})
	}
	return p.Data
}

// exchangeChunked is one ring hop whose payload is logically the same
// message as exchange(enc(0, outN), outWire) but physically segmented
// into rk.chunks frames, so the receiver's merge of chunk c overlaps
// the transfer of chunk c+1 (and, across ranks, hop h+1's transmission
// overlaps hop h's merge). outN and inN are the element counts of the
// outgoing and incoming segments; both sides derive identical
// tensor.Partition chunk boundaries, so prev's send chunks line up with
// our consume chunks. enc(ci, lo, hi) encodes elements [lo, hi) of the
// outgoing segment into a pooled payload for chunk index ci (ownership
// passes at Send); consume(ci, lo, hi, data) merges the received
// elements [lo, hi) and must recycle data. Sideband values that ride a
// single frame (a scale constant, a norm) key off ci == 0 — chunk
// indices agree on both sides even when a degenerate segment makes
// element offsets ambiguous.
//
// The cost model sees exactly one message: the first frame carries the
// hop's start clock and the full simulated wire size, trailing frames
// carry Wire = 0, and the closing arithmetic below is the verbatim
// arithmetic of exchange — so results, wire bytes and α–β clocks are
// bit-identical for every chunk count (the equivalence matrix pins
// S ∈ {1, 3, 8}).
//
// The send window is one frame: chunk c's receive is consumed before
// chunk c+1 is posted, so at most one unconsumed frame sits on a link
// per rank and the schedule is deadlock-free at any link depth ≥ 1
// (including a pathological Depth-1 fabric). The ranks still pipeline
// against each other — every rank works chunk c while chunk c±1 moves
// on its neighbours' links — which is where the overlap lives.
func (r *rankCtx) exchangeChunked(next, prev, outN, inN, outWire int,
	enc func(ci, lo, hi int) []byte,
	consume func(ci, lo, hi int, data []byte)) {
	if r.chunks <= 1 {
		consume(0, 0, inN, r.exchange(next, enc(0, 0, outN), outWire, prev))
		return
	}
	start := r.clk
	hop := r.hops
	r.hops++
	timed := r.tracer != nil || r.rec != nil
	var hopT0 time.Time
	if r.tracer != nil {
		hopT0 = time.Now()
	}
	sentBytes := 0
	outParts := tensor.Partition(outN, r.chunks)
	inParts := tensor.Partition(inN, r.chunks)
	var firstWire int
	var firstClock float64
	recvd := 0
	recvOne := func() {
		var ct0 time.Time
		if timed {
			ct0 = time.Now()
		}
		p, err := r.ep.Recv(prev)
		if err != nil {
			panic(fmt.Sprintf("runtime: rank %d recv from %d: %v", r.rank, prev, err))
		}
		if r.rec != nil {
			// The comm share of the span ends at delivery; the consume
			// below is local merge work. The tracer's chunk Dur keeps
			// including it — the trace reads as "time to land this chunk".
			r.commNanos += int64(time.Since(ct0))
		}
		if recvd == 0 {
			firstWire, firstClock = p.Wire, p.Clock
		}
		seg := inParts[recvd]
		ci := recvd
		recvd++
		inBytes := len(p.Data)
		consume(ci, seg.Lo, seg.Hi, p.Data)
		if r.tracer != nil {
			r.tracer.Emit(obs.Event{Kind: obs.KindChunk, Rank: r.rank, Hop: hop, Chunk: ci,
				Bytes: inBytes, Wire: p.Wire, VClock: r.clk, Start: ct0, Dur: time.Since(ct0)})
		}
	}
	for ci, seg := range outParts {
		if ci > 0 {
			recvOne() // consume chunk ci−1 before posting ci: window of one
		}
		wire, clock := 0, 0.0
		if ci == 0 {
			wire, clock = outWire, start
		}
		payload := enc(ci, seg.Lo, seg.Hi)
		sentBytes += len(payload)
		var st0 time.Time
		if r.rec != nil {
			st0 = time.Now()
		}
		err := r.ep.Send(next, transport.Packet{Data: payload, Wire: wire, Clock: clock})
		if err != nil {
			panic(fmt.Sprintf("runtime: rank %d send to %d: %v", r.rank, next, err))
		}
		if r.rec != nil {
			r.commNanos += int64(time.Since(st0))
		}
		if ci == 0 {
			r.c.AccountBytes(r.rank, outWire)
		}
	}
	recvOne()

	_, outBeta := r.c.Link(r.rank, next)
	inAlpha, inBeta := r.c.Link(prev, r.rank)
	sendDone := start + float64(outWire)*outBeta
	recvStart := firstClock + inAlpha
	if start > recvStart {
		recvStart = start
	}
	recvDone := recvStart + float64(firstWire)*inBeta
	if sendDone > r.clk {
		r.clk = sendDone
	}
	if recvDone > r.clk {
		r.clk = recvDone
	}
	if r.tracer != nil {
		r.tracer.Emit(obs.Event{Kind: obs.KindHop, Rank: r.rank, Hop: hop, Chunk: -1,
			Bytes: sentBytes, Wire: outWire, VClock: r.clk, Start: hopT0, Dur: time.Since(hopT0)})
	}
}

// send posts one raw frame to rank to, stamping the given send-start
// clock and charging the wire bytes to this rank. It is the
// asymmetric-schedule primitive behind gossip's double send, the tree's
// fan-in/fan-out and the hierarchical chain: the caller owns the α–β
// clock arithmetic, which must replicate what netsim.Cluster.Exchange
// computes for the message pattern at hand (exchange covers only the
// symmetric one-send-one-receive ring step).
func (r *rankCtx) send(to int, data []byte, wire int, clock float64) {
	var t0 time.Time
	if r.rec != nil {
		t0 = time.Now()
	}
	if err := r.ep.Send(to, transport.Packet{Data: data, Wire: wire, Clock: clock}); err != nil {
		panic(fmt.Sprintf("runtime: rank %d send to %d: %v", r.rank, to, err))
	}
	if r.rec != nil {
		r.commNanos += int64(time.Since(t0))
	}
	r.c.AccountBytes(r.rank, wire)
}

// recv blocks on one raw frame from rank from — the receive half of
// send. The caller applies the arrival arithmetic (and recycles the
// payload).
func (r *rankCtx) recv(from int) transport.Packet {
	var t0 time.Time
	if r.rec != nil {
		t0 = time.Now()
	}
	p, err := r.ep.Recv(from)
	if err != nil {
		panic(fmt.Sprintf("runtime: rank %d recv from %d: %v", r.rank, from, err))
	}
	if r.rec != nil {
		r.commNanos += int64(time.Since(t0))
	}
	return p
}

// setPhase stamps the rank's subsequent trace events with the given
// collective phase ("reduce-scatter", "all-gather", ...). A no-op when
// tracing is off.
func (r *rankCtx) setPhase(phase string) {
	if r.tracer != nil {
		r.tracer.SetPhase(r.rank, phase)
	}
}

// addCompress charges compression of elems elements mid-collective: the
// cluster charge records the phase split (and advances the rank's
// cluster clock), while the local clock advances by the same amount so
// subsequent exchanges start exactly where the sequential schedule's
// would. finish then attributes only the remaining advance to
// transmission, reproducing the sequential interleaving of charge and
// Exchange (the cascading schedule compresses between hops).
func (r *rankCtx) addCompress(elems int) {
	r.c.AddCompress(r.rank, elems)
	r.clk += float64(elems) * r.c.Model.CompressPerElem
}

// addDecompress is addCompress for the decompression charge.
func (r *rankCtx) addDecompress(elems int) {
	r.c.AddDecompress(r.rank, elems)
	r.clk += float64(elems) * r.c.Model.DecompressPerElem
}

// finish writes the accumulated transmission time back to the cluster:
// everything beyond the charges already applied is transmit time, exactly
// how the sequential Exchange attributes it. With calibration active it
// also flushes the rank's measured communication wall time to the
// recorder's scratch, where CalibStep picks it up.
func (r *rankCtx) finish() {
	r.c.AdvanceTransmit(r.rank, r.clk)
	if r.rec != nil && r.commNanos > 0 {
		r.rec.AddCommWall(r.rank, r.commNanos)
		r.commNanos = 0
	}
}

// ---------------------------------------------------------------------------
// Exact payload codecs

// floatWireBytes is the simulated wire width of one full-precision
// element (float32, matching internal/collective).
const floatWireBytes = 4

// encodeFloats (codec_fast.go / codec_portable.go) serializes v as raw
// little-endian float64 bits — an exact round-trip, so parallel
// arithmetic matches the sequential engine bit for bit. The returned
// slice doubles as the sequential schedule's pre-mutation snapshot. The
// buffer comes from the shared payload pool; ownership passes to the
// transport at Send, and the consuming side recycles it: addFloats
// accumulates a payload into dst (dst[i] += x_i, the reduce-scatter
// combine) without materializing the decoded vector, copyFloats
// overwrites dst (the all-gather combine), and both recycle the dead
// payload into the buffer pool.

func checkFloatPayload(n int, data []byte) {
	if len(data) != 8*n {
		panic(fmt.Sprintf("runtime: float payload of %d bytes for %d elements", len(data), n))
	}
}
