// Package transporttest is the shared conformance suite for
// transport.Transport implementations. Every backend — the in-process
// Loopback, the TCP fabric, and whatever comes next — must exhibit the
// same observable contract: per-pair FIFO delivery with intact Wire and
// Clock fields, whole frames under concurrent Sends on one link, genuinely blocking receives, Close unblocking pending
// operations, ErrClosed after Close, and deadlock-free neighbor exchange
// on rings of odd and even size. Backend packages invoke Run from their
// own tests with a factory for their fabric.
package transporttest

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"marsit/internal/obs"
	"marsit/internal/transport"
)

// Factory builds a fresh fabric of n ranks for one subtest. The suite
// closes it.
type Factory func(t *testing.T, n int) transport.Transport

// Run exercises the full conformance suite against the backend built by
// factory.
func Run(t *testing.T, factory Factory) {
	t.Run("RankAndSize", func(t *testing.T) { testRankAndSize(t, factory) })
	t.Run("FIFOPerPair", func(t *testing.T) { testFIFOPerPair(t, factory) })
	t.Run("ConcurrentSendsOneLink", func(t *testing.T) { testConcurrentSends(t, factory) })
	t.Run("PairwiseExchange", func(t *testing.T) { testPairwiseExchange(t, factory) })
	t.Run("BlockingRecv", func(t *testing.T) { testBlockingRecv(t, factory) })
	t.Run("CloseUnblocksRecv", func(t *testing.T) { testCloseUnblocksRecv(t, factory) })
	t.Run("ErrClosedAfterClose", func(t *testing.T) { testErrClosedAfterClose(t, factory) })
	for _, n := range []int{2, 3, 4, 5} {
		n := n
		t.Run(fmt.Sprintf("RingDeadlockFreedom/M=%d", n), func(t *testing.T) {
			testRingExchange(t, factory, n, 50)
		})
	}
	t.Run("Metrics", func(t *testing.T) { testMetrics(t, factory) })
}

// metered is the optional telemetry accessor a backend exposes when it
// was built under an active obs registry.
type metered interface {
	FabricMetrics() *obs.FabricMetrics
}

// testMetrics pins the cross-backend metric contract: with telemetry
// active at construction, every ordered pair's sent counters equal the
// receiver's delivered counters, and wire/payload byte totals match
// exactly what the packets declared. Backends without a FabricMetrics
// accessor fail — instrumenting both sides is part of the contract.
func testMetrics(t *testing.T, factory Factory) {
	defer obs.SetActive(obs.NewRegistry())()
	const n, rounds = 4, 5
	tr := factory(t, n)
	defer tr.Close()
	m, ok := tr.(metered)
	if !ok {
		t.Fatalf("%T does not expose FabricMetrics()", tr)
	}
	fm := m.FabricMetrics()
	if fm == nil {
		t.Fatal("FabricMetrics() = nil despite an active registry at construction")
	}

	// wireOf/payloadOf make every ordered pair's traffic distinct so a
	// mixed-up index would be caught, not masked by symmetry.
	wireOf := func(from, to int) int { return 1000 + 10*from + to }
	payloadOf := func(from, to int) int { return 1 + 2*from + to }

	var wg sync.WaitGroup
	wg.Add(n)
	for r := 0; r < n; r++ {
		go func(rank int) {
			defer wg.Done()
			ep := tr.Endpoint(rank)
			for k := 0; k < rounds; k++ {
				for peer := 0; peer < n; peer++ {
					if peer == rank {
						continue
					}
					p := transport.Packet{
						Data: make([]byte, payloadOf(rank, peer)),
						Wire: wireOf(rank, peer),
					}
					if err := ep.Send(peer, p); err != nil {
						t.Errorf("rank %d send: %v", rank, err)
						return
					}
				}
				for peer := 0; peer < n; peer++ {
					if peer == rank {
						continue
					}
					if _, err := ep.Recv(peer); err != nil {
						t.Errorf("rank %d recv: %v", rank, err)
						return
					}
				}
			}
		}(r)
	}
	waitAll(t, &wg, 15*time.Second, "metrics exchange")

	for from := 0; from < n; from++ {
		for to := 0; to < n; to++ {
			if from == to {
				continue
			}
			if got := fm.FramesSent(from, to); got != rounds {
				t.Errorf("FramesSent(%d,%d) = %d, want %d", from, to, got, rounds)
			}
			if sent, recv := fm.FramesSent(from, to), fm.FramesRecv(from, to); sent != recv {
				t.Errorf("pair (%d,%d): frames sent %d != delivered %d", from, to, sent, recv)
			}
			wantWire := int64(rounds * wireOf(from, to))
			if got := fm.WireSent(from, to); got != wantWire {
				t.Errorf("WireSent(%d,%d) = %d, want %d", from, to, got, wantWire)
			}
			if got := fm.WireRecv(from, to); got != wantWire {
				t.Errorf("WireRecv(%d,%d) = %d, want %d", from, to, got, wantWire)
			}
			wantBytes := int64(rounds * payloadOf(from, to))
			if got := fm.BytesSent(from, to); got != wantBytes {
				t.Errorf("BytesSent(%d,%d) = %d, want %d", from, to, got, wantBytes)
			}
			if got := fm.BytesRecv(from, to); got != wantBytes {
				t.Errorf("BytesRecv(%d,%d) = %d, want %d", from, to, got, wantBytes)
			}
		}
	}
}

// waitAll fails the test if the wait group does not drain within the
// timeout — the deadlock detector for the exchange patterns.
func waitAll(t *testing.T, wg *sync.WaitGroup, timeout time.Duration, what string) {
	t.Helper()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(timeout):
		t.Fatalf("%s: deadlock (no progress within %v)", what, timeout)
	}
}

func testRankAndSize(t *testing.T, factory Factory) {
	const n = 3
	tr := factory(t, n)
	defer tr.Close()
	if tr.Size() != n {
		t.Fatalf("Size() = %d, want %d", tr.Size(), n)
	}
	for r := 0; r < n; r++ {
		ep := tr.Endpoint(r)
		if ep.Rank() != r || ep.Size() != n {
			t.Fatalf("endpoint %d reports rank %d size %d", r, ep.Rank(), ep.Size())
		}
	}
}

// testFIFOPerPair checks packets between a fixed pair arrive in send
// order with payload, Wire, Clock and Job intact. A job-scoped view
// (anything exposing ID() uint32, i.e. a jobmux fabric) owns the Job
// field instead: it must stamp its own id on every delivered frame.
func testFIFOPerPair(t *testing.T, factory Factory) {
	tr := factory(t, 2)
	defer tr.Close()
	wantJob := func(i int) uint32 { return uint32(i % 3) }
	if scoped, ok := tr.(interface{ ID() uint32 }); ok {
		id := scoped.ID()
		wantJob = func(int) uint32 { return id }
	}
	const count = 100
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		ep := tr.Endpoint(0)
		for i := 0; i < count; i++ {
			p := transport.Packet{Data: []byte{byte(i), byte(i >> 8)}, Wire: i, Clock: float64(i) / 8, Job: uint32(i % 3)}
			if err := ep.Send(1, p); err != nil {
				t.Errorf("send %d: %v", i, err)
				return
			}
		}
	}()
	go func() {
		defer wg.Done()
		ep := tr.Endpoint(1)
		for i := 0; i < count; i++ {
			p, err := ep.Recv(0)
			if err != nil {
				t.Errorf("recv %d: %v", i, err)
				return
			}
			if len(p.Data) != 2 || p.Data[0] != byte(i) || p.Data[1] != byte(i>>8) ||
				p.Wire != i || p.Clock != float64(i)/8 || p.Job != wantJob(i) {
				t.Errorf("recv %d: got %+v", i, p)
				return
			}
		}
	}()
	waitAll(t, &wg, 10*time.Second, "fifo per pair")
}

// testConcurrentSends has several goroutines Send on the same link at
// once — what jobmux does when jobs share a fabric — and checks every
// frame arrives whole, exactly once, and in each sender's own order.
// Payload lengths vary per frame, so two writers interleaving inside
// one frame, or publishing over each other, show up as a torn or lost
// frame.
func testConcurrentSends(t *testing.T, factory Factory) {
	tr := factory(t, 2)
	defer tr.Close()
	const senders, count = 4, 200
	frame := func(g, i int) transport.Packet {
		data := make([]byte, 3+(g*count+i)%61)
		data[0], data[1], data[2] = byte(g), byte(i), byte(i>>8)
		for k := 3; k < len(data); k++ {
			data[k] = byte(g*31 + i + k)
		}
		return transport.Packet{Data: data, Wire: g<<16 | i, Clock: float64(g*count + i)}
	}
	var wg sync.WaitGroup
	wg.Add(senders + 1)
	for g := 0; g < senders; g++ {
		go func(g int) {
			defer wg.Done()
			ep := tr.Endpoint(0)
			for i := 0; i < count; i++ {
				if err := ep.Send(1, frame(g, i)); err != nil {
					t.Errorf("sender %d send %d: %v", g, i, err)
					return
				}
			}
		}(g)
	}
	go func() {
		defer wg.Done()
		ep := tr.Endpoint(1)
		next := make([]int, senders)
		for k := 0; k < senders*count; k++ {
			p, err := ep.Recv(0)
			if err != nil {
				t.Errorf("recv %d: %v", k, err)
				return
			}
			g, i := p.Wire>>16, p.Wire&0xffff
			if g < 0 || g >= senders {
				t.Errorf("recv %d: frame from unknown sender %d", k, g)
				return
			}
			if i != next[g] {
				t.Errorf("recv %d: sender %d frame %d arrived, want %d", k, g, i, next[g])
				return
			}
			want := frame(g, i)
			if string(p.Data) != string(want.Data) || p.Clock != want.Clock {
				t.Errorf("recv %d: frame %d/%d arrived torn (%d bytes, want %d)", k, g, i, len(p.Data), len(want.Data))
				return
			}
			next[g]++
		}
	}()
	waitAll(t, &wg, 15*time.Second, "concurrent sends on one link")
}

// testPairwiseExchange has every ordered pair exchange messages
// concurrently for several rounds; under -race this also checks the
// fabric is data-race free.
func testPairwiseExchange(t *testing.T, factory Factory) {
	const n, rounds = 4, 20
	tr := factory(t, n)
	defer tr.Close()
	var wg sync.WaitGroup
	wg.Add(n)
	for r := 0; r < n; r++ {
		go func(rank int) {
			defer wg.Done()
			ep := tr.Endpoint(rank)
			for k := 0; k < rounds; k++ {
				for peer := 0; peer < n; peer++ {
					if peer == rank {
						continue
					}
					msg := []byte(fmt.Sprintf("%d->%d#%d", rank, peer, k))
					if err := ep.Send(peer, transport.Packet{Data: msg, Wire: len(msg)}); err != nil {
						t.Errorf("rank %d send: %v", rank, err)
						return
					}
				}
				for peer := 0; peer < n; peer++ {
					if peer == rank {
						continue
					}
					p, err := ep.Recv(peer)
					if err != nil {
						t.Errorf("rank %d recv: %v", rank, err)
						return
					}
					want := fmt.Sprintf("%d->%d#%d", peer, rank, k)
					if string(p.Data) != want {
						t.Errorf("rank %d got %q, want %q", rank, p.Data, want)
						return
					}
				}
			}
		}(r)
	}
	waitAll(t, &wg, 15*time.Second, "pairwise exchange")
}

// testBlockingRecv checks Recv genuinely blocks until a packet arrives,
// then returns exactly it.
func testBlockingRecv(t *testing.T, factory Factory) {
	tr := factory(t, 2)
	defer tr.Close()
	got := make(chan transport.Packet, 1)
	errs := make(chan error, 1)
	go func() {
		p, err := tr.Endpoint(1).Recv(0)
		if err != nil {
			errs <- err
			return
		}
		got <- p
	}()
	select {
	case p := <-got:
		t.Fatalf("Recv returned %+v before anything was sent", p)
	case err := <-errs:
		t.Fatalf("Recv failed early: %v", err)
	case <-time.After(50 * time.Millisecond):
	}
	if err := tr.Endpoint(0).Send(1, transport.Packet{Data: []byte("late"), Wire: 4, Clock: 2.5}); err != nil {
		t.Fatalf("send: %v", err)
	}
	select {
	case p := <-got:
		if string(p.Data) != "late" || p.Wire != 4 || p.Clock != 2.5 {
			t.Fatalf("got %+v", p)
		}
	case err := <-errs:
		t.Fatalf("recv: %v", err)
	case <-time.After(10 * time.Second):
		t.Fatal("Recv did not wake after Send")
	}
}

// testCloseUnblocksRecv checks Close releases a Recv blocked on a link
// that never receives traffic.
func testCloseUnblocksRecv(t *testing.T, factory Factory) {
	tr := factory(t, 2)
	errs := make(chan error, 1)
	go func() {
		_, err := tr.Endpoint(1).Recv(0)
		errs <- err
	}()
	time.Sleep(20 * time.Millisecond)
	tr.Close()
	tr.Close() // idempotent
	select {
	case err := <-errs:
		if err != transport.ErrClosed {
			t.Fatalf("got %v, want ErrClosed", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not unblock Recv")
	}
}

// testErrClosedAfterClose checks Send and Recv report ErrClosed once the
// fabric is down.
func testErrClosedAfterClose(t *testing.T, factory Factory) {
	tr := factory(t, 2)
	tr.Close()
	if err := tr.Endpoint(0).Send(1, transport.Packet{Data: []byte("x"), Wire: 1}); err != transport.ErrClosed {
		t.Fatalf("Send after Close: %v, want ErrClosed", err)
	}
	if _, err := tr.Endpoint(1).Recv(0); err != transport.ErrClosed {
		t.Fatalf("Recv after Close: %v, want ErrClosed", err)
	}
}

// testRingExchange runs the collective engine's neighbor pattern — every
// rank posts to its successor, then receives from its predecessor — the
// shape whose all-send cycle deadlocks on an unbuffered fabric.
func testRingExchange(t *testing.T, factory Factory, n, steps int) {
	tr := factory(t, n)
	defer tr.Close()
	var wg sync.WaitGroup
	wg.Add(n)
	for r := 0; r < n; r++ {
		go func(rank int) {
			defer wg.Done()
			ep := tr.Endpoint(rank)
			next := (rank + 1) % n
			prev := (rank - 1 + n) % n
			for s := 0; s < steps; s++ {
				if err := ep.Send(next, transport.Packet{Data: []byte{byte(s)}, Wire: 1}); err != nil {
					t.Errorf("rank %d step %d send: %v", rank, s, err)
					return
				}
				p, err := ep.Recv(prev)
				if err != nil {
					t.Errorf("rank %d step %d recv: %v", rank, s, err)
					return
				}
				if p.Data[0] != byte(s) {
					t.Errorf("rank %d step %d: got %d", rank, s, p.Data[0])
					return
				}
			}
		}(r)
	}
	waitAll(t, &wg, 15*time.Second, fmt.Sprintf("ring M=%d", n))
}
