// Package transport abstracts point-to-point message passing between the
// ranks of the concurrent execution engine (internal/runtime). A Transport
// is a fabric connecting n ranks; each rank obtains its Endpoint once and
// then exchanges Packets with peers from its own goroutine.
//
// The contract is deliberately minimal — FIFO per (sender, receiver) pair,
// blocking receives, byte-slice payloads — and collectives are written
// against Endpoint only, never assuming shared memory. Four backends
// implement it:
//
//   - Loopback (this package): n² buffered in-process channels, zero-copy
//     payload delivery.
//   - TCP (transport/tcp): one full-duplex socket per rank pair carrying
//     length-prefixed frames of Wire, Clock and payload, with a
//     rendezvous layer that assembles an n-rank fabric from a list of
//     addresses — across goroutines, processes or machines
//     (cmd/marsit-node hosts one rank per process).
//   - Shared memory (transport/shm): one mmap'd single-producer
//     single-consumer ring per ordered rank pair, carrying the same
//     frame layout as TCP without sockets or syscalls on the data
//     path — for ranks co-located on one machine (see docs/transport.md).
//   - Hybrid (transport/hybrid): a composite that routes each (from, to)
//     link to shm when both ranks share a host and to TCP otherwise,
//     from a rank→host map.
//
// The shared conformance suite in transport/transporttest pins the
// contract for every backend. GetBuffer/PutBuffer recycle payload buffers
// through a pool shared by all of them; see their ownership contract.
package transport

import "errors"

// ErrClosed is returned by Send and Recv after the transport is closed.
var ErrClosed = errors.New("transport: closed")

// Packet is one point-to-point message between ranks.
type Packet struct {
	// Data is the serialized payload. The loopback transport passes the
	// slice by reference, so a sender must not mutate or reuse it after
	// Send; wire backends would copy it onto the socket instead.
	Data []byte
	// Job identifies the training job this packet belongs to. 0 is the
	// default (one-shot runs and the daemon's control channel); the
	// jobmux middleware stamps it on Send and demultiplexes per-job
	// endpoints over one shared fabric. Backends must deliver it intact
	// next to Wire and Clock (the TCP frame header carries it; the hello
	// handshake version-gates the extension so mixed-version fleets fail
	// fast instead of misparsing frames). Like the frame header itself it
	// is never charged to the simulation.
	Job uint32
	// Wire is the simulated size of this message in bytes. It may differ
	// from len(Data): the simulation charges float32 wire widths and
	// headerless bit payloads while the in-memory encoding is float64
	// with framing.
	Wire int
	// Clock is the sender's virtual clock (simulated seconds) when the
	// packet was posted. Receivers use it to reproduce the α–β arrival
	// arithmetic of the netsim cost model, keeping virtual time identical
	// between the sequential and concurrent engines.
	Clock float64
}

// Endpoint is one rank's view of the fabric. Sends may run
// concurrently, on one link or many: each arrives as a whole frame, and
// one goroutine's Sends on a link keep their order. Recvs on distinct
// links may run concurrently; a link has one receiving goroutine at a
// time.
type Endpoint interface {
	// Rank returns the rank this endpoint belongs to.
	Rank() int
	// Size returns the number of ranks in the fabric.
	Size() int
	// Send posts p to rank to. Packets between a fixed (sender, receiver)
	// pair are delivered in FIFO order. Send may block while the link
	// buffer is full; it returns ErrClosed after Close.
	Send(to int, p Packet) error
	// Recv blocks until a packet from rank from arrives; it returns
	// ErrClosed after Close.
	Recv(from int) (Packet, error)
}

// Transport is a fabric connecting Size ranks, one Endpoint each.
type Transport interface {
	// Size returns the number of ranks.
	Size() int
	// Endpoint returns rank's endpoint. The same Endpoint is returned on
	// every call for a given rank.
	Endpoint(rank int) Endpoint
	// Close tears the fabric down, unblocking pending Sends and Recvs
	// with ErrClosed. Close is idempotent.
	Close() error
}
