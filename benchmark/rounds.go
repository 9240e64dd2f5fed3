package main

import (
	"fmt"
	"math"
	"time"

	"marsit/internal/collective/registry"
	"marsit/internal/netsim"
	"marsit/internal/rng"
	"marsit/internal/runtime"
	"marsit/internal/tensor"
	"marsit/internal/transport/tcp"
)

// The rounds-tcp shape: single collective rounds at M = 4, D = 100,000
// on the parallel engine over one in-process TCP fabric. An operation is
// one round of each of the paper's three contenders, in a fixed order:
// full precision (rar), cascading compression and Marsit. Running all
// three in every operation makes drift of the machine hit them alike.
const (
	roundDim     = 100_000
	roundSets    = 4 // input sets the operations cycle through
	roundSetups  = 9
	roundOpLimit = 10 * time.Second
)

var roundCollectives = []string{"rar", "cascading", "marsit"}

// roundOpts is the collective configuration every round uses: K = 0, so
// Marsit is one-bit in every round and the per-round counts do not
// depend on how many rounds ran.
func roundOpts(seed uint64, dim int) *registry.Opts {
	return &registry.Opts{Workers: workers, Dim: dim, Seed: seed, K: 0, GlobalLR: 0.01}
}

// gradSets synthesizes sets of per-rank gradients from seed.
func gradSets(seed uint64, sets, dim int) [][]tensor.Vec {
	r := rng.NewStream(seed, 0x6ad)
	out := make([][]tensor.Vec, sets)
	for s := range out {
		out[s] = make([]tensor.Vec, workers)
		for w := range out[s] {
			out[s][w] = r.NormVec(tensor.New(dim), 0, 1)
		}
	}
	return out
}

// tcpEngine starts the parallel engine over a fresh in-process TCP
// fabric; closing the engine closes the fabric.
func tcpEngine() (*runtime.Engine, error) {
	fab, err := tcp.NewLocal(workers)
	if err != nil {
		return nil, err
	}
	return runtime.NewWithOwnedTransport(fab), nil
}

// rig is one collective opened on the parallel engine, next to the
// sequential oracle driven with the same inputs: both are stateful, and
// stay in lockstep because every round feeds them identical copies.
type rig struct {
	name       string
	par        *runtime.Collective
	seq        registry.SeqRunner
	cPar, cSeq *netsim.Cluster
	parIn      []tensor.Vec // scratch the rounds may overwrite
	seqIn      []tensor.Vec
}

func openRig(eng *runtime.Engine, name string, seed uint64, dim int) (*rig, error) {
	desc, err := registry.Get(name)
	if err != nil {
		return nil, err
	}
	par, err := eng.Open(desc, roundOpts(seed, dim))
	if err != nil {
		return nil, err
	}
	seq, err := desc.Seq(roundOpts(seed, dim))
	if err != nil {
		return nil, err
	}
	r := &rig{
		name: name, par: par, seq: seq,
		cPar: netsim.NewCluster(workers, netsim.DefaultCostModel()),
		cSeq: netsim.NewCluster(workers, netsim.DefaultCostModel()),
	}
	for w := 0; w < workers; w++ {
		r.parIn = append(r.parIn, tensor.New(dim))
		r.seqIn = append(r.seqIn, tensor.New(dim))
	}
	return r, nil
}

// step runs one round of in on both engines and checks that results,
// wire bytes and simulated clocks are identical. It returns the parallel
// round's wall time and rank 0's result.
func (r *rig) step(in []tensor.Vec, sp *spans, op int64, parent int) (time.Duration, tensor.Vec, error) {
	for w := range in {
		copy(r.parIn[w], in[w])
		copy(r.seqIn[w], in[w])
	}
	var wall time.Duration
	var parOut, seqOut []tensor.Vec
	err := within(roundOpLimit, func() error {
		id := sp.begin("runtime.Collective.Run."+r.name, op, parent)
		t0 := time.Now()
		parOut = r.par.Run(r.cPar, r.parIn)
		wall = time.Since(t0)
		sp.end(id)
		return nil
	})
	if err != nil {
		return 0, nil, fmt.Errorf("runtime.Collective.Run %s: %w", r.name, err)
	}
	err = within(roundOpLimit, func() error {
		sp.do("collective.seq."+r.name, op, parent, func() { seqOut = r.seq(r.cSeq, r.seqIn) })
		return nil
	})
	if err != nil {
		return 0, nil, fmt.Errorf("sequential %s: %w", r.name, err)
	}
	id := sp.begin("verify", op, parent)
	defer sp.end(id)
	for w := range parOut {
		for i := range parOut[w] {
			if math.Float64bits(parOut[w][i]) != math.Float64bits(seqOut[w][i]) {
				return 0, nil, fmt.Errorf("%s: rank %d element %d is %v, sequential oracle %v",
					r.name, w, i, parOut[w][i], seqOut[w][i])
			}
		}
	}
	if pb, sb := r.cPar.TotalBytes(), r.cSeq.TotalBytes(); pb != sb {
		return 0, nil, fmt.Errorf("%s: %d wire bytes, sequential oracle %d", r.name, pb, sb)
	}
	if pt, st := r.cPar.Time(), r.cSeq.Time(); math.Float64bits(pt) != math.Float64bits(st) {
		return 0, nil, fmt.Errorf("%s: simulated clock %v, sequential oracle %v", r.name, pt, st)
	}
	return wall, parOut[0], nil
}

// trueMeans returns the exact mean gradient of each input set.
func trueMeans(sets [][]tensor.Vec) []tensor.Vec {
	out := make([]tensor.Vec, len(sets))
	for s, set := range sets {
		out[s] = tensor.New(len(set[0]))
		for _, g := range set {
			tensor.Add(out[s], g)
		}
		tensor.Scale(out[s], 1/float64(len(set)))
	}
	return out
}

// openRounds sets up the rounds-tcp workload: the engine over a fresh
// TCP fabric, one rig per collective, and the input sets.
func openRounds(seed uint64) (*runtime.Engine, []*rig, [][]tensor.Vec, error) {
	eng, err := tcpEngine()
	if err != nil {
		return nil, nil, nil, err
	}
	rigs := make([]*rig, len(roundCollectives))
	for i, name := range roundCollectives {
		if rigs[i], err = openRig(eng, name, seed, roundDim); err != nil {
			eng.Close()
			return nil, nil, nil, err
		}
	}
	return eng, rigs, gradSets(seed, roundSets, roundDim), nil
}

// runRounds is the rounds-tcp workload: one closed-loop client runs
// operations of one round per collective, each round checked against
// the sequential oracle on the same inputs.
func runRounds(rc runCfg) *outcome {
	o := &outcome{}
	var eng *runtime.Engine
	var rigs []*rig
	var sets [][]tensor.Vec
	for i := 0; i < roundSetups; i++ {
		if eng != nil {
			eng.Close()
		}
		t0 := time.Now()
		var err error
		if eng, rigs, sets, err = openRounds(rc.seed); err != nil {
			o.attempted++
			o.fail("set-up over tcp: %w", err)
			return o
		}
		o.setups = append(o.setups, time.Since(t0).Seconds())
	}
	defer eng.Close()
	means := trueMeans(sets)

	// op runs operation id on input set k (warm-up ids are negative) and
	// returns the sign agreement of each round's result with the exact
	// mean.
	op := func(id, k int, timed bool) (agree []float64) {
		root := rc.spans.begin("op", int64(id), -1)
		defer rc.spans.end(root)
		o.attempted++
		var total time.Duration
		for _, r := range rigs {
			wall, out, err := r.step(sets[k], rc.spans, int64(id), root)
			if err != nil {
				o.fail("op %d: %w", id, err)
				return nil
			}
			total += wall
			agree = append(agree, tensor.MatchRate(out, means[k]))
		}
		if timed {
			o.lat = append(o.lat, ms(total))
			o.busy += total
		}
		return agree
	}

	// Warm-up, one operation per input set: untimed, verified, and the
	// source of the exact per-operation figures.
	var accs []float64
	for i := 0; i < roundSets; i++ {
		agree := op(i-roundSets, i, false)
		if agree == nil {
			return o
		}
		accs = append(accs, agree...)
	}
	o.accuracy = mean(accs)
	for _, r := range rigs {
		o.wireMB += float64(r.cPar.TotalBytes()) / 1e6 / roundSets
		o.simMS += r.cPar.Time() * 1e3 / roundSets
	}

	start := time.Now()
	for i := 0; rc.more(start) && !o.aborted; i++ {
		op(i, i%roundSets, true)
	}
	return o
}
