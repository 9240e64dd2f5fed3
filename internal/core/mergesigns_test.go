package core

import (
	"testing"

	"marsit/internal/bitvec"
	"marsit/internal/rng"
)

// This file pins the word-at-a-time MergeSigns to the per-bit scalar
// kernel it replaced: refMergeSigns below is that loop, kept as the
// oracle. Equality covers both the merged bits and the RNG stream
// position after the call, so every fixed-seed result downstream of the
// merge stays bit-identical.

// refMergeSigns is the scalar MergeSigns oracle: one Bernoulli draw per
// element into a materialized transient vector, then the ⊙ merge.
func refMergeSigns(agg, local *bitvec.Vec, aWeight, bWeight int, r *rng.PCG) {
	total := float64(aWeight + bWeight)
	pLocal1 := float64(bWeight) / total
	pLocal0 := float64(aWeight) / total
	transient := bitvec.New(agg.Len())
	for i := 0; i < agg.Len(); i++ {
		p := pLocal0
		if local.Get(i) {
			p = pLocal1
		}
		transient.Set(i, r.Bernoulli(p))
	}
	agg.Merge3(local, transient)
}

// mergeWeights are (aggregate, local) weight pairs the schedules use:
// the ring's ((s+1), 1), the torus column phase's ((s+1)·cols, cols) and
// the tree's unbalanced subtree weights.
var mergeWeights = [][2]int{{1, 1}, {2, 1}, {3, 1}, {7, 1}, {2, 2}, {4, 2}, {6, 3}, {3, 2}, {1, 3}, {5, 11}}

// mergeLens cover word boundaries and the tails around them.
var mergeLens = []int{1, 7, 63, 64, 65, 127, 128, 129, 200, 1000}

func mergeInputs(seed uint64, n int, pAgg, pLocal float64) (agg, local *bitvec.Vec) {
	r := rng.New(seed)
	agg, local = bitvec.New(n), bitvec.New(n)
	agg.FillBernoulli(r, pAgg)
	local.FillBernoulli(r, pLocal)
	return agg, local
}

// checkMergeAgainstScalar runs the fast kernel and the oracle on equal
// inputs and streams and fails on any difference in bits or stream.
func checkMergeAgainstScalar(t *testing.T, seed uint64, n, a, b int, pAgg, pLocal float64) {
	t.Helper()
	fast, local := mergeInputs(seed, n, pAgg, pLocal)
	ref := fast.Clone()
	rf, rr := rng.NewStream(seed, 9), rng.NewStream(seed, 9)
	MergeSigns(fast, local, a, b, rf)
	refMergeSigns(ref, local, a, b, rr)
	if !fast.Equal(ref) {
		t.Fatalf("n=%d w=(%d,%d): merged bits diverge from the scalar oracle\nfast %s\nref  %s", n, a, b, fast, ref)
	}
	if gf, gr := rf.Uint64(), rr.Uint64(); gf != gr {
		t.Fatalf("n=%d w=(%d,%d): stream position diverges (next draw %x, oracle %x)", n, a, b, gf, gr)
	}
}

func TestMergeSignsMatchesScalar(t *testing.T) {
	for _, n := range mergeLens {
		for _, w := range mergeWeights {
			// Mixed, all-agreeing and all-disagreeing inputs.
			checkMergeAgainstScalar(t, uint64(n*131+w[0]), n, w[0], w[1], 0.5, 0.5)
			checkMergeAgainstScalar(t, uint64(n*137+w[1]), n, w[0], w[1], 1, 1)
			checkMergeAgainstScalar(t, uint64(n*139+w[0]), n, w[0], w[1], 0, 1)
		}
	}
}

func FuzzMergeSignsAgainstScalar(f *testing.F) {
	for i, n := range mergeLens {
		w := mergeWeights[i%len(mergeWeights)]
		f.Add(uint64(n), uint16(n), uint8(w[0]), uint8(w[1]), uint8(128), uint8(128))
	}
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint16, aRaw, bRaw, pAggRaw, pLocalRaw uint8) {
		n := int(nRaw)%2048 + 1
		a, b := int(aRaw)%64+1, int(bRaw)%64+1
		checkMergeAgainstScalar(t, seed, n, a, b, float64(pAggRaw)/255, float64(pLocalRaw)/255)
	})
}

// BenchmarkKernelMergeSigns times the word-at-a-time merge against the
// scalar oracle at D = 1e5 with half the bits disagreeing.
func BenchmarkKernelMergeSigns(b *testing.B) {
	const d = 100_000
	agg, local := mergeInputs(1, d, 0.5, 0.5)
	for _, k := range []struct {
		name  string
		merge func(agg, local *bitvec.Vec, aWeight, bWeight int, r *rng.PCG)
	}{{"word", MergeSigns}, {"scalar", refMergeSigns}} {
		b.Run(k.name, func(b *testing.B) {
			r := rng.New(2)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.merge(agg, local, 3, 1, r)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/d, "ns/elem")
		})
	}
}
