package collective

import (
	"math"
	"testing"

	"marsit/internal/rng"
	"marsit/internal/tensor"
)

// This file pins the blocked SSDMSignsInto to the per-element scalar
// kernel it replaced: refSSDMSignsInto below is that loop, kept as the
// oracle. Equality covers the output float bits, the returned norm and
// the RNG stream position after the call.

// refSSDMSignsInto is the scalar SSDMSignsInto oracle.
func refSSDMSignsInto(dst []float64, v tensor.Vec, r *rng.PCG) float64 {
	norm := tensor.Norm2(v)
	for i, x := range v {
		pKeep := 0.5
		if norm > 0 {
			pKeep = 0.5 + math.Abs(x)/(2*norm)
		}
		s := tensor.Sign(x)
		if !r.Bernoulli(pKeep) {
			s = -s
		}
		dst[i] = s
	}
	return norm
}

// ssdmEdgeCases are inputs whose sign or keep probability is a corner
// of the Bernoulli rule: signed zeros, NaN (a NaN pKeep draws and
// flips; a NaN norm makes every pKeep 1/2) and infinities (an infinite
// norm, and Inf/Inf = NaN for the infinite element itself).
var ssdmEdgeCases = []float64{0, math.Copysign(0, -1), math.NaN(), math.Inf(1), math.Inf(-1), 1e-300, -2.5}

// ssdmInput builds a length-n vector: normal values with every
// eleventh element an edge case when edges is set.
func ssdmInput(seed uint64, n int, edges bool) tensor.Vec {
	r := rng.New(seed)
	v := r.NormVec(tensor.New(n), 0, 1)
	if edges {
		for i := 3; i < n; i += 11 {
			v[i] = ssdmEdgeCases[(seed+uint64(i))%uint64(len(ssdmEdgeCases))]
		}
	}
	return v
}

func checkSSDMAgainstScalar(t *testing.T, seed uint64, v tensor.Vec) {
	t.Helper()
	got, want := make([]float64, len(v)), make([]float64, len(v))
	rf, rr := rng.NewStream(seed, 5), rng.NewStream(seed, 5)
	gn := SSDMSignsInto(got, v, rf)
	wn := refSSDMSignsInto(want, v, rr)
	if math.Float64bits(gn) != math.Float64bits(wn) {
		t.Fatalf("n=%d: norm %v, oracle %v", len(v), gn, wn)
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("n=%d: sign[%d] of %v = %v, oracle %v", len(v), i, v[i], got[i], want[i])
		}
	}
	if gf, gr := rf.Uint64(), rr.Uint64(); gf != gr {
		t.Fatalf("n=%d: stream position diverges (next draw %x, oracle %x)", len(v), gf, gr)
	}
}

func TestSSDMSignsMatchesScalar(t *testing.T) {
	for _, n := range []int{1, 2, 63, 64, 65, 127, 128, 129, 1000} {
		checkSSDMAgainstScalar(t, uint64(n), ssdmInput(uint64(n), n, false))
		checkSSDMAgainstScalar(t, uint64(n)+1, ssdmInput(uint64(n), n, true))

		// Norm 0: every pKeep is 1/2, so every element draws.
		checkSSDMAgainstScalar(t, uint64(n)+2, tensor.New(n))

		// One non-zero element: its pKeep is exactly 1 (no draw), the
		// zeros around it 1/2.
		one := tensor.New(n)
		one[n/2] = -3
		checkSSDMAgainstScalar(t, uint64(n)+3, one)

		// The last element set to each edge case in turn.
		for _, x := range ssdmEdgeCases {
			v := ssdmInput(uint64(n)+4, n, false)
			v[n-1] = x
			checkSSDMAgainstScalar(t, uint64(n)+5, v)
		}
	}
}

func FuzzSSDMSignsAgainstScalar(f *testing.F) {
	for _, n := range []int{1, 63, 64, 65, 129, 1000} {
		f.Add(uint64(n), uint16(n), true, uint8(0))
		f.Add(uint64(n), uint16(n), false, uint8(1))
	}
	f.Fuzz(func(t *testing.T, seed uint64, nRaw uint16, edges bool, shape uint8) {
		n := int(nRaw)%2048 + 1
		v := ssdmInput(seed, n, edges)
		switch shape % 4 {
		case 1: // all zero: norm 0
			tensor.Zero(v)
		case 2: // a single non-zero element: pKeep 1 there
			i := seed % uint64(n)
			x := v[i]
			tensor.Zero(v)
			v[i] = x
		case 3: // squares underflow: norm 0 with non-zero elements
			tensor.Scale(v, 1e-200)
		}
		checkSSDMAgainstScalar(t, seed, v)
	})
}

// BenchmarkKernelSSDM times the blocked SSDM compressor against the
// scalar oracle at D = 1e5.
func BenchmarkKernelSSDM(b *testing.B) {
	const d = 100_000
	v := ssdmInput(1, d, false)
	dst := make([]float64, d)
	for _, k := range []struct {
		name string
		ssdm func(dst []float64, v tensor.Vec, r *rng.PCG) float64
	}{{"block", SSDMSignsInto}, {"scalar", refSSDMSignsInto}} {
		b.Run(k.name, func(b *testing.B) {
			r := rng.New(2)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				k.ssdm(dst, v, r)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/d, "ns/elem")
		})
	}
}
