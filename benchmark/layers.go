package main

import (
	"fmt"
	gort "runtime"
	"time"

	"marsit/internal/bitvec"
	"marsit/internal/calib"
	"marsit/internal/collective"
	"marsit/internal/collective/registry"
	"marsit/internal/core"
	"marsit/internal/netsim"
	"marsit/internal/nn"
	"marsit/internal/obs"
	"marsit/internal/optim"
	"marsit/internal/rng"
	"marsit/internal/tensor"
	"marsit/internal/train"
	"marsit/internal/transport"
	"marsit/internal/transport/tcp"
)

// The layer probes time the benchmark's own calls into each module's
// public functions on workload-sized inputs. Every traced run reports
// all of them, whatever its workload, next to the trace overhead of the
// workload itself.
const (
	probeReps    = 30 // timed calls per probe; the median is reported
	probeRounds  = 8  // rounds per counting or timing window
	probeJobTime = 2 * time.Second
)

// countedCollectives are the collectives whose fabric counts are
// reported: the rounds-tcp collectives and the jobs-tcp tree.
var countedCollectives = []struct {
	name string
	dim  int
}{{"rar", roundDim}, {"cascading", roundDim}, {"marsit", roundDim}, {"tree", jobDim}}

type layerResult struct {
	metrics   map[string]metric
	attempted int
	failed    int
	failures  []string
}

func (lr *layerResult) set(name, unit string, v float64) { lr.metrics[name] = metric{v, unit} }

// check counts one verified probe operation.
func (lr *layerResult) check(err error) bool {
	lr.attempted++
	if err != nil {
		lr.failed++
		lr.failures = append(lr.failures, err.Error())
		return false
	}
	return true
}

// medianNS times n calls of f and returns the median in nanoseconds.
func medianNS(n int, f func()) float64 {
	ts := make([]float64, n)
	for i := range ts {
		t0 := time.Now()
		f()
		ts[i] = float64(time.Since(t0).Nanoseconds())
	}
	return median(ts)
}

// runLayers runs every probe with telemetry off, except the counting
// pass, which installs its own registry.
func runLayers(seed uint64) *layerResult {
	lr := &layerResult{metrics: map[string]metric{}}
	probeModel(lr, seed)
	probeKernels(lr, seed)
	probeOracle(lr, seed)
	probeHops(lr)
	probeCounts(lr, seed)
	probeAllocs(lr, seed)
	probeService(lr, seed)
	return lr
}

// probeModel times the model compute, the optimizer, one training run
// and one Marsit synchronization at the train-marsit shape.
func probeModel(lr *layerResult, seed uint64) {
	ds := trainData()
	model := nn.NewMLP(rng.NewStream(seed, 1), 192, trainHidden, 10)
	d := model.NumParams()
	xs, ys := ds[0].Batch(rng.NewStream(seed, 2), trainBatch)
	grad := tensor.New(d)
	lossgrad := medianNS(probeReps, func() {
		tensor.Zero(grad)
		for i := range xs {
			model.LossGrad(xs[i], ys[i], grad)
		}
	}) / 1e6
	lr.set("nn.lossgrad_ms", "ms", lossgrad)

	opt, err := optim.ByName("sgd", 1e-9, d)
	if lr.check(err) {
		params := tensor.Clone(model.Params())
		lr.set("optim.step_ms", "ms", medianNS(probeReps, func() { opt.Step(params, grad) })/1e6)
	}

	var res *train.Result
	var wall time.Duration
	err = within(trainOpLimit, func() (err error) {
		t0 := time.Now()
		res, err = train.Run(trainConfig(seed, ds, train.EnginePar))
		wall = time.Since(t0)
		return err
	})
	if err == nil && res.Diverged {
		err = fmt.Errorf("train.Run diverged at round %d", res.DivergedAt)
	}
	if lr.check(err) {
		roundMS := ms(wall) / trainRounds
		lr.set("train.compute_share", "ratio", workers*lossgrad/roundMS)
	}

	m, err := core.New(core.Config{Workers: workers, Dim: d, GlobalLR: 0.01, Seed: seed, Parallel: true})
	if !lr.check(err) {
		return
	}
	defer m.Close()
	c := netsim.NewCluster(workers, netsim.DefaultCostModel())
	grads := make([]tensor.Vec, workers)
	r := rng.NewStream(seed, 3)
	for w := range grads {
		grads[w] = r.NormVec(tensor.New(d), 0, 1e-3)
	}
	err = within(roundOpLimit, func() error {
		lr.set("core.marsit_sync_ms", "ms", medianNS(probeReps, func() { m.Sync(c, grads) })/1e6)
		return nil
	})
	lr.check(err)
}

// probeKernels times the sign kernels per element at D = 100,000.
func probeKernels(lr *layerResult, seed uint64) {
	r := rng.NewStream(seed, 4)
	src := r.NormVec(tensor.New(roundDim), 0, 1)
	dst := tensor.New(roundDim)
	v := bitvec.New(roundDim)
	perElem := func(f func()) float64 { return medianNS(probeReps, f) / roundDim }

	lr.set("bitvec.pack_ns_per_elem", "ns/elem", perElem(func() { v.PackSigns(src) }))
	lr.set("bitvec.unpack_ns_per_elem", "ns/elem", perElem(func() { v.UnpackSigns(dst) }))
	var err error
	for i := range src {
		if (src[i] >= 0) != (dst[i] > 0) {
			err = fmt.Errorf("bitvec: sign %d lost in a pack/unpack round trip", i)
			break
		}
	}
	lr.check(err)

	local := bitvec.New(roundDim)
	local.FillBernoulli(r, 0.5)
	transient := bitvec.New(roundDim)
	transient.FillBernoulli(r, 0.5)
	agg := v.Clone()
	lr.set("bitvec.merge3_ns_per_elem", "ns/elem", perElem(func() { agg.Merge3(local, transient) }))
	lr.set("core.mergesigns_ns_per_elem", "ns/elem", perElem(func() { core.MergeSigns(agg, local, 1, 1, r) }))
	lr.set("collective.ssdm_ns_per_elem", "ns/elem", perElem(func() { collective.SSDMSignsInto(dst, src, r) }))
}

// probeOracle times the sequential oracle's rounds: tree at the jobs
// shape, the rounds collectives at theirs.
func probeOracle(lr *layerResult, seed uint64) {
	for _, cc := range countedCollectives {
		desc, err := registry.Get(cc.name)
		if !lr.check(err) {
			continue
		}
		run, err := desc.Seq(roundOpts(seed, cc.dim))
		if !lr.check(err) {
			continue
		}
		c := netsim.NewCluster(workers, netsim.DefaultCostModel())
		in := gradSets(seed, 1, cc.dim)[0]
		work := make([]tensor.Vec, len(in))
		ts := make([]float64, probeReps)
		err = within(roundOpLimit, func() error {
			for i := range ts {
				for w := range in {
					work[w] = tensor.Clone(in[w])
				}
				t0 := time.Now()
				run(c, work)
				ts[i] = ms(time.Since(t0))
			}
			return nil
		})
		if lr.check(err) {
			lr.set("collective.seq_round_ms."+cc.name, "ms", median(ts))
		}
	}
}

// probeHops measures one TCP hop as half a ping-pong round trip on a
// standalone 2-rank fabric.
func probeHops(lr *layerResult) {
	fab, err := tcp.NewLocal(2)
	if !lr.check(err) {
		return
	}
	defer fab.Close()
	a, b := fab.Endpoint(0), fab.Endpoint(1)
	sizes := []struct {
		label string
		bytes int
		reps  int
	}{{"512B", 512, 2000}, {"4KiB", 4 << 10, 2000}, {"256KiB", 256 << 10, 200}}
	for _, sz := range sizes {
		ts := make([]float64, sz.reps)
		err := within(roundOpLimit, func() error {
			echo := make(chan error, 1)
			go func() {
				for range ts {
					p, err := b.Recv(0)
					if err == nil {
						err = b.Send(0, p)
					}
					if err != nil {
						echo <- err
						return
					}
				}
				echo <- nil
			}()
			for i := range ts {
				buf := transport.GetBuffer(sz.bytes)
				t0 := time.Now()
				if err := a.Send(1, transport.Packet{Data: buf, Wire: sz.bytes}); err != nil {
					return err
				}
				p, err := a.Recv(1)
				if err != nil {
					return err
				}
				ts[i] = float64(time.Since(t0).Nanoseconds()) / 2e3
				if len(p.Data) != sz.bytes {
					return fmt.Errorf("tcp: %d-byte frame echoed as %d bytes", sz.bytes, len(p.Data))
				}
				transport.PutBuffer(p.Data)
			}
			return <-echo
		})
		if lr.check(err) {
			lr.set("tcp.hop_us_p50."+sz.label, "us", median(ts))
		}
	}
}

// probeCounts runs verified rounds of each counted collective over TCP
// with the telemetry registry attached, and reports the fabric's frame
// and byte counts per round, the writev coalescing, the payload pool's
// hit ratio, and the calibration recorder's wall-time split. Counts are
// whole-window totals over rounds, and two windows must agree exactly.
func probeCounts(lr *layerResult, seed uint64) {
	reg := obs.NewRegistry()
	rec := reg.EnsureCalib(workers)
	defer obs.SetActive(reg)()
	var flushes, flushed int64
	for _, cc := range countedCollectives {
		eng, err := tcpEngine()
		if !lr.check(err) {
			continue
		}
		r, err := openRig(eng, cc.name, seed, cc.dim)
		if !lr.check(err) {
			eng.Close()
			continue
		}
		fabrics := reg.Fabrics()
		fm := fabrics[len(fabrics)-1]
		sets := gradSets(seed, roundSets, cc.dim)
		window := func() (frames, payload int64, err error) {
			f0, _, p0 := fm.Totals()
			for i := 0; i < probeRounds; i++ {
				if _, _, err := r.step(sets[i%roundSets], nil, int64(i), -1); err != nil {
					return 0, 0, err
				}
			}
			f1, _, p1 := fm.Totals()
			return f1 - f0, p1 - p0, nil
		}
		_, _, err = window() // warm-up
		if !lr.check(err) {
			eng.Close()
			continue
		}
		calBase := rec.Snapshot()
		b0, n0 := fm.WritevBatch.Count(), fm.WritevBatch.Sum()
		f1, p1, err := window()
		if lr.check(err) {
			f2, p2, err := window()
			if err == nil && (f1 != f2 || p1 != p2) {
				err = fmt.Errorf("%s: counts differ between equal windows: %d/%d frames, %d/%d payload bytes",
					cc.name, f1, f2, p1, p2)
			}
			if lr.check(err) {
				lr.set("tcp.frames_per_round."+cc.name, "count", float64(f1)/probeRounds)
				lr.set("tcp.payload_bytes_per_round."+cc.name, "B", float64(p1)/probeRounds)
			}
		}
		if cc.name != "tree" {
			flushes += fm.WritevBatch.Count() - b0
			flushed += fm.WritevBatch.Sum() - n0
			var wall [obs.NumCalibPhases]int64 // compute, compress, transmit
			var total int64
			for _, e := range calib.Diff(calBase, rec.Snapshot()) {
				for p, ns := range e.WallNanos {
					wall[p] += ns
					total += ns
				}
			}
			lr.set("runtime.transmit_wall_share."+cc.name, "ratio", ratio(float64(wall[2]), float64(total)))
			lr.set("runtime.compress_wall_share."+cc.name, "ratio", ratio(float64(wall[1]), float64(total)))
		}
		eng.Close()
	}
	lr.set("tcp.frames_per_writev", "count", ratio(float64(flushed), float64(flushes)))
	lr.set("transport.pool_hit_ratio", "ratio", ratio(float64(reg.Pool.Hits.Value()), float64(reg.Pool.Gets.Value())))
}

// probeAllocs times parallel rounds of each rounds collective over TCP,
// with telemetry off, and counts the process's heap allocations per
// round. The first probeRounds rounds warm the pools.
func probeAllocs(lr *layerResult, seed uint64) {
	for _, name := range roundCollectives {
		eng, err := tcpEngine()
		if !lr.check(err) {
			continue
		}
		r, err := openRig(eng, name, seed, roundDim)
		if !lr.check(err) {
			eng.Close()
			continue
		}
		sets := gradSets(seed, roundSets, roundDim)
		var before, after gort.MemStats
		walls := make([]float64, 0, 2*probeRounds)
		err = within(roundOpLimit, func() error {
			for i := 0; i < 3*probeRounds; i++ {
				for w := range r.parIn {
					copy(r.parIn[w], sets[i%roundSets][w])
				}
				if i == probeRounds {
					gort.ReadMemStats(&before)
				}
				t0 := time.Now()
				r.par.Run(r.cPar, r.parIn)
				if i >= probeRounds {
					walls = append(walls, ms(time.Since(t0)))
				}
			}
			gort.ReadMemStats(&after)
			return nil
		})
		if lr.check(err) {
			n := float64(len(walls))
			lr.set("runtime.round_ms_p50."+name, "ms", median(walls))
			lr.set("runtime.allocs_per_round."+name, "count", float64(after.Mallocs-before.Mallocs)/n)
			lr.set("runtime.alloc_bytes_per_round."+name, "B", float64(after.TotalAlloc-before.TotalAlloc)/n)
		}
		eng.Close()
	}
}

// probeService runs the jobs workload briefly and splits its single
// jobs' latency at the control plane.
func probeService(lr *layerResult, seed uint64) {
	o, jt := jobsPass(runCfg{seed: seed, window: probeJobTime})
	lr.attempted += o.attempted
	lr.failed += o.failed
	lr.failures = append(lr.failures, o.failures...)
	lr.set("service.job_ms_p50", "ms", median(jt.jobMS))
	lr.set("service.submit_ms_p50", "ms", median(jt.submitMS))
	lr.set("service.queue_ms_p50", "ms", median(jt.queueMS))
	lr.set("service.run_ms_p50", "ms", median(jt.runMS))
	lr.set("service.refused_frac", "ratio", ratio(float64(jt.refused), float64(jt.submits)))
}
