package main

import (
	"fmt"
	"math"
	"time"

	"marsit/internal/data"
	"marsit/internal/nn"
	"marsit/internal/rng"
	"marsit/internal/train"
)

// The train-marsit shape: the paper's Marsit method (K = 0) on a ring of
// M = 4 workers, batch 16, SGD, training an MLP 192→256→256→10
// (D = 117,770) on synthetic CIFAR.
const (
	trainBatch   = 16
	trainRounds  = 12
	trainSamples = 2048 // training split
	trainTest    = 1024 // held-out split
	// trainDataSeed fixes the dataset, as a real benchmark fixes CIFAR;
	// the run's seed drives model initialization and batch sampling.
	// Synthesizing the dataset per seed tripled the accuracy's spread.
	trainDataSeed = 51
	// trainConfigs is the number of model seeds derived from the run's
	// seed. Operations cycle through them, and the reported accuracy is
	// their mean, which halves the seed-to-seed spread of one model.
	trainConfigs = 4
	trainSetups  = 9
	trainOpLimit = 60 * time.Second
)

var trainHidden = []int{256, 256}

func trainConfig(seed uint64, ds [2]*data.Dataset, engine train.Engine) train.Config {
	return train.Config{
		Method: train.MethodMarsit, Topo: train.TopoRing,
		Engine: engine, Transport: train.TransportLoopback,
		Workers: workers, Rounds: trainRounds, Batch: trainBatch,
		LocalLR: 1, GlobalLR: 0.01, K: 0, Optimizer: "sgd",
		Seed:  seed,
		Model: func(r *rng.PCG) *nn.Network { return nn.NewMLP(r, 192, trainHidden, 10) },
		Train: ds[0], Test: ds[1],
	}
}

// trainData synthesizes the workload's training and test splits.
func trainData() [2]*data.Dataset {
	all := data.SyntheticCIFAR(trainSamples+trainTest, trainDataSeed)
	tr, te := all.Split(trainSamples)
	return [2]*data.Dataset{tr, te}
}

// sameRun reports where two training results differ, "" if they are
// identical: the loss series, final accuracy, simulated time and bytes.
func sameRun(got, want *train.Result) string {
	if got.Diverged || want.Diverged {
		return fmt.Sprintf("diverged (got %v, reference %v)", got.Diverged, want.Diverged)
	}
	if len(got.Points) != len(want.Points) {
		return fmt.Sprintf("%d rounds, reference %d", len(got.Points), len(want.Points))
	}
	for i := range got.Points {
		if math.Float64bits(got.Points[i].Loss) != math.Float64bits(want.Points[i].Loss) {
			return fmt.Sprintf("loss at round %d is %v, reference %v", i+1, got.Points[i].Loss, want.Points[i].Loss)
		}
	}
	if got.FinalAcc != want.FinalAcc {
		return fmt.Sprintf("final accuracy %v, reference %v", got.FinalAcc, want.FinalAcc)
	}
	if got.TotalMB != want.TotalMB || got.TotalTime != want.TotalTime {
		return fmt.Sprintf("wire %v MB / %v s simulated, reference %v MB / %v s",
			got.TotalMB, got.TotalTime, want.TotalMB, want.TotalTime)
	}
	return ""
}

// runTrain is the train-marsit workload: one closed-loop client runs
// train.Run back to back on the parallel engine over the loopback
// fabric, each run checked against the sequential engine's run of the
// same configuration.
func runTrain(rc runCfg) *outcome {
	o := &outcome{}
	var ds [2]*data.Dataset
	for i := 0; i < trainSetups; i++ {
		t0 := time.Now()
		ds = trainData()
		o.setups = append(o.setups, time.Since(t0).Seconds())
	}

	seeds := make([]uint64, trainConfigs)
	refs := make([]*train.Result, trainConfigs)
	accs := make([]float64, trainConfigs)
	for i := range seeds {
		seeds[i] = rng.NewStream(rc.seed, 0x7e57+uint64(i)).Uint64()
		var res *train.Result
		err := within(trainOpLimit, func() (err error) {
			res, err = train.Run(trainConfig(seeds[i], ds, train.EngineSeq))
			return err
		})
		o.attempted++
		if err != nil {
			o.fail("reference train.Run (sequential engine, config %d): %w", i, err)
			return o
		}
		refs[i], accs[i] = res, res.FinalAcc
	}
	o.accuracy = mean(accs)
	o.wireMB = refs[0].TotalMB
	o.simMS = refs[0].TotalTime * 1e3
	for i, r := range refs {
		if r.TotalMB != o.wireMB || r.TotalTime != refs[0].TotalTime {
			o.fail("config %d moves %v MB in %v s, config 0 %v MB in %v s: the wire cost must not depend on the data",
				i, r.TotalMB, r.TotalTime, o.wireMB, refs[0].TotalTime)
			return o
		}
	}

	// op runs operation id with configuration k; the warm-up id is -1.
	op := func(id, k int, timed bool) {
		cfg := trainConfig(seeds[k], ds, train.EnginePar)
		var res *train.Result
		var wall time.Duration
		root := rc.spans.begin("op", int64(id), -1)
		err := within(trainOpLimit, func() (err error) {
			sid := rc.spans.begin("train.Run", int64(id), root)
			t0 := time.Now()
			res, err = train.Run(cfg)
			wall = time.Since(t0)
			rc.spans.end(sid)
			return err
		})
		if err == nil {
			rc.spans.do("verify", int64(id), root, func() {
				if d := sameRun(res, refs[k]); d != "" {
					err = fmt.Errorf("differs from the sequential engine: %s", d)
				}
			})
		}
		rc.spans.end(root)
		o.attempted++
		if err != nil {
			o.fail("op %d (train.Run, config %d): %w", id, k, err)
			return
		}
		if timed {
			o.lat = append(o.lat, ms(wall))
			o.busy += wall
		}
	}

	if op(-1, trainConfigs-1, false); o.failed > 0 { // warm-up: pools, goroutines, page faults
		return o
	}
	start := time.Now()
	for i := 0; rc.more(start) && !o.aborted; i++ {
		op(i, i%trainConfigs, true)
	}
	return o
}
