package main

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"syscall"
	"time"

	"github.com/inca-arch/inca"
	"github.com/inca-arch/inca/internal/data"
	"github.com/inca-arch/inca/internal/rram"
	"github.com/inca-arch/inca/internal/tensor"
	"github.com/inca-arch/inca/internal/train"
)

// train-noise runs the paper's accuracy experiments in-process at a
// fixed reduced size: Table VI (noise-aware training) and Table I
// (post-training quantization).
var (
	trainSigmas = []float64{0.02, 0.05}
	trainBits   = []int{4, 6}
)

// trainConfig is the reduced experiment: the seed picks the synthetic
// dataset and the weight initialisation, never the amount of work. It
// is as small as keeps the network learning (test accuracy 25-50%
// rather than chance), so a run times each of many short calls on its
// own: about 0.25 s for Table VI and 0.1 s for Table I on a 2-core Xeon.
func trainConfig(seed int64) inca.ExperimentConfig {
	cfg := inca.DefaultExperimentConfig()
	cfg.Data.PerClass = 8
	cfg.Data.Seed = 1234 + seed
	cfg.Seed = seed
	cfg.PretrainEpochs = 3
	cfg.NoiseEpochs = 1
	return cfg
}

// trainSamplesPerPair counts the training samples (forward, backward
// and step) one NoiseAccuracy plus one BitDepthAccuracy call process.
func trainSamplesPerPair(cfg inca.ExperimentConfig) int {
	total := cfg.Data.Classes * cfg.Data.PerClass
	trainN := total - int(float64(total)*0.25) // data.Dataset.Split(0.25)
	noise := cfg.PretrainEpochs*trainN + len(trainSigmas)*2*cfg.NoiseEpochs*trainN
	bits := cfg.PretrainEpochs * trainN
	return noise + bits
}

const (
	// Before each pair, set-up generates the dataset
	// generationsPerBatch times; one set-up sample spans the batches of
	// pairsPerSetup consecutive pairs.
	generationsPerBatch = 4
	pairsPerSetup       = 8
	// pairsPerSecond sets the number of pairs a run computes: see
	// fixedCount.
	pairsPerSecond = 2.4
)

func runTrainNoise(cfg config, rf *refs) (*outcome, error) {
	if cfg.trace {
		return traceTrain(cfg)
	}
	o := &outcome{metrics: map[string]metric{}}
	ecfg := trainConfig(cfg.seed)

	// One untimed computation of each table finishes lazy
	// initialisation; the rows it returns are the reference for every
	// later call.
	wantNoise := inca.NoiseAccuracy(ecfg, trainSigmas)
	wantBits := inca.BitDepthAccuracy(ecfg, trainBits)

	// The measured phase is a closed loop of one caller computing a
	// fixed number of pairs of one Table VI and one Table I result back
	// to back, as a researcher's script does. Each call is timed on its
	// own, in wall time and in the process's CPU time, and the rates are
	// read at fastQuantile of each kind's times. The process's peak RSS
	// is read and reset after each pair: peak_rss_mb is the median
	// pair's peak, so one pair in which the collector ran late does not
	// decide it.
	//
	// Set-up is dataset generation, timed on its own before each pair.
	// One generation takes a millisecond or two, less than the host stays
	// at one speed, so a median of single generations would land at
	// either speed. Each set-up sample is therefore the mean generation
	// time over the batches of pairsPerSetup pairs (a few seconds of the
	// run), and setup_s is the median over samples.
	var setups, noiseSecs, bitsSecs, noiseCPU, bitsCPU, hwms []float64
	var setupTime time.Duration
	setupN := 0
	pairs := fixedCount(cfg.seconds, pairsPerSecond)
	resettable := resetHWM() == nil
	for i := 0; i < pairs; i++ {
		runtime.GC()
		t := time.Now()
		for j := 0; j < generationsPerBatch; j++ {
			data.Generate(ecfg.Data)
		}
		setupTime += time.Since(t)
		setupN += generationsPerBatch
		if (i+1)%pairsPerSetup == 0 || i == pairs-1 {
			setups = append(setups, setupTime.Seconds()/float64(setupN))
			setupTime, setupN = 0, 0
		}

		t0, c0, err := clocks()
		if err != nil {
			return nil, err
		}
		noise := inca.NoiseAccuracy(ecfg, trainSigmas)
		t1, c1, err := clocks()
		if err != nil {
			return nil, err
		}
		bits := inca.BitDepthAccuracy(ecfg, trainBits)
		t2, c2, err := clocks()
		if err != nil {
			return nil, err
		}
		noiseSecs = append(noiseSecs, t1.Sub(t0).Seconds())
		bitsSecs = append(bitsSecs, t2.Sub(t1).Seconds())
		noiseCPU = append(noiseCPU, (c1 - c0).Seconds())
		bitsCPU = append(bitsCPU, (c2 - c1).Seconds())

		o.attempted += 2
		if !reflect.DeepEqual(noise, wantNoise) {
			o.failed++
			o.fail("pair %d: Table VI rows differ from the set-up computation", i)
		}
		if !reflect.DeepEqual(bits, wantBits) {
			o.failed++
			o.fail("pair %d: Table I rows differ from the set-up computation", i)
		}
		if resettable || i == pairs-1 {
			hwm, err := procHWM("self")
			if err != nil {
				return nil, err
			}
			hwms = append(hwms, hwm)
			if resettable {
				resettable = resetHWM() == nil
			}
		}
	}

	for _, r := range wantNoise {
		for _, v := range []float64{r.WeightNoise, r.ActivationAcc, r.BaselineNoNoise} {
			if v < 0 || v > 100 || math.IsNaN(v) {
				o.fail("Table VI accuracy %v out of range", v)
			}
		}
	}
	if cfg.record {
		rf.setSeed(cfg.workload, cfg.seed, &seedRef{Noise: wantNoise, Bits: wantBits})
	} else if ref := rf.seed(cfg.workload, cfg.seed); ref != nil {
		if !reflect.DeepEqual(ref.Noise, wantNoise) || !reflect.DeepEqual(ref.Bits, wantBits) {
			o.failed++
			o.fail("Table VI/I rows differ from the committed reference for seed %d", cfg.seed)
		} else {
			o.note("Table VI and Table I rows match the committed reference for seed %d", cfg.seed)
		}
	} else {
		o.note("seed %d has no committed rows: checked for repeatability within the run only", cfg.seed)
	}

	d := quantile(noiseSecs, fastQuantile) + quantile(bitsSecs, fastQuantile)
	o.put("setup_s", median(setups))
	o.note("setup_s is the median over %d samples of the mean of up to %d dataset generations; sample min %.3f ms, max %.3f ms",
		len(setups), pairsPerSetup*generationsPerBatch, 1e3*quantile(setups, 0), 1e3*quantile(setups, 1))
	o.put("throughput_rps", 2/d)
	o.put("cells_per_s", float64(2*(len(trainSigmas)+len(trainBits)))/d)
	o.put("cpu_ms_per_req", 1e3*(quantile(noiseCPU, fastQuantile)+quantile(bitsCPU, fastQuantile))/2)
	o.put("peak_rss_mb", median(hwms))
	o.note("peak_rss_mb is the median of %d pair peaks; min %.1f MB, max %.1f MB", len(hwms), quantile(hwms, 0), quantile(hwms, 1))
	for _, k := range []struct {
		name string
		secs []float64
	}{{"Table VI", noiseSecs}, {"Table I", bitsSecs}} {
		o.note("%s call ms over %d calls: p%.0f %.2f, median %.2f, max %.2f", k.name, len(k.secs),
			100*fastQuantile, 1e3*quantile(k.secs, fastQuantile), 1e3*median(k.secs), 1e3*quantile(k.secs, 1))
	}
	o.note("train_samples_per_s %.1f (%d samples per pair)", float64(trainSamplesPerPair(ecfg))/d, trainSamplesPerPair(ecfg))
	return o, nil
}

// clocks reads the wall clock and the process's CPU time (user and
// system, to the microsecond).
func clocks() (time.Time, time.Duration, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return time.Time{}, 0, err
	}
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return time.Now(), cpu, nil
}

// traceTrain is train-noise's traced run. It replays one epoch of
// activation-noise training (the IS case of Table VI) through the public
// tensor kernels, with a span around each kernel call, and checks that
// the replay lands on bit-identical weights to train.Trainer on the same
// epoch. It also times evaluation, the kernel budget's parallel speedup,
// and counts kernel invocations over one NoiseAccuracy+BitDepth pair.
func traceTrain(cfg config) (*outcome, error) {
	o := &outcome{metrics: map[string]metric{}}
	ecfg := trainConfig(cfg.seed)
	ds := data.Generate(ecfg.Data)
	trainSet, testSet := ds.Split(0.25)
	base := train.SmallCNN(rand.New(rand.NewSource(ecfg.Seed)), 1, ecfg.Data.H, ecfg.Data.W, ecfg.Data.Classes)
	(&train.Trainer{Net: base, LR: ecfg.LR}).Train(trainSet, ecfg.PretrainEpochs)

	// Alternate the untraced trainer epoch with the traced replay of the
	// same epoch; the overhead is the median of the per-round ratios.
	const sigma = 0.05
	noiseSeed := ecfg.Seed + 300
	rec := newRecorder()
	k := &kernels{rec: rec}
	var ratios []float64
	for r := 0; r < traceRounds; r++ {
		ref := base.Clone()
		t0 := time.Now()
		(&train.Trainer{Net: ref, LR: ecfg.LR, Target: train.NoiseActivations, Sigma: sigma, Seed: noiseSeed}).Train(trainSet, 1)
		untraced := time.Since(t0)

		rp := base.Clone()
		// train.Trainer seeds its activation noise with Seed+3.
		noise := rram.NewNoiseModel(sigma, noiseSeed+3)
		t0 = time.Now()
		for i, s := range trainSet.Samples {
			k.sample(rp, noise, s, ecfg.LR, fmt.Sprintf("r%d-%d", r, i))
		}
		ratios = append(ratios, time.Since(t0).Seconds()/untraced.Seconds())
		o.attempted++
		if !sameWeights(ref, rp) {
			o.failed++
			o.fail("round %d: the traced kernel replay's weights differ from train.Trainer's after one epoch", r)
		}
	}

	// Evaluation throughput and the kernel budget's speedup.
	evalTime := func() time.Duration {
		var ts []float64
		for i := 0; i < 5; i++ {
			t := time.Now()
			train.Accuracy(base, testSet)
			ts = append(ts, float64(time.Since(t)))
		}
		return time.Duration(median(ts))
	}
	nproc := runtime.NumCPU()
	prev := tensor.SetParallelism(1)
	serial := evalTime()
	tensor.SetParallelism(nproc)
	parallel := evalTime()
	tensor.SetParallelism(prev)

	stats := inca.InstallKernelStats()
	inca.NoiseAccuracy(ecfg, trainSigmas)
	inca.BitDepthAccuracy(ecfg, trainBits)
	tensor.SetStatsHook(nil)

	agg := rec.aggregate()
	n := float64(agg["train.sample"].Calls)
	o.put("tensor.conv2d_us", agg["tensor.conv2d"].perCall())
	o.put("tensor.conv_bwd_weights_us", agg["tensor.conv_bwd_weights"].perCall())
	o.put("tensor.conv_bwd_input_us", agg["tensor.conv_bwd_input"].perCall())
	o.put("tensor.matmul_us", agg["tensor.matmul"].perCall())
	var kernelNS float64
	for _, name := range []string{"tensor.conv2d", "tensor.conv_bwd_weights", "tensor.conv_bwd_input", "tensor.matmul"} {
		kernelNS += float64(agg[name].Self.Nanoseconds())
	}
	o.put("tensor.gmacs_per_s", float64(k.macs)/kernelNS)
	o.put("tensor.mb_moved_per_call", float64(k.bytes)/1e6/float64(k.calls))
	o.put("tensor.parallel_speedup", float64(serial)/float64(parallel))
	o.put("tensor.kernel_invocations", float64(stats.Snapshot().Invocations))
	o.put("train.forward_us_per_sample", float64(agg["train.forward"].Total.Nanoseconds())/1e3/n)
	o.put("train.backward_us_per_sample", float64(agg["train.backward"].Total.Nanoseconds())/1e3/n)
	o.put("train.step_us", float64(agg["train.step"].Total.Nanoseconds())/1e3/n)
	o.put("train.eval_samples_per_s", float64(len(testSet.Samples))/parallel.Seconds())
	o.put("rram.perturb_us", agg["rram.perturb"].perCall())
	o.put("bench.trace_overhead_ratio", median(ratios))
	root := agg["train.sample"]
	o.put("bench.unattributed_share", float64(root.Self)/float64(root.Total))
	o.note("kernel MACs and bytes are computed from tensor shapes, not measured")
	noteSelfTimes(o, agg, n, "train.sample")
	return o, writeTrace(cfg, rec)
}

// kernels replays train.Trainer's per-sample SGD step for the
// activation-noise case through the public tensor kernels, with a span
// around each call, and tallies each kernel's MACs and computed bytes.
type kernels struct {
	rec                *recorder
	macs, bytes, calls int64
}

func (k *kernels) kernel(name string, parent int, req string, macs, elems int, f func()) {
	k.rec.timed(name, parent, req, f)
	k.macs += int64(macs)
	k.bytes += 8 * int64(elems)
	k.calls++
}

func (k *kernels) sample(net *train.Network, noise *rram.NoiseModel, s data.Sample, lr float64, req string) {
	root := k.rec.begin("train.sample", 0, req)
	defer k.rec.end(root)
	n := len(net.Layers)
	inputs := make([]*tensor.Tensor, n)
	pools := make([]tensor.MaxPoolResult, n)
	dW := make([]*tensor.Tensor, n)
	dB := make([]*tensor.Tensor, n)

	fwd := k.rec.begin("train.forward", root, req)
	x := s.Image
	for i, l := range net.Layers {
		switch l := l.(type) {
		case *train.Conv:
			k.rec.timed("rram.perturb", fwd, req, func() { x = noise.PerturbTensor(x) })
			inputs[i] = x
			var out *tensor.Tensor
			outC, kh := l.W.Dim(0), l.W.Dim(2)
			oh, ow := l.Spec.OutSize(x.Dim(1), kh), l.Spec.OutSize(x.Dim(2), kh)
			macs := outC * oh * ow * x.Dim(0) * kh * kh
			k.kernel("tensor.conv2d", fwd, req, macs, x.Len()+l.W.Len()+outC*oh*ow, func() { out = tensor.Conv2D(x, l.W, l.Spec) })
			x = out
		case *train.FC:
			k.rec.timed("rram.perturb", fwd, req, func() { x = noise.PerturbTensor(x) })
			inputs[i] = x
			flat := x.Reshape(x.Len())
			var out *tensor.Tensor
			k.kernel("tensor.matmul", fwd, req, l.W.Len(), flat.Len()+l.W.Len()+l.W.Dim(0), func() {
				out = tensor.MatVec(l.W, flat)
				out.AddInPlace(l.B)
			})
			x = out
		case *train.ReLU:
			inputs[i] = x
			k.rec.timed("tensor.relu", fwd, req, func() { x = tensor.ReLU(x) })
		case *train.MaxPool:
			inputs[i] = x
			k.rec.timed("tensor.maxpool", fwd, req, func() { pools[i] = tensor.MaxPool2D(x, l.K, l.K) })
			x = pools[i].Out
		}
	}
	k.rec.end(fwd)

	var delta *tensor.Tensor
	k.rec.timed("train.loss", root, req, func() {
		_, delta = train.SoftmaxCrossEntropy(x, s.Label)
		sanitize(delta)
	})

	bwd := k.rec.begin("train.backward", root, req)
	for i := n - 1; i >= 0; i-- {
		in := inputs[i]
		switch l := net.Layers[i].(type) {
		case *train.Conv:
			kh, kw := l.W.Dim(2), l.W.Dim(3)
			macs := delta.Len() * in.Dim(0) * kh * kw
			k.kernel("tensor.conv_bwd_weights", bwd, req, macs, in.Len()+delta.Len()+l.W.Len(), func() {
				dW[i] = tensor.ConvBackwardWeights(in, delta, l.Spec, kh, kw)
			})
			k.kernel("tensor.conv_bwd_input", bwd, req, macs, l.W.Len()+delta.Len()+in.Len(), func() {
				delta = tensor.ConvBackwardInput(l.W, delta, l.Spec, in.Dim(1), in.Dim(2))
			})
		case *train.FC:
			flat := in.Reshape(in.Len())
			k.kernel("tensor.matmul", bwd, req, 2*l.W.Len(), 2*(flat.Len()+l.W.Len()+delta.Len()), func() {
				dW[i] = tensor.Outer(delta, flat)
				dB[i] = delta.Clone()
				delta = tensor.MatVecT(l.W, delta).Reshape(in.Dims()...)
			})
		case *train.ReLU:
			k.rec.timed("tensor.relu_bwd", bwd, req, func() { delta = tensor.ReLUBackward(in, delta) })
		case *train.MaxPool:
			k.rec.timed("tensor.maxpool_bwd", bwd, req, func() { delta = tensor.MaxPoolBackward(pools[i], delta, in.Dims()) })
		}
	}
	k.rec.end(bwd)

	k.rec.timed("train.step", root, req, func() {
		for i, l := range net.Layers {
			switch l := l.(type) {
			case *train.Conv:
				l.W.AXPYInPlace(-lr, dW[i])
			case *train.FC:
				l.W.AXPYInPlace(-lr, dW[i])
				l.B.AXPYInPlace(-lr, dB[i])
			}
		}
	})
}

// sanitize clamps the loss gradient exactly as train.Trainer does.
func sanitize(delta *tensor.Tensor) {
	const clip = 10.0
	d := delta.Data()
	for i, v := range d {
		switch {
		case math.IsNaN(v):
			d[i] = 0
		case v > clip:
			d[i] = clip
		case v < -clip:
			d[i] = -clip
		}
	}
}

// sameWeights reports whether two networks' parameters are bit-identical.
func sameWeights(a, b *train.Network) bool {
	eq := func(x, y *tensor.Tensor) bool {
		if x.Len() != y.Len() {
			return false
		}
		for i, v := range x.Data() {
			if math.Float64bits(v) != math.Float64bits(y.Data()[i]) {
				return false
			}
		}
		return true
	}
	for i, l := range a.Layers {
		switch l := l.(type) {
		case *train.Conv:
			if !eq(l.W, b.Layers[i].(*train.Conv).W) {
				return false
			}
		case *train.FC:
			r := b.Layers[i].(*train.FC)
			if !eq(l.W, r.W) || !eq(l.B, r.B) {
				return false
			}
		}
	}
	return true
}
