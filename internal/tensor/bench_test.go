package tensor

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// benchSetup builds the ResNet-50-shaped operands of the hot-path kernels.
func benchSetup() (x, w, a, b *Tensor, spec ConvSpec) {
	rng := rand.New(rand.NewSource(1))
	spec = ConvSpec{Stride: 1, Pad: 1}
	x = Randn(rng, 1, 64, 28, 28)
	w = Randn(rng, 1, 64, 64, 3, 3)
	a = Randn(rng, 1, 64, 64*3*3)
	b = Randn(rng, 1, 64*3*3, 28*28)
	return
}

func benchAtBudget(bm *testing.B, budget int, f func()) {
	prev := SetParallelism(budget)
	defer SetParallelism(prev)
	bm.ResetTimer()
	for i := 0; i < bm.N; i++ {
		f()
	}
}

func BenchmarkConv2DSerial(bm *testing.B) {
	x, w, _, _, spec := benchSetup()
	benchAtBudget(bm, 1, func() { Conv2D(x, w, spec) })
}

func BenchmarkConv2DParallel(bm *testing.B) {
	x, w, _, _, spec := benchSetup()
	benchAtBudget(bm, runtime.GOMAXPROCS(0), func() { Conv2D(x, w, spec) })
}

func BenchmarkMatMulSerial(bm *testing.B) {
	_, _, a, b, _ := benchSetup()
	benchAtBudget(bm, 1, func() { MatMul(a, b) })
}

func BenchmarkMatMulParallel(bm *testing.B) {
	_, _, a, b, _ := benchSetup()
	benchAtBudget(bm, runtime.GOMAXPROCS(0), func() { MatMul(a, b) })
}

func BenchmarkConvBackwardWeightsSerial(bm *testing.B) {
	x, w, _, _, spec := benchSetup()
	delta := Conv2D(x, w, spec)
	benchAtBudget(bm, 1, func() { ConvBackwardWeights(x, delta, spec, 3, 3) })
}

func BenchmarkConvBackwardInputSerial(bm *testing.B) {
	x, w, _, _, spec := benchSetup()
	delta := Conv2D(x, w, spec)
	benchAtBudget(bm, 1, func() { ConvBackwardInput(w, delta, spec, 28, 28) })
}

// benchConvKernels times, at one worker, the three convolution kernels,
// their pre-rewrite references (reference_test.go) and the im2col + MatMul
// forward on a c→n layer over an hw×hw input with 3×3 kernels.
func benchConvKernels(bm *testing.B, c, hw, n int, spec ConvSpec) {
	rng := rand.New(rand.NewSource(1))
	x := Randn(rng, 1, c, hw, hw)
	w := Randn(rng, 1, n, c, 3, 3)
	delta := Conv2D(x, w, spec)
	shape := fmt.Sprintf("%dto%d-%dx%d", c, n, hw, hw)
	for _, k := range []struct {
		name string
		run  func()
	}{
		{"Conv2D", func() { Conv2D(x, w, spec) }},
		{"ConvBackwardWeights", func() { ConvBackwardWeights(x, delta, spec, 3, 3) }},
		{"ConvBackwardInput", func() { ConvBackwardInput(w, delta, spec, hw, hw) }},
		{"ref/Conv2D", func() { refConv2D(x, w, spec) }},
		{"ref/ConvBackwardWeights", func() { refConvBackwardWeights(x, delta, spec, 3, 3) }},
		{"ref/ConvBackwardInput", func() { refConvBackwardInput(w, delta, spec, hw, hw) }},
		{"Conv2DIm2Col", func() { Conv2DIm2Col(x, w, spec) }},
	} {
		bm.Run(k.name+"/"+shape, func(bm *testing.B) { benchAtBudget(bm, 1, k.run) })
	}
}

// BenchmarkConvKernelsSmallCNN runs benchConvKernels at the shapes of
// train.SmallCNN on a 16×16 image (the Table I/VI networks): 1→8 channels
// at 16×16 and 8→16 at 7×7, no padding.
func BenchmarkConvKernelsSmallCNN(bm *testing.B) {
	benchConvKernels(bm, 1, 16, 8, ConvSpec{Stride: 1})
	benchConvKernels(bm, 8, 7, 16, ConvSpec{Stride: 1})
}

// BenchmarkConvKernelsResNet runs benchConvKernels at the ResNet-shaped
// layer of benchSetup: 64→64 channels at 28×28, pad 1.
func BenchmarkConvKernelsResNet(bm *testing.B) {
	benchConvKernels(bm, 64, 28, 64, ConvSpec{Stride: 1, Pad: 1})
}
