package tensor

import (
	"math"
	"math/rand"
	"testing"
)

// numericalGrad computes d(loss)/d(param[i]) via central differences, where
// loss = sum(forward(param)).
func numericalGrad(param *Tensor, forward func() *Tensor) *Tensor {
	const eps = 1e-5
	g := New(param.Dims()...)
	for i := range param.Data() {
		orig := param.Data()[i]
		param.Data()[i] = orig + eps
		up := forward().Sum()
		param.Data()[i] = orig - eps
		down := forward().Sum()
		param.Data()[i] = orig
		g.Data()[i] = (up - down) / (2 * eps)
	}
	return g
}

func checkClose(t *testing.T, name string, got, want *Tensor, tol float64) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("%s: length mismatch %v vs %v", name, got.Dims(), want.Dims())
	}
	for i := range got.Data() {
		if math.Abs(got.Data()[i]-want.Data()[i]) > tol {
			t.Fatalf("%s: element %d: got %v, want %v", name, i, got.Data()[i], want.Data()[i])
		}
	}
}

// TestConvBackwardInputNumerical verifies the analytic full-convolution
// backward pass (Eq. 3) against central differences for several geometries,
// including strided, padded and non-square convolutions.
func TestConvBackwardInputNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	cases := []struct{ c, h, w, n, kh, kw, s, p int }{
		{1, 5, 5, 1, 3, 3, 1, 0},
		{2, 6, 6, 3, 3, 3, 1, 1},
		{2, 7, 7, 2, 3, 3, 2, 1},
		{1, 8, 8, 2, 2, 2, 2, 0},
		{3, 5, 5, 2, 1, 1, 1, 0},
		{2, 5, 6, 2, 1, 4, 1, 0},
		{2, 7, 6, 3, 2, 3, 2, 1},
		{1, 6, 5, 2, 4, 1, 1, 2},
	}
	for _, cse := range cases {
		x := Randn(rng, 1, cse.c, cse.h, cse.w)
		w := Randn(rng, 1, cse.n, cse.c, cse.kh, cse.kw)
		spec := ConvSpec{Stride: cse.s, Pad: cse.p}
		// loss = sum(conv(x, w)); dL/dy = ones.
		y := Conv2D(x, w, spec)
		ones := New(y.Dims()...)
		ones.Fill(1)
		analytic := ConvBackwardInput(w, ones, spec, cse.h, cse.w)
		numeric := numericalGrad(x, func() *Tensor { return Conv2D(x, w, spec) })
		checkClose(t, "ConvBackwardInput", analytic, numeric, 1e-6)
	}
}

// TestConvBackwardWeightsNumerical verifies the weight-gradient convolution
// (Eq. 4) against central differences.
func TestConvBackwardWeightsNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	cases := []struct{ c, h, w, n, k, s, p int }{
		{1, 5, 5, 1, 3, 1, 0},
		{2, 6, 6, 3, 3, 1, 1},
		{2, 7, 7, 2, 3, 2, 1},
		{3, 4, 4, 2, 1, 1, 0},
	}
	for _, cse := range cases {
		x := Randn(rng, 1, cse.c, cse.h, cse.w)
		w := Randn(rng, 1, cse.n, cse.c, cse.k, cse.k)
		spec := ConvSpec{Stride: cse.s, Pad: cse.p}
		y := Conv2D(x, w, spec)
		ones := New(y.Dims()...)
		ones.Fill(1)
		analytic := ConvBackwardWeights(x, ones, spec, cse.k, cse.k)
		numeric := numericalGrad(w, func() *Tensor { return Conv2D(x, w, spec) })
		checkClose(t, "ConvBackwardWeights", analytic, numeric, 1e-6)
	}
}

func TestDepthwiseBackwardNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	cases := []struct{ c, h, w, k, s, p int }{
		{2, 6, 6, 3, 1, 1},
		{3, 7, 7, 3, 2, 1},
		{1, 5, 5, 5, 1, 2},
	}
	for _, cse := range cases {
		x := Randn(rng, 1, cse.c, cse.h, cse.w)
		w := Randn(rng, 1, cse.c, cse.k, cse.k)
		spec := ConvSpec{Stride: cse.s, Pad: cse.p}
		y := DepthwiseConv2D(x, w, spec)
		ones := New(y.Dims()...)
		ones.Fill(1)

		dx := DepthwiseBackwardInput(w, ones, spec, cse.h, cse.w)
		numX := numericalGrad(x, func() *Tensor { return DepthwiseConv2D(x, w, spec) })
		checkClose(t, "DepthwiseBackwardInput", dx, numX, 1e-6)

		dw := DepthwiseBackwardWeights(x, ones, spec, cse.k, cse.k)
		numW := numericalGrad(w, func() *Tensor { return DepthwiseConv2D(x, w, spec) })
		checkClose(t, "DepthwiseBackwardWeights", dw, numW, 1e-6)
	}
}

func TestFCBackwardNumerical(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := Randn(rng, 1, 4, 6) // weights [out, in]
	x := Randn(rng, 1, 6)

	// d(sum(a x))/dx = column sums of a = aT * ones.
	ones := New(4)
	ones.Fill(1)
	dx := MatVecT(a, ones)
	numX := numericalGrad(x, func() *Tensor { return MatVec(a, x) })
	checkClose(t, "FC dX", dx, numX, 1e-6)

	// d(sum(a x))/da = ones ⊗ x.
	dw := Outer(ones, x)
	numW := numericalGrad(a, func() *Tensor { return MatVec(a, x) })
	checkClose(t, "FC dW", dw, numW, 1e-6)
}

// TestConvBackwardRejectsBadShapes checks that the backward kernels reject
// inconsistent operands with Conv2D-style messages instead of indexing out
// of range or reading the wrong elements.
func TestConvBackwardRejectsBadShapes(t *testing.T) {
	spec := ConvSpec{Stride: 1, Pad: 1}
	x := New(2, 5, 5)    // [C, H, W]
	w := New(3, 2, 3, 3) // [N, C, KH, KW]: a 5x5 output under pad 1
	for _, tc := range []struct {
		name, want string
		f          func()
	}{
		{"input/delta channels", "channel mismatch: delta has 4, w has 3",
			func() { ConvBackwardInput(w, New(4, 5, 5), spec, 5, 5) }},
		{"input/delta rank", "rank-3 delta", func() { ConvBackwardInput(w, New(3, 25), spec, 5, 5) }},
		{"input/w rank", "rank-4 w", func() { ConvBackwardInput(New(3, 2, 9), New(3, 5, 5), spec, 5, 5) }},
		{"input/delta size", "does not match the 5x5 output",
			func() { ConvBackwardInput(w, New(3, 4, 5), spec, 5, 5) }},
		{"input/input size", "does not match the 6x5 output",
			func() { ConvBackwardInput(w, New(3, 5, 5), spec, 6, 5) }},
		{"input/kernel too large", "larger than padded input",
			func() { ConvBackwardInput(New(3, 2, 8, 8), New(3, 1, 1), spec, 5, 5) }},
		{"input/stride", "invalid stride", func() { ConvBackwardInput(w, New(3, 5, 5), ConvSpec{}, 5, 5) }},
		{"weights/x rank", "rank-3 x", func() { ConvBackwardWeights(New(2, 25), New(3, 5, 5), spec, 3, 3) }},
		{"weights/delta rank", "rank-3 delta", func() { ConvBackwardWeights(x, New(3, 25), spec, 3, 3) }},
		{"weights/delta size", "does not match the 5x5 output",
			func() { ConvBackwardWeights(x, New(3, 5, 4), spec, 3, 3) }},
		{"weights/kernel size", "does not match the 5x6 output",
			func() { ConvBackwardWeights(x, New(3, 5, 5), spec, 3, 2) }},
		{"weights/empty kernel", "at least 1x1", func() { ConvBackwardWeights(x, New(3, 5, 5), spec, 0, 3) }},
		{"weights/pad", "invalid pad", func() { ConvBackwardWeights(x, New(3, 5, 5), ConvSpec{Stride: 1, Pad: -1}, 3, 3) }},
	} {
		t.Run(tc.name, func(t *testing.T) { mustPanicContaining(t, tc.want, tc.f) })
	}
}

// TestConvBackwardAllocs pins what the backward kernels allocate:
// ConvBackwardInput its output and no rotated, dilated or padded
// temporaries, ConvBackwardWeights without padding its output and no copy
// of x. Beyond the output a kernel may allocate its two tap-span tables
// and the closures it hands to the parallel runner.
func TestConvBackwardAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	x := Randn(rng, 1, 4, 9, 9)
	w := Randn(rng, 1, 6, 4, 3, 3)
	spec := ConvSpec{Stride: 2}
	delta := Randn(rng, 1, 6, 4, 4)
	withParallelism(t, 1, func() {
		dxAllocs := testing.AllocsPerRun(20, func() { New(4, 9, 9) })
		if got := testing.AllocsPerRun(20, func() { ConvBackwardInput(w, delta, spec, 9, 9) }); got > dxAllocs+4 {
			t.Errorf("ConvBackwardInput: %v allocations, want at most %v (output) + 4", got, dxAllocs)
		}
		dwAllocs := testing.AllocsPerRun(20, func() { New(6, 4, 3, 3) })
		if got := testing.AllocsPerRun(20, func() { ConvBackwardWeights(x, delta, spec, 3, 3) }); got > dwAllocs+2 {
			t.Errorf("ConvBackwardWeights (pad 0): %v allocations, want at most %v (output) + 2", got, dwAllocs)
		}
	})
}
