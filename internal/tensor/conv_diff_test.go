package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// specials are the values the differential checks inject: the ones whose
// IEEE-754 behaviour a reordered or term-skipping kernel would change.
var specials = []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0}

// diffCase is one convolution geometry with its operands: the forward
// input and kernels, and an output gradient for the backward kernels.
type diffCase struct {
	x, w, delta *Tensor
	spec        ConvSpec
}

func (d diffCase) String() string {
	return fmt.Sprintf("x %v, w %v, stride %d, pad %d", d.x.Dims(), d.w.Dims(), d.spec.Stride, d.spec.Pad)
}

// buildDiffCase decodes a geometry from geom and operands from seed:
// strides 1–3, pads 0–2, kernels 1–4 on each axis (square or not), 1–3
// channels in and out, and inputs from exactly the kernel's padded size
// up to 5 larger. Each byte pair of inject overwrites one element of x, w
// or delta with one of the specials.
func buildDiffCase(geom uint32, seed int64, inject []byte) diffCase {
	digit := func(base uint32) int {
		d := int(geom % base)
		geom /= base
		return d
	}
	s, p := 1+digit(3), digit(3)
	kh, kw := 1+digit(4), 1+digit(4)
	h, wd := max(1, kh-2*p+digit(6)), max(1, kw-2*p+digit(6))
	c, n := 1+digit(3), 1+digit(3)
	spec := ConvSpec{Stride: s, Pad: p}

	rng := rand.New(rand.NewSource(seed))
	cse := diffCase{
		x:     Randn(rng, 1, c, h, wd),
		w:     Randn(rng, 1, n, c, kh, kw),
		delta: Randn(rng, 1, n, spec.OutSize(h, kh), spec.OutSize(wd, kw)),
		spec:  spec,
	}
	operands := []*Tensor{cse.x, cse.w, cse.delta}
	for i := 0; i+1 < len(inject); i += 2 {
		t := operands[int(inject[i])%len(operands)]
		pos := (int(inject[i]) / len(operands)) % t.Len()
		t.data[pos] = specials[int(inject[i+1])%len(specials)]
	}
	return cse
}

// gatherConvBackwardInput is Eq. 3 written per element: dx[ic, y, x] sums,
// over n ascending, ky descending and kx descending, the stride-dilated
// delta at (y+pad-ky, x+pad-kx) times w[n, ic, ky, kx], zeros of the
// dilation and padding included, over the part of dx that the full
// convolution covers. For square kernels it is the pre-rewrite kernel;
// unlike that kernel it also holds for non-square ones.
func gatherConvBackwardInput(w, delta *Tensor, spec ConvSpec, inH, inW int) *Tensor {
	n, c, kh, kw := w.Dim(0), w.Dim(1), w.Dim(2), w.Dim(3)
	oh, ow := delta.Dim(1), delta.Dim(2)
	s, p := spec.Stride, spec.Pad
	dx := New(c, inH, inW)
	for ic := 0; ic < c; ic++ {
		for y := 0; y < min(inH, (oh-1)*s+kh-p); y++ {
			for x := 0; x < min(inW, (ow-1)*s+kw-p); x++ {
				sum := 0.0
				for in := 0; in < n; in++ {
					for ky := kh - 1; ky >= 0; ky-- {
						for kx := kw - 1; kx >= 0; kx-- {
							d := 0.0
							dy, dxx := y+p-ky, x+p-kx
							if dy >= 0 && dxx >= 0 && dy%s == 0 && dxx%s == 0 && dy/s < oh && dxx/s < ow {
								d = delta.At(in, dy/s, dxx/s)
							}
							sum += d * w.At(in, ic, ky, kx)
						}
					}
				}
				dx.Set(sum, ic, y, x)
			}
		}
	}
	return dx
}

// sameBits reports whether got and want have the same shape and identical
// float64 bits, counting any two NaNs as equal, and otherwise the first
// differing element (-1 for a shape mismatch). Tolerances would hide the
// reduction-order drift these checks exist to catch.
func sameBits(got, want *Tensor) (int, bool) {
	if fmt.Sprint(got.Dims()) != fmt.Sprint(want.Dims()) {
		return -1, false
	}
	for i, g := range got.data {
		v := want.data[i]
		if math.Float64bits(g) != math.Float64bits(v) && !(math.IsNaN(g) && math.IsNaN(v)) {
			return i, false
		}
	}
	return 0, true
}

// diffAt describes the mismatch sameBits found at element i (-1: shape).
func diffAt(got, want *Tensor, i int) string {
	if i < 0 {
		return fmt.Sprintf("shape %v, want %v", got.Dims(), want.Dims())
	}
	return fmt.Sprintf("element %d is %v, want %v", i, got.data[i], want.data[i])
}

// checkConvKernels runs Conv2D, ConvBackwardWeights and ConvBackwardInput
// on cse at budgets 1, GOMAXPROCS and more workers than items, and fails
// unless every result is bit-identical to the pre-rewrite kernels (and,
// for the input gradient, to the per-element Eq. 3 sum).
func checkConvKernels(t *testing.T, cse diffCase) {
	t.Helper()
	kh, kw := cse.w.Dim(2), cse.w.Dim(3)
	h, wd := cse.x.Dim(1), cse.x.Dim(2)
	var wantY, wantDW, wantDX, refDX *Tensor
	withParallelism(t, 1, func() {
		wantY = refConv2D(cse.x, cse.w, cse.spec)
		wantDW = refConvBackwardWeights(cse.x, cse.delta, cse.spec, kh, kw)
		wantDX = gatherConvBackwardInput(cse.w, cse.delta, cse.spec, h, wd)
		if kh == kw {
			refDX = refConvBackwardInput(cse.w, cse.delta, cse.spec, h, wd)
		}
	})
	if refDX != nil {
		if i, ok := sameBits(wantDX, refDX); !ok {
			t.Fatalf("%v: per-element Eq. 3 differs from the reference kernel: %s", cse, diffAt(wantDX, refDX, i))
		}
	}
	for _, budget := range budgets(max(cse.w.Dim(0), cse.w.Dim(1))) {
		withParallelism(t, budget, func() {
			for _, r := range []struct {
				name      string
				got, want *Tensor
			}{
				{"Conv2D", Conv2D(cse.x, cse.w, cse.spec), wantY},
				{"ConvBackwardWeights", ConvBackwardWeights(cse.x, cse.delta, cse.spec, kh, kw), wantDW},
				{"ConvBackwardInput", ConvBackwardInput(cse.w, cse.delta, cse.spec, h, wd), wantDX},
			} {
				if i, ok := sameBits(r.got, r.want); !ok {
					t.Fatalf("%v: %s at budget %d differs from the reference: %s", cse, r.name, budget, diffAt(r.got, r.want, i))
				}
			}
		})
	}
}

// TestConvKernelsMatchReference is the differential property test of the
// row-streaming kernels against the pre-rewrite ones over random
// geometry, half the cases with NaN, ±Inf, −0 or zero injected.
func TestConvKernelsMatchReference(t *testing.T) {
	cases := 1500
	if testing.Short() {
		cases = 300
	}
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < cases; i++ {
		var inject []byte
		if i%2 == 1 {
			inject = make([]byte, 2*(1+rng.Intn(4)))
			rng.Read(inject)
		}
		checkConvKernels(t, buildDiffCase(rng.Uint32(), rng.Int63(), inject))
	}
}

// FuzzConvKernels drives the same differential check from fuzzed
// geometry, operand seed and special-value injections.
func FuzzConvKernels(f *testing.F) {
	f.Add(uint32(0), int64(1), []byte{})
	f.Add(uint32(1234567), int64(2), []byte{1, 0, 4, 1})
	f.Fuzz(func(t *testing.T, geom uint32, seed int64, inject []byte) {
		if len(inject) > 64 {
			inject = inject[:64]
		}
		checkConvKernels(t, buildDiffCase(geom, seed, inject))
	})
}
