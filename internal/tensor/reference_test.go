package tensor

// The convolution kernels as they were before the row-streaming rewrite,
// kept verbatim (renamed, and with the input-gradient reference calling
// the reference forward kernel) as the oracle of the differential test
// and FuzzConvKernels. The rewrite must reproduce them bit for bit.

import "fmt"

// refConv2D computes a direct 2D convolution (really cross-correlation, as in
// deep learning frameworks) of a single image.
//
//	x: [C, H, W]      input feature maps
//	w: [N, C, KH, KW] kernels
//
// The result has shape [N, OH, OW]. This is the mathematical "direct
// convolution" the INCA 2T1R array implements (paper Eq. 1).
func refConv2D(x, w *Tensor, spec ConvSpec) *Tensor {
	spec.validate()
	if x.Rank() != 3 || w.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Conv2D wants x rank 3 and w rank 4, got %v and %v", x.Dims(), w.Dims()))
	}
	c, h, wd := x.Dim(0), x.Dim(1), x.Dim(2)
	n, wc, kh, kw := w.Dim(0), w.Dim(1), w.Dim(2), w.Dim(3)
	if wc != c {
		panic(fmt.Sprintf("tensor: Conv2D channel mismatch: x has %d, w has %d", c, wc))
	}
	spec.checkKernel("Conv2D", h, wd, kh, kw)
	oh, ow := spec.OutSize(h, kh), spec.OutSize(wd, kw)
	out := New(n, oh, ow)
	xd, wdat, od := x.data, w.data, out.data
	// Output channels are independent, so they parallelize without
	// changing any per-element reduction order.
	parallelFor(n, 2*int64(oh)*int64(ow)*int64(c)*int64(kh)*int64(kw), func(lo, hi int) {
		for on := lo; on < hi; on++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					sum := 0.0
					iy0 := oy*spec.Stride - spec.Pad
					ix0 := ox*spec.Stride - spec.Pad
					for ic := 0; ic < c; ic++ {
						for ky := 0; ky < kh; ky++ {
							iy := iy0 + ky
							if iy < 0 || iy >= h {
								continue
							}
							xrow := (ic*h + iy) * wd
							wrow := ((on*c+ic)*kh + ky) * kw
							for kx := 0; kx < kw; kx++ {
								ix := ix0 + kx
								if ix < 0 || ix >= wd {
									continue
								}
								sum += xd[xrow+ix] * wdat[wrow+kx]
							}
						}
					}
					od[(on*oh+oy)*ow+ox] = sum
				}
			}
		}
	})
	return out
}

// refConvBackwardInput computes dL/dx for a convolution y = w * x with the
// given spec, from the output gradient delta [N,OH,OW]. Following the
// paper's Eq. 3, this is the (dilated, padded) delta convolved with the
// transposed, 180°-rotated kernel. inH and inW give the input spatial size.
func refConvBackwardInput(w, delta *Tensor, spec ConvSpec, inH, inW int) *Tensor {
	spec.validate()
	wt := Rot180(w) // [C, N, KH, KW]
	kh := w.Dim(2)
	// Undo stride by dilating the gradient, then full-convolve:
	// pad by (k-1) so every input position receives all contributions.
	d := Dilate(delta, spec.Stride)
	full := refConv2D(Pad(d, kh-1), wt, ConvSpec{Stride: 1})
	// full has size (dilH + kh - 1) × (dilW + kw - 1); input position i
	// corresponds to full position i + pad. When the stride does not divide
	// the input exactly, trailing input rows/cols were never covered by any
	// window and keep gradient zero.
	c := wt.Dim(0)
	dx := New(c, inH, inW)
	fh, fw := full.Dim(1), full.Dim(2)
	copyH := min(inH, fh-spec.Pad)
	copyW := min(inW, fw-spec.Pad)
	for ic := 0; ic < c; ic++ {
		for y := 0; y < copyH; y++ {
			srcRow := (ic*fh+y+spec.Pad)*fw + spec.Pad
			dstRow := (ic*inH + y) * inW
			copy(dx.data[dstRow:dstRow+copyW], full.data[srcRow:srcRow+copyW])
		}
	}
	return dx
}

// refConvBackwardWeights computes dL/dw for y = w * x: each weight gradient is
// the convolution of the layer input with the (dilated) output gradient
// (paper Eq. 4, "errors are convolved with inputs of the layer").
// x is [C,H,W], delta is [N,OH,OW]; the result matches w's shape
// [N,C,KH,KW].
func refConvBackwardWeights(x, delta *Tensor, spec ConvSpec, kh, kw int) *Tensor {
	spec.validate()
	c := x.Dim(0)
	n, oh, ow := delta.Dim(0), delta.Dim(1), delta.Dim(2)
	xp := Pad(x, spec.Pad)
	dw := New(n, c, kh, kw)
	ph, pw := xp.Dim(1), xp.Dim(2)
	// Each output-gradient channel owns a disjoint [c, kh, kw] slab of dw.
	parallelFor(n, 2*int64(c)*int64(kh)*int64(kw)*int64(oh)*int64(ow), func(lo, hi int) {
		for in := lo; in < hi; in++ {
			for ic := 0; ic < c; ic++ {
				for ky := 0; ky < kh; ky++ {
					for kx := 0; kx < kw; kx++ {
						sum := 0.0
						for oy := 0; oy < oh; oy++ {
							iy := oy*spec.Stride + ky
							if iy >= ph {
								continue
							}
							for ox := 0; ox < ow; ox++ {
								ix := ox*spec.Stride + kx
								if ix >= pw {
									continue
								}
								sum += xp.data[(ic*ph+iy)*pw+ix] * delta.data[(in*oh+oy)*ow+ox]
							}
						}
						dw.data[((in*c+ic)*kh+ky)*kw+kx] = sum
					}
				}
			}
		}
	})
	return dw
}
