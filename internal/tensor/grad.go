package tensor

import "fmt"

// MatVec returns the matrix-vector product a [M,N] × x [N] -> [M].
func MatVec(a, x *Tensor) *Tensor {
	if a.Rank() != 2 || x.Rank() != 1 {
		panic(fmt.Sprintf("tensor: MatVec wants a rank 2 and x rank 1, got %v and %v", a.Dims(), x.Dims()))
	}
	m, n := a.Dim(0), a.Dim(1)
	if x.Dim(0) != n {
		panic(fmt.Sprintf("tensor: MatVec dims mismatch: a %v, x %v", a.Dims(), x.Dims()))
	}
	out := New(m)
	for i := 0; i < m; i++ {
		row := a.data[i*n : (i+1)*n]
		sum := 0.0
		for j, v := range row {
			sum += v * x.data[j]
		}
		out.data[i] = sum
	}
	return out
}

// MatVecT returns aᵀ × x for a [M,N] and x [M] -> [N], i.e. the
// transposed-weight product used in FC backpropagation (paper Eq. 3).
func MatVecT(a, x *Tensor) *Tensor {
	m, n := a.Dim(0), a.Dim(1)
	if x.Dim(0) != m {
		panic(fmt.Sprintf("tensor: MatVecT dims mismatch: a %v, x %v", a.Dims(), x.Dims()))
	}
	out := New(n)
	for i := 0; i < m; i++ {
		xi := x.data[i]
		if xi == 0 {
			continue
		}
		row := a.data[i*n : (i+1)*n]
		for j, v := range row {
			out.data[j] += xi * v
		}
	}
	return out
}

// Outer returns the outer product x [M] ⊗ y [N] -> [M,N], the FC weight
// gradient (δ ⊗ input).
func Outer(x, y *Tensor) *Tensor {
	m, n := x.Dim(0), y.Dim(0)
	out := New(m, n)
	for i := 0; i < m; i++ {
		xi := x.data[i]
		for j := 0; j < n; j++ {
			out.data[i*n+j] = xi * y.data[j]
		}
	}
	return out
}

// ConvBackwardInput computes dL/dx for a convolution y = w * x with the
// given spec, from the output gradient delta [N,OH,OW]. Following the
// paper's Eq. 3, this is the (dilated, padded) delta convolved with the
// transposed, 180°-rotated kernel, cropped to the input geometry. inH and
// inW give the input spatial size.
//
// Neither the rotated kernel nor the dilated, padded delta is
// materialized: each real delta row is scattered into the dx rows it
// reaches, visiting n ascending, then ky and kx descending, which is the
// order the full convolution sums each element's terms in. The skipped
// terms multiply a dilation hole or padding zero by a weight and are ±0,
// which cannot change a sum that starts at +0, unless the weight is NaN
// or ±Inf: for such a kernel row every cropped position takes its term
// (0·w is NaN there), exactly as the full convolution does.
func ConvBackwardInput(w, delta *Tensor, spec ConvSpec, inH, inW int) *Tensor {
	spec.validate()
	if w.Rank() != 4 {
		panic(fmt.Sprintf("tensor: ConvBackwardInput wants rank-4 w, got %v", w.Dims()))
	}
	n, c, kh, kw := w.Dim(0), w.Dim(1), w.Dim(2), w.Dim(3)
	oh, ow := spec.checkDelta("ConvBackwardInput", delta, inH, inW, kh, kw)
	if delta.Dim(0) != n {
		panic(fmt.Sprintf("tensor: ConvBackwardInput channel mismatch: delta has %d, w has %d", delta.Dim(0), n))
	}
	s, p := spec.Stride, spec.Pad
	// The full convolution spans (oh-1)*s + kh rows; past the pad offset
	// only cropH of them land in dx. The rest of dx keeps gradient zero.
	cropH := min(inH, (oh-1)*s+kh-p)
	cropW := min(inW, (ow-1)*s+kw-p)
	ys, xs := tapSpans(kh, oh, s, p, inH), tapSpans(kw, ow, s, p, inW)
	dx := New(c, inH, inW)
	wd, dd, dxd := w.data, delta.data, dx.data
	// Each input channel owns a disjoint dx plane.
	parallelFor(c, 2*int64(n)*covered(ys)*covered(xs), func(lo, hi int) {
		for ic := lo; ic < hi; ic++ {
			dxplane := dxd[ic*inH*inW : (ic+1)*inH*inW]
			for in := 0; in < n; in++ {
				dplane := dd[in*oh*ow : (in+1)*oh*ow]
				for ky := kh - 1; ky >= 0; ky-- {
					wrow := wd[((in*c+ic)*kh+ky)*kw:][:kw]
					if !allFinite(wrow) {
						for kx := kw - 1; kx >= 0; kx-- {
							wv := wrow[kx]
							for y := 0; y < cropH; y++ {
								dxrow := dxplane[y*inW : y*inW+cropW]
								for x := range dxrow {
									dxrow[x] += dilatedAt(dplane, oh, ow, s, y+p-ky, x+p-kx) * wv
								}
							}
						}
						continue
					}
					for oy := ys[ky].lo; oy < ys[ky].hi; oy++ {
						dxrow := dxplane[(oy*s+ky-p)*inW:][:inW]
						drow := dplane[oy*ow : (oy+1)*ow]
						for kx := kw - 1; kx >= 0; kx-- {
							if rx := xs[kx]; rx.lo < rx.hi {
								scatterStrided(dxrow[rx.lo*s+kx-p:], drow[rx.lo:rx.hi], s, wrow[kx])
							}
						}
					}
				}
			}
		}
	})
	return dx
}

// scatterStrided adds src[j]·a to dst[j*stride] for every j. src must not
// be empty.
func scatterStrided(dst, src []float64, stride int, a float64) {
	dst = dst[:(len(src)-1)*stride+1]
	for j, v := range src {
		dst[j*stride] += v * a
	}
}

// allFinite reports whether no element of v is NaN or ±Inf.
func allFinite(v []float64) bool {
	for _, x := range v {
		if x-x != 0 {
			return false
		}
	}
	return true
}

// dilatedAt reads position (y, x) of an [oh, ow] plane dilated by stride:
// the plane's value on the stride grid, 0 in the holes and outside.
func dilatedAt(plane []float64, oh, ow, stride, y, x int) float64 {
	if y < 0 || x < 0 || y%stride != 0 || x%stride != 0 || y/stride >= oh || x/stride >= ow {
		return 0
	}
	return plane[y/stride*ow+x/stride]
}

// ConvBackwardWeights computes dL/dw for y = w * x: each weight gradient is
// the convolution of the layer input with the (dilated) output gradient
// (paper Eq. 4, "errors are convolved with inputs of the layer").
// x is [C,H,W], delta is [N,OH,OW]; the result matches w's shape
// [N,C,KH,KW].
//
// Each tap is one running dot product of the delta rows with the strided
// input rows under them, in (oy, ox) order. A padded input is copied once
// so that padding zeros still enter the sums (a padding zero times a NaN
// or ±Inf delta is NaN); with no padding x is read in place.
func ConvBackwardWeights(x, delta *Tensor, spec ConvSpec, kh, kw int) *Tensor {
	spec.validate()
	if x.Rank() != 3 {
		panic(fmt.Sprintf("tensor: ConvBackwardWeights wants rank-3 x, got %v", x.Dims()))
	}
	c := x.Dim(0)
	oh, ow := spec.checkDelta("ConvBackwardWeights", delta, x.Dim(1), x.Dim(2), kh, kw)
	n, s := delta.Dim(0), spec.Stride
	xp := x
	if spec.Pad > 0 {
		xp = Pad(x, spec.Pad)
	}
	ph, pw := xp.Dim(1), xp.Dim(2)
	dw := New(n, c, kh, kw)
	xd, dd, dwd := xp.data, delta.data, dw.data
	// Each output-gradient channel owns a disjoint [c, kh, kw] slab of dw.
	parallelFor(n, 2*int64(c)*int64(kh)*int64(kw)*int64(oh)*int64(ow), func(lo, hi int) {
		for in := lo; in < hi; in++ {
			dplane := dd[in*oh*ow : (in+1)*oh*ow]
			for ic := 0; ic < c; ic++ {
				xplane := xd[ic*ph*pw : (ic+1)*ph*pw]
				slab := dwd[(in*c+ic)*kh*kw : (in*c+ic+1)*kh*kw]
				for ky := 0; ky < kh; ky++ {
					for kx := 0; kx < kw; kx++ {
						sum := 0.0
						for oy := 0; oy < oh; oy++ {
							sum = dotStrided(sum, xplane[(oy*s+ky)*pw+kx:], dplane[oy*ow:(oy+1)*ow], s)
						}
						slab[ky*kw+kx] = sum
					}
				}
			}
		}
	})
	return dw
}

// dotStrided returns sum + Σ_j x[j*stride]·d[j], accumulated in j order.
// d must not be empty.
func dotStrided(sum float64, x, d []float64, stride int) float64 {
	x = x[:(len(d)-1)*stride+1]
	for j, v := range d {
		sum += x[j*stride] * v
	}
	return sum
}

// DepthwiseBackwardInput computes dL/dx for a depthwise convolution.
// w is [C,KH,KW], delta is [C,OH,OW].
func DepthwiseBackwardInput(w, delta *Tensor, spec ConvSpec, inH, inW int) *Tensor {
	c, kh, kw := w.Dim(0), w.Dim(1), w.Dim(2)
	dx := New(c, inH, inW)
	oh, ow := delta.Dim(1), delta.Dim(2)
	// Depthwise gradients scatter within a single channel's dx plane only.
	parallelFor(c, 2*int64(oh)*int64(ow)*int64(kh)*int64(kw), func(lo, hi int) {
		for ic := lo; ic < hi; ic++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					g := delta.data[(ic*oh+oy)*ow+ox]
					if g == 0 {
						continue
					}
					for ky := 0; ky < kh; ky++ {
						iy := oy*spec.Stride - spec.Pad + ky
						if iy < 0 || iy >= inH {
							continue
						}
						for kx := 0; kx < kw; kx++ {
							ix := ox*spec.Stride - spec.Pad + kx
							if ix < 0 || ix >= inW {
								continue
							}
							dx.data[(ic*inH+iy)*inW+ix] += g * w.data[(ic*kh+ky)*kw+kx]
						}
					}
				}
			}
		}
	})
	return dx
}

// DepthwiseBackwardWeights computes dL/dw for a depthwise convolution.
func DepthwiseBackwardWeights(x, delta *Tensor, spec ConvSpec, kh, kw int) *Tensor {
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	oh, ow := delta.Dim(1), delta.Dim(2)
	dw := New(c, kh, kw)
	parallelFor(c, 2*int64(kh)*int64(kw)*int64(oh)*int64(ow), func(lo, hi int) {
		for ic := lo; ic < hi; ic++ {
			for ky := 0; ky < kh; ky++ {
				for kx := 0; kx < kw; kx++ {
					sum := 0.0
					for oy := 0; oy < oh; oy++ {
						iy := oy*spec.Stride - spec.Pad + ky
						if iy < 0 || iy >= h {
							continue
						}
						for ox := 0; ox < ow; ox++ {
							ix := ox*spec.Stride - spec.Pad + kx
							if ix < 0 || ix >= w {
								continue
							}
							sum += x.data[(ic*h+iy)*w+ix] * delta.data[(ic*oh+oy)*ow+ox]
						}
					}
					dw.data[(ic*kh+ky)*kw+kx] = sum
				}
			}
		}
	})
	return dw
}
