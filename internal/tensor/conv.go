package tensor

import "fmt"

// ConvSpec describes the geometry of a 2D convolution.
type ConvSpec struct {
	Stride int // stride in both spatial directions (>= 1)
	Pad    int // symmetric zero padding (>= 0)
}

// OutSize returns the output spatial size for an input of size in with
// kernel size k under this spec.
func (s ConvSpec) OutSize(in, k int) int {
	return (in+2*s.Pad-k)/s.Stride + 1
}

func (s ConvSpec) validate() {
	if s.Stride < 1 {
		panic(fmt.Sprintf("tensor: invalid stride %d", s.Stride))
	}
	if s.Pad < 0 {
		panic(fmt.Sprintf("tensor: invalid pad %d", s.Pad))
	}
}

// checkKernel panics with a clear geometry message when the kernel cannot
// produce a positive output size: a degenerate kernel, or one larger than
// the padded input. Without this check OutSize yields a zero or negative
// dimension and the caller fails later with a confusing index panic (or
// silently returns an empty tensor).
func (s ConvSpec) checkKernel(op string, h, w, kh, kw int) {
	if kh < 1 || kw < 1 {
		panic(fmt.Sprintf("tensor: %s kernel %dx%d must be at least 1x1", op, kh, kw))
	}
	if kh > h+2*s.Pad || kw > w+2*s.Pad {
		panic(fmt.Sprintf(
			"tensor: %s kernel %dx%d larger than padded input %dx%d (input %dx%d, pad %d)",
			op, kh, kw, h+2*s.Pad, w+2*s.Pad, h, w, s.Pad))
	}
}

// checkDelta panics with a clear geometry message unless delta is a
// rank-3 [N, OH, OW] output gradient whose OH×OW is the output size of an
// h×w input under a kh×kw kernel. It returns OH and OW.
func (s ConvSpec) checkDelta(op string, delta *Tensor, h, w, kh, kw int) (oh, ow int) {
	if delta.Rank() != 3 {
		panic(fmt.Sprintf("tensor: %s wants rank-3 delta, got %v", op, delta.Dims()))
	}
	s.checkKernel(op, h, w, kh, kw)
	oh, ow = s.OutSize(h, kh), s.OutSize(w, kw)
	if delta.Dim(1) != oh || delta.Dim(2) != ow {
		panic(fmt.Sprintf(
			"tensor: %s delta %v does not match the %dx%d output of a %dx%d input (kernel %dx%d, stride %d, pad %d)",
			op, delta.Dims(), oh, ow, h, w, kh, kw, s.Stride, s.Pad))
	}
	return oh, ow
}

// span is a half-open range [lo, hi) of output positions.
type span struct{ lo, hi int }

// tapSpans returns, for each kernel tap t in [0, k), the output positions
// o in [0, n) whose input position o*stride + t - pad lies inside [0, in):
// the positions where that tap reads real input rather than padding.
// Empty spans have lo == hi.
func tapSpans(k, n, stride, pad, in int) []span {
	spans := make([]span, k)
	for t := range spans {
		off := t - pad
		lo, hi := 0, 0
		if off < 0 {
			lo = (stride - 1 - off) / stride
		}
		if in > off {
			hi = min(n, (in-off+stride-1)/stride)
		}
		spans[t] = span{lo, max(lo, hi)}
	}
	return spans
}

// covered counts the output positions, summed over taps, that spans cover.
func covered(spans []span) int64 {
	total := int64(0)
	for _, sp := range spans {
		total += int64(sp.hi - sp.lo)
	}
	return total
}

// Conv2D computes a direct 2D convolution (really cross-correlation, as in
// deep learning frameworks) of a single image.
//
//	x: [C, H, W]      input feature maps
//	w: [N, C, KH, KW] kernels
//
// The result has shape [N, OH, OW]. This is the mathematical "direct
// convolution" the INCA 2T1R array implements (paper Eq. 1).
//
// The kernel streams rows: each weight tap is held in a register and
// multiplied into a whole output row at once, over only the positions
// where the tap reads real input. Every output element still sums its
// (ic, ky, kx) terms in ascending order starting from +0, so the result is
// bit-identical to the per-element reduction.
func Conv2D(x, w *Tensor, spec ConvSpec) *Tensor {
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
	s, p := spec.Stride, spec.Pad
	ys, xs := tapSpans(kh, oh, s, p, h), tapSpans(kw, ow, s, p, wd)
	out := New(n, oh, ow)
	xd, wdat, od := x.data, w.data, out.data
	// Output channels are independent, so they parallelize without
	// changing any per-element reduction order.
	parallelFor(n, 2*int64(c)*covered(ys)*covered(xs), func(lo, hi int) {
		for on := lo; on < hi; on++ {
			oplane := od[on*oh*ow : (on+1)*oh*ow]
			for ic := 0; ic < c; ic++ {
				xplane := xd[ic*h*wd : (ic+1)*h*wd]
				for ky, ry := range ys {
					wrow := wdat[((on*c+ic)*kh+ky)*kw:][:kw]
					for kx, wv := range wrow {
						rx := xs[kx]
						if rx.lo == rx.hi {
							continue
						}
						for oy := ry.lo; oy < ry.hi; oy++ {
							xrow := xplane[(oy*s+ky-p)*wd+rx.lo*s+kx-p:]
							axpyStrided(oplane[oy*ow+rx.lo:oy*ow+rx.hi], xrow, s, wv)
						}
					}
				}
			}
		}
	})
	return out
}

// axpyStrided adds src[j*stride]·a to dst[j] for every j. dst must not be
// empty.
func axpyStrided(dst, src []float64, stride int, a float64) {
	src = src[:(len(dst)-1)*stride+1]
	for j := range dst {
		dst[j] += src[j*stride] * a
	}
}

// DepthwiseConv2D convolves each input channel with its own single-channel
// kernel (paper Fig. 3b, "depthwise convolution": no accumulation across
// input channels).
//
//	x: [C, H, W]
//	w: [C, KH, KW]
//
// Result: [C, OH, OW].
func DepthwiseConv2D(x, w *Tensor, spec ConvSpec) *Tensor {
	spec.validate()
	if x.Rank() != 3 || w.Rank() != 3 {
		panic(fmt.Sprintf("tensor: DepthwiseConv2D wants rank-3 x and w, got %v and %v", x.Dims(), w.Dims()))
	}
	c, h, wd := x.Dim(0), x.Dim(1), x.Dim(2)
	if w.Dim(0) != c {
		panic(fmt.Sprintf("tensor: DepthwiseConv2D channel mismatch: x has %d, w has %d", c, w.Dim(0)))
	}
	kh, kw := w.Dim(1), w.Dim(2)
	spec.checkKernel("DepthwiseConv2D", h, wd, kh, kw)
	oh, ow := spec.OutSize(h, kh), spec.OutSize(wd, kw)
	out := New(c, oh, ow)
	// Channels never interact in a depthwise convolution, so they are the
	// natural parallel axis.
	parallelFor(c, 2*int64(oh)*int64(ow)*int64(kh)*int64(kw), func(lo, hi int) {
		for ic := lo; ic < hi; ic++ {
			for oy := 0; oy < oh; oy++ {
				for ox := 0; ox < ow; ox++ {
					sum := 0.0
					for ky := 0; ky < kh; ky++ {
						iy := oy*spec.Stride - spec.Pad + ky
						if iy < 0 || iy >= h {
							continue
						}
						for kx := 0; kx < kw; kx++ {
							ix := ox*spec.Stride - spec.Pad + kx
							if ix < 0 || ix >= wd {
								continue
							}
							sum += x.data[(ic*h+iy)*wd+ix] * w.data[(ic*kh+ky)*kw+kx]
						}
					}
					out.data[(ic*oh+oy)*ow+ox] = sum
				}
			}
		}
	})
	return out
}

// Im2Col unrolls the sliding windows of x into a matrix of shape
// [C*KH*KW, OH*OW]. Column j holds the window that produces output position
// j; this is the "GEMM-based convolution" unrolling used by WS accelerators
// (paper §III.B, "Challenges"). The repetition of input elements across
// columns is exactly the RRAM blow-up quantified in Fig. 7b.
func Im2Col(x *Tensor, kh, kw int, spec ConvSpec) *Tensor {
	spec.validate()
	if x.Rank() != 3 {
		panic(fmt.Sprintf("tensor: Im2Col wants rank-3 x, got %v", x.Dims()))
	}
	c, h, wd := x.Dim(0), x.Dim(1), x.Dim(2)
	spec.checkKernel("Im2Col", h, wd, kh, kw)
	oh, ow := spec.OutSize(h, kh), spec.OutSize(wd, kw)
	out := New(c*kh*kw, oh*ow)
	// Each input channel fills its own kh*kw output rows: pure disjoint
	// copies, parallel over channels.
	parallelFor(c, int64(kh)*int64(kw)*int64(oh)*int64(ow), func(lo, hi int) {
		for ic := lo; ic < hi; ic++ {
			for ky := 0; ky < kh; ky++ {
				for kx := 0; kx < kw; kx++ {
					row := (ic*kh+ky)*kw + kx
					for oy := 0; oy < oh; oy++ {
						iy := oy*spec.Stride - spec.Pad + ky
						for ox := 0; ox < ow; ox++ {
							ix := ox*spec.Stride - spec.Pad + kx
							v := 0.0
							if iy >= 0 && iy < h && ix >= 0 && ix < wd {
								v = x.data[(ic*h+iy)*wd+ix]
							}
							out.data[row*(oh*ow)+oy*ow+ox] = v
						}
					}
				}
			}
		}
	})
	return out
}

// matMulBlock is the column-tile width of the blocked MatMul: 512 float64
// values keep one b-stripe (and the matching output stripe) resident in
// L1 while the k loop streams over it.
const matMulBlock = 512

// MatMul returns a×b for 2-D tensors a [M,K] and b [K,N].
//
// The kernel is cache-blocked over columns of b and parallel over rows of
// a. Each output element still accumulates its k products in ascending
// order on a single goroutine, so the result is byte-identical to the
// naive triple loop at any parallelism budget.
func MatMul(a, b *Tensor) *Tensor {
	if a.Rank() != 2 || b.Rank() != 2 {
		panic(fmt.Sprintf("tensor: MatMul wants rank-2 tensors, got %v and %v", a.Dims(), b.Dims()))
	}
	m, k := a.Dim(0), a.Dim(1)
	k2, n := b.Dim(0), b.Dim(1)
	if k != k2 {
		panic(fmt.Sprintf("tensor: MatMul inner dims mismatch: %d vs %d", k, k2))
	}
	out := New(m, n)
	parallelFor(m, 2*int64(k)*int64(n), func(lo, hi int) {
		for jb := 0; jb < n; jb += matMulBlock {
			je := min(jb+matMulBlock, n)
			for i := lo; i < hi; i++ {
				arow := a.data[i*k : (i+1)*k]
				orow := out.data[i*n+jb : i*n+je]
				for p := 0; p < k; p++ {
					av := arow[p]
					if av == 0 {
						continue
					}
					brow := b.data[p*n+jb : p*n+je]
					for j, bv := range brow {
						orow[j] += av * bv
					}
				}
			}
		}
	})
	return out
}

// Conv2DIm2Col computes the same result as Conv2D via the unrolled
// GEMM formulation: reshape w to [N, C*KH*KW] and multiply by the im2col
// matrix. Used to cross-check the direct path and to model WS execution.
func Conv2DIm2Col(x, w *Tensor, spec ConvSpec) *Tensor {
	n, c, kh, kw := w.Dim(0), w.Dim(1), w.Dim(2), w.Dim(3)
	cols := Im2Col(x, kh, kw, spec)
	wm := w.Reshape(n, c*kh*kw)
	prod := MatMul(wm, cols)
	oh := spec.OutSize(x.Dim(1), kh)
	ow := spec.OutSize(x.Dim(2), kw)
	return prod.Reshape(n, oh, ow)
}

// Rot180 rotates each KH×KW kernel plane of w [N, C, KH, KW] by 180° and
// swaps the N and C axes, producing the transposed kernel W^T used in
// backpropagation (paper Eq. 3): result is [C, N, KH, KW]. The in-situ
// model streams it onto the arrays; ConvBackwardInput reads w in place.
func Rot180(w *Tensor) *Tensor {
	if w.Rank() != 4 {
		panic(fmt.Sprintf("tensor: Rot180 wants rank-4 w, got %v", w.Dims()))
	}
	n, c, kh, kw := w.Dim(0), w.Dim(1), w.Dim(2), w.Dim(3)
	out := New(c, n, kh, kw)
	for in := 0; in < n; in++ {
		for ic := 0; ic < c; ic++ {
			for ky := 0; ky < kh; ky++ {
				for kx := 0; kx < kw; kx++ {
					v := w.data[((in*c+ic)*kh+ky)*kw+kx]
					out.data[((ic*n+in)*kh+(kh-1-ky))*kw+(kw-1-kx)] = v
				}
			}
		}
	}
	return out
}

// Pad returns x [C,H,W] zero-padded by p on every spatial side.
func Pad(x *Tensor, p int) *Tensor { return PadHW(x, p, p) }

// PadHW returns x [C,H,W] zero-padded by py rows above and below and px
// columns left and right.
func PadHW(x *Tensor, py, px int) *Tensor {
	if py == 0 && px == 0 {
		return x.Clone()
	}
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	ph, pw := h+2*py, w+2*px
	out := New(c, ph, pw)
	for ic := 0; ic < c; ic++ {
		for iy := 0; iy < h; iy++ {
			src := x.data[(ic*h+iy)*w : (ic*h+iy)*w+w]
			dstRow := (ic*ph+iy+py)*pw + px
			copy(out.data[dstRow:dstRow+w], src)
		}
	}
	return out
}

// Dilate inserts (stride-1) zeros between the elements of each spatial map
// of x [C,H,W]. It converts a strided convolution's output gradient into
// the dense form needed by the full-convolution backward pass.
func Dilate(x *Tensor, stride int) *Tensor {
	if stride <= 1 {
		return x.Clone()
	}
	c, h, w := x.Dim(0), x.Dim(1), x.Dim(2)
	oh := (h-1)*stride + 1
	ow := (w-1)*stride + 1
	out := New(c, oh, ow)
	for ic := 0; ic < c; ic++ {
		for iy := 0; iy < h; iy++ {
			for ix := 0; ix < w; ix++ {
				out.data[(ic*oh+iy*stride)*ow+ix*stride] = x.data[(ic*h+iy)*w+ix]
			}
		}
	}
	return out
}

// CropTo crops x [C,H,W] to [C,h,w] starting at the origin offset (oy, ox).
func CropTo(x *Tensor, oy, ox, h, w int) *Tensor {
	c, ih, iw := x.Dim(0), x.Dim(1), x.Dim(2)
	if oy+h > ih || ox+w > iw {
		panic(fmt.Sprintf("tensor: crop [%d+%d, %d+%d] exceeds input [%d, %d]", oy, h, ox, w, ih, iw))
	}
	out := New(c, h, w)
	for ic := 0; ic < c; ic++ {
		for y := 0; y < h; y++ {
			src := (ic*ih+oy+y)*iw + ox
			copy(out.data[(ic*h+y)*w:(ic*h+y)*w+w], x.data[src:src+w])
		}
	}
	return out
}
