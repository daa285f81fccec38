// Package insitu executes a trainable network end-to-end on the RRAM
// array models — the functional counterpart of the paper's §IV.C dataflow:
//
//   - Feedforward: every convolution runs as direct convolution on 2T1R
//     planes (activations resident, kernels streamed over the pillars);
//     FC layers run on channel-folded planes; pooling and activation run
//     in the digital post-processing units.
//   - Backpropagation: the error convolution δ_{l+1} * Wᵀ runs on planes
//     holding the (dilated, padded) errors, the computed errors overwrite
//     the layer's activation cells, ReLU gradients are AND gates, and
//     max-pooling restores positions via the recorded LUT.
//   - Weight update: the gradient convolution δ * x reads the activations
//     still resident in the planes, with the error map streamed as the
//     kernel (paper Fig. 4); updated weights are written back to ordinary
//     memory, never to RRAM.
//
// Tests verify the in-situ gradients equal the software engine's and that
// a network trained entirely in situ learns the synthetic task.
package insitu

import (
	"fmt"
	"math"

	"github.com/inca-arch/inca/internal/core"
	"github.com/inca-arch/inca/internal/fixed"
	"github.com/inca-arch/inca/internal/rram"
	"github.com/inca-arch/inca/internal/tensor"
	"github.com/inca-arch/inca/internal/train"
)

// Options configures the device effects of in-situ execution.
type Options struct {
	// WeightBits / ActivationBits quantize the streamed and stored
	// operands (0 disables — ideal arithmetic).
	WeightBits     int
	ActivationBits int
	// ADCBits quantizes every analog window read (0 disables). FullScale
	// calibrates the converter range relative to each read's operand
	// magnitudes.
	ADCBits int
	// ActNoise perturbs activations as they are written into the planes
	// (the IS nonideality location).
	ActNoise *rram.NoiseModel
	// TrackWear enables per-plane endurance accounting.
	TrackWear bool
	Endurance int64
}

// Machine executes train.Network topologies on the array models.
type Machine struct {
	opt   Options
	stats rram.Stats
	wear  []*rram.Wear
}

// New builds an in-situ machine.
func New(opt Options) *Machine { return &Machine{opt: opt} }

// Stats returns the accumulated device event counts.
func (m *Machine) Stats() rram.Stats { return m.stats }

// MaxCellWrites returns the largest per-cell write count observed across
// all planes used so far (0 when wear tracking is off).
func (m *Machine) MaxCellWrites() int64 {
	var mx int64
	for _, w := range m.wear {
		if w.MaxWrites() > mx {
			mx = w.MaxWrites()
		}
	}
	return mx
}

// quantA rounds an activation tensor to the configured bit depth.
func (m *Machine) quantA(t *tensor.Tensor) *tensor.Tensor {
	if m.opt.ActivationBits <= 0 {
		return t
	}
	return fixed.QuantizeTensor(t, m.opt.ActivationBits)
}

// quantW rounds a weight tensor to the configured bit depth.
func (m *Machine) quantW(t *tensor.Tensor) *tensor.Tensor {
	if m.opt.WeightBits <= 0 {
		return t
	}
	return fixed.QuantizeTensor(t, m.opt.WeightBits)
}

// funcOpts builds the array-level options for a convolution whose
// per-window sums are bounded by bound.
func (m *Machine) funcOpts(stride, pad int, bound float64) core.FuncOptions {
	o := core.FuncOptions{Stride: stride, Pad: pad, Noise: m.opt.ActNoise}
	if m.opt.ADCBits > 0 && bound > 0 {
		o.Quantize = rram.UniformQuantizer(m.opt.ADCBits, bound)
	}
	return o
}

// convOnArrays runs x * w through the 2T1R planes.
func (m *Machine) convOnArrays(x, w *tensor.Tensor, stride, pad int) *tensor.Tensor {
	x = m.quantA(x)
	w = m.quantW(w)
	// ADC full scale calibrated to the typical per-window signal: a K×K
	// window of independent products has standard deviation ≈ K·σx·σw;
	// four sigmas cover the distribution (rare outliers clamp, as in a
	// real converter).
	k := float64(w.Dim(2))
	bound := 4 * k * x.RMS() * w.RMS()
	outs, stats := core.FunctionalConv2D([]*tensor.Tensor{x}, w, m.funcOpts(stride, pad, bound))
	m.stats = m.stats.Plus(stats)
	return outs[0]
}

// fcOnArrays runs a fully connected layer on channel-folded planes: the
// input vector is folded into 16×16 planes and each output's weight chunk
// is applied as one whole-plane window read (§IV.C).
func (m *Machine) fcOnArrays(x, w, bias *tensor.Tensor) *tensor.Tensor {
	const side = 16
	const cells = side * side
	x = m.quantA(x)
	w = m.quantW(w)
	in := x.Len()
	outN := w.Dim(0)
	groups := (in + cells - 1) / cells

	// Write the folded input once; every output reuses the planes.
	planes := make([]*rram.Plane, groups)
	for g := 0; g < groups; g++ {
		p := rram.NewPlane(side, side)
		if m.opt.TrackWear {
			p.EnableWear(m.opt.Endurance)
			m.wear = append(m.wear, p.Wear())
		}
		if m.opt.ActNoise != nil {
			p.SetNoise(m.opt.ActNoise)
		}
		chunk := tensor.New(side, side)
		for i := 0; i < cells; i++ {
			idx := g*cells + i
			if idx < in {
				chunk.Set(x.Data()[idx], i/side, i%side)
			}
		}
		p.Write(chunk)
		planes[g] = p
	}
	if m.opt.ADCBits > 0 {
		// Typical whole-plane dot product: sqrt(cells)·σx·σw, covered to
		// four sigmas.
		bound := 4 * math.Sqrt(float64(cells)) * x.RMS() * w.RMS()
		if bound > 0 {
			q := rram.UniformQuantizer(m.opt.ADCBits, bound)
			for _, p := range planes {
				p.SetQuantizer(q)
			}
		}
	}

	out := tensor.New(outN)
	kern := tensor.New(side, side)
	for o := 0; o < outN; o++ {
		sum := 0.0
		for g := 0; g < groups; g++ {
			kern.Fill(0)
			for i := 0; i < cells; i++ {
				idx := g*cells + i
				if idx < in {
					kern.Set(w.At(o, idx), i/side, i%side)
				}
			}
			sum += planes[g].ReadWindow(kern, 0, 0)
		}
		out.Set(sum+bias.At(o), o)
	}
	for _, p := range planes {
		m.stats = m.stats.Plus(p.Stats())
	}
	return out
}

// Forward runs one inference of net on the array models.
func (m *Machine) Forward(net *train.Network, x *tensor.Tensor) *tensor.Tensor {
	out, _ := m.forward(net, x)
	return out
}

// forward returns the output plus each layer's cached input (needed by
// the backward pass).
func (m *Machine) forward(net *train.Network, x *tensor.Tensor) (*tensor.Tensor, []*tensor.Tensor) {
	inputs := make([]*tensor.Tensor, len(net.Layers))
	for i, l := range net.Layers {
		inputs[i] = x
		switch t := l.(type) {
		case *train.Conv:
			x = m.convOnArrays(x, t.W, t.Spec.Stride, t.Spec.Pad)
		case *train.FC:
			x = m.fcOnArrays(x.Reshape(x.Len()), t.W, t.B)
		case *train.ReLU:
			x = tensor.ReLU(x) // digital nonlinear unit
		case *train.MaxPool:
			x = tensor.MaxPool2D(x, t.K, t.K).Out // digital pooling unit
		default:
			panic(fmt.Sprintf("insitu: unsupported layer %T", l))
		}
	}
	return x, inputs
}

// Gradients holds one in-situ training step's parameter gradients in
// layer order (nil for parameter-free layers).
type Gradients struct {
	ConvDW []*tensor.Tensor // indexed like net.Layers, nil where not conv
	FCDW   []*tensor.Tensor
	FCDB   []*tensor.Tensor
}

// TrainStep runs one in-situ forward + backward pass and applies the SGD
// update to the network's (buffer-resident) weights. It returns the loss.
func (m *Machine) TrainStep(net *train.Network, x *tensor.Tensor, label int, lr float64) float64 {
	out, inputs := m.forward(net, x)
	loss, delta := train.SoftmaxCrossEntropy(out, label)

	// Backward sweep. Errors overwrite activations: each conv layer's
	// delta is written into the planes that held its input (counted as
	// plane writes in stats via the backward convolution's own arrays).
	type poolState struct {
		res    tensor.MaxPoolResult
		inDims []int
	}
	for i := len(net.Layers) - 1; i >= 0; i-- {
		switch t := net.Layers[i].(type) {
		case *train.FC:
			// dW/dB are digital (weights live in buffers); dX streams the
			// transposed weights (digital reduction here — the FC error
			// path is a vector operation).
			xin := inputs[i].Reshape(inputs[i].Len())
			dW := tensor.Outer(delta, xin)
			dB := delta.Clone()
			dx := tensor.MatVecT(m.quantW(t.W), delta)
			t.W.AXPYInPlace(-lr, dW)
			t.B.AXPYInPlace(-lr, dB)
			delta = dx.Reshape(inputs[i].Dims()...)
		case *train.ReLU:
			// AND gates between the stored pre-activation sign and delta.
			delta = tensor.ReLUBackward(inputs[i], delta)
		case *train.MaxPool:
			// The pooling LUT restores the maximum's original position.
			res := tensor.MaxPool2D(inputs[i], t.K, t.K)
			delta = tensor.MaxPoolBackward(res, delta, inputs[i].Dims())
		case *train.Conv:
			xin := inputs[i]
			// Weight gradient on the arrays: the activations are still
			// resident; the error map streams as the kernel (Fig. 4).
			dW := m.gradOnArrays(xin, delta, t.Spec, t.W.Dim(2), t.W.Dim(3), t.W.Dim(0))
			// Error propagation on the arrays: full convolution of the
			// (dilated, padded) delta with the transposed kernels. The
			// delta is first written into the planes, overwriting the
			// activations that are no longer needed.
			dx := m.backInputOnArrays(t.W, delta, t.Spec, xin.Dim(1), xin.Dim(2))
			t.W.AXPYInPlace(-lr, dW)
			delta = dx
		}
	}
	return loss
}

// gradOnArrays computes dW for a convolution by convolving each stored
// input channel with each error channel on the planes (the error map is
// the kernel).
func (m *Machine) gradOnArrays(x, delta *tensor.Tensor, spec tensor.ConvSpec, kh, kw, outC int) *tensor.Tensor {
	if spec.Stride != 1 {
		// Strided layers dilate the error first; the plane sweep then
		// proceeds identically.
		delta = tensor.Dilate(delta, spec.Stride)
	}
	c := x.Dim(0)
	xp := tensor.Pad(x, spec.Pad)
	h, wd := xp.Dim(1), xp.Dim(2)
	dh, dw := delta.Dim(1), delta.Dim(2)
	out := tensor.New(outC, c, kh, kw)

	// One plane per input channel, holding the padded activation map.
	for ic := 0; ic < c; ic++ {
		p := rram.NewPlane(h, wd)
		if m.opt.ActNoise != nil {
			p.SetNoise(m.opt.ActNoise)
		}
		plane := tensor.New(h, wd)
		for y := 0; y < h; y++ {
			for xx := 0; xx < wd; xx++ {
				plane.Set(xp.At(ic, y, xx), y, xx)
			}
		}
		p.Write(plane)
		kern := tensor.New(dh, dw)
		for on := 0; on < outC; on++ {
			for y := 0; y < dh; y++ {
				for xx := 0; xx < dw; xx++ {
					kern.Set(delta.At(on, y, xx), y, xx)
				}
			}
			for ky := 0; ky < kh; ky++ {
				for kx := 0; kx < kw; kx++ {
					if ky+dh > h || kx+dw > wd {
						continue
					}
					out.Set(p.ReadWindow(kern, ky, kx), on, ic, ky, kx)
				}
			}
		}
		m.stats = m.stats.Plus(p.Stats())
	}
	return out
}

// backInputOnArrays computes dX by running the full convolution of the
// dilated, padded error with the 180°-rotated transposed kernels on the
// planes — the errors having overwritten the activation cells.
func (m *Machine) backInputOnArrays(w, delta *tensor.Tensor, spec tensor.ConvSpec, inH, inW int) *tensor.Tensor {
	kh, kw := w.Dim(2), w.Dim(3)
	wt := tensor.Rot180(w) // [C, N, KH, KW]
	d := tensor.Dilate(delta, spec.Stride)
	padded := tensor.PadHW(d, kh-1, kw-1)
	outs, stats := core.FunctionalConv2D([]*tensor.Tensor{padded}, wt,
		core.FuncOptions{Stride: 1, Noise: m.opt.ActNoise})
	m.stats = m.stats.Plus(stats)
	full := outs[0]
	// Crop to the input geometry (offset = original pad).
	c := wt.Dim(0)
	dx := tensor.New(c, inH, inW)
	fh, fw := full.Dim(1), full.Dim(2)
	for ic := 0; ic < c; ic++ {
		for y := 0; y < inH && y+spec.Pad < fh; y++ {
			for x := 0; x < inW && x+spec.Pad < fw; x++ {
				dx.Set(full.At(ic, y+spec.Pad, x+spec.Pad), ic, y, x)
			}
		}
	}
	return dx
}
