package main

import "math"

// endToEnd are the gated metrics of an untraced run; every workload
// reports all of them. An operation is one HTTP request (simulate,
// sweep or job submission) on serve-*, and one Table VI or Table I
// computation on train-noise.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"throughput_rps", "1/s"},
	{"cells_per_s", "1/s"},
	{"cpu_ms_per_req", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the traced run's metrics, named after the module whose
// public calls the benchmark times. A workload that does not exercise a
// layer reports it as 0.
var perLayer = []struct{ name, unit string }{
	{"serve.decode_us", "us"},
	{"serve.encode_us", "us"},
	{"serve.response_bytes", "bytes"},
	{"serve.overhead_us", "us"},
	{"serve.coalesced_ratio", "ratio"},
	{"serve.rejected", "count"},
	{"serve.gc_cycles_per_kreq", "count"},
	{"serve.gc_pause_ms_per_kreq", "ms"},
	{"nn.byname_us", "us"},
	{"nn.byname_alloc_kb", "kB"},
	{"nn.byname_per_req", "count"},
	{"obs.plane_cpu_ratio", "ratio"},
	{"obs.trace_spans_per_req", "count"},
	{"sweep.run_us", "us"},
	{"sweep.cells", "count"},
	{"sweep.hit_ratio", "ratio"},
	{"sweep.misses", "count"},
	{"core.simulate_us", "us"},
	{"baseline.simulate_us", "us"},
	{"gpu.simulate_us", "us"},
	{"outstat.simulate_us", "us"},
	{"sim.layers_per_ms", "1/ms"},
	{"store.put_us", "us"},
	{"store.get_us", "us"},
	{"store.bytes_per_cell", "bytes"},
	{"store.puts", "count"},
	{"store.compactions", "count"},
	{"job.journal_bytes_per_job", "bytes"},
	{"job.polls_per_job", "count"},
	{"job.failed", "count"},
	{"tensor.conv2d_us", "us"},
	{"tensor.conv_bwd_weights_us", "us"},
	{"tensor.conv_bwd_input_us", "us"},
	{"tensor.matmul_us", "us"},
	{"tensor.gmacs_per_s", "GMAC/s"},
	{"tensor.mb_moved_per_call", "MB-computed"},
	{"tensor.parallel_speedup", "x"},
	{"tensor.kernel_invocations", "count"},
	{"train.forward_us_per_sample", "us"},
	{"train.backward_us_per_sample", "us"},
	{"train.step_us", "us"},
	{"train.eval_samples_per_s", "1/s"},
	{"rram.perturb_us", "us"},
	{"bench.trace_overhead_ratio", "ratio"},
	{"bench.unattributed_share", "ratio"},
}

func unitOf(name string) string {
	for _, m := range endToEnd {
		if m.name == name {
			return m.unit
		}
	}
	for _, m := range perLayer {
		if m.name == name {
			return m.unit
		}
	}
	panic("unknown metric " + name)
}

// put records a metric with its declared unit. A ratio whose base was
// zero — a layer the workload never reached — reads as 0.
func (o *outcome) put(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	o.metrics[name] = metric{Value: v, Unit: unitOf(name)}
}

// complete fills every metric of the run's set the workload left unset
// with 0 (a layer it does not exercise) and drops anything else.
func (o *outcome) complete(traced bool) {
	set := endToEnd
	if traced {
		set = perLayer
	}
	out := make(map[string]metric, len(set))
	for _, m := range set {
		v, ok := o.metrics[m.name]
		if !ok {
			v = metric{Value: 0, Unit: m.unit}
		}
		out[m.name] = v
	}
	o.metrics = out
}
