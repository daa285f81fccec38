package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"sync/atomic"

	"github.com/inca-arch/inca/internal/arch"
	"github.com/inca-arch/inca/internal/dataflow"
	"github.com/inca-arch/inca/internal/job"
	"github.com/inca-arch/inca/internal/nn"
	"github.com/inca-arch/inca/internal/serve"
	"github.com/inca-arch/inca/internal/sim"
	"github.com/inca-arch/inca/internal/store"
	"github.com/inca-arch/inca/internal/sweep"
)

// simulateSpan names each dataflow's simulate layer after the module
// that implements it.
var simulateSpan = map[string]string{
	"is":  "core.simulate",
	"ws":  "baseline.simulate",
	"gpu": "gpu.simulate",
	"os":  "outstat.simulate",
}

// replayer evaluates generated requests in-process through the same
// public calls the server's handlers make — decode, nn.ByName, sweep.Run
// on a sweep.Cache (with a store.Store tier on serve-cold), each
// dataflow's Simulate, and response marshalling. With a recorder it
// opens a span around each call; without one it is the reference the
// correctness check compares HTTP responses against.
type replayer struct {
	rec   *recorder
	cache *sweep.Cache
	store *store.Store
	// cur holds the sweep.run span (a spanCtx) that store calls nest
	// under: the store tier gets no context, and the replay runs one
	// request at a time.
	cur atomic.Value
	// layers counts network layers simulated, for sim.layers_per_ms.
	layers atomic.Int64
}

func newReplayer(rec *recorder, st *store.Store) *replayer {
	p := &replayer{rec: rec, store: st}
	p.cur.Store(spanCtx{})
	p.forget()
	return p
}

// forget drops the memo cache. serve-cold's cells never repeat, so a
// fresh cache per request evaluates the same cells as the server's
// long-lived one without holding every report in memory.
func (p *replayer) forget() {
	p.cache = sweep.NewCache()
	if p.store != nil {
		p.cache.SetTier(tracedTier{p})
	}
}

// timed runs f inside a span when tracing.
func (p *replayer) timed(name string, parent int, req string, f func()) {
	if p.rec == nil {
		f()
		return
	}
	p.rec.timed(name, parent, req, f)
}

func (p *replayer) begin(name string, parent int, req string) int {
	if p.rec == nil {
		return 0
	}
	return p.rec.begin(name, parent, req)
}

func (p *replayer) end(id int) {
	if p.rec != nil {
		p.rec.end(id)
	}
}

// tracedTier times the store tier's calls.
type tracedTier struct{ p *replayer }

func (t tracedTier) Get(key string) (rep *sim.Report, ok bool) {
	sc := t.p.cur.Load().(spanCtx)
	t.p.timed("store.get", sc.id, sc.req, func() { rep, ok = t.p.store.Get(key) })
	return rep, ok
}

func (t tracedTier) Put(key string, rep *sim.Report) {
	sc := t.p.cur.Load().(spanCtx)
	t.p.timed("store.put", sc.id, sc.req, func() { t.p.store.Put(key, rep) })
}

// tracedSim times one dataflow's Simulate call.
type tracedSim struct {
	inner sim.Simulator
	name  string
	p     *replayer
}

func (s tracedSim) Simulate(ctx context.Context, net *nn.Network, phase sim.Phase) (rep *sim.Report, err error) {
	sc := spanFrom(ctx)
	s.p.timed(s.name, sc.id, sc.req, func() { rep, err = s.inner.Simulate(ctx, net, phase) })
	if err == nil {
		s.p.layers.Add(int64(len(net.Layers)))
	}
	return rep, err
}

// do evaluates one request and returns the response body the server
// would send, minus the cost block.
func (p *replayer) do(ctx context.Context, rq request, req string) (body []byte, err error) {
	root := p.begin("request."+rq.Kind, 0, req)
	defer p.end(root)
	plan, sr, err := p.plan(rq, root, req)
	if err != nil {
		return nil, err
	}
	results, err := p.run(ctx, plan, root, req)
	if err != nil {
		return nil, err
	}
	p.timed("serve.encode", root, req, func() {
		switch rq.Kind {
		case kindSimulate:
			body, err = json.Marshal(results[0].Report)
		case kindSweep:
			body, err = json.Marshal(sweepResponse(results, p.cache.Stats()))
		default:
			body, err = json.Marshal(jobResult(job.DeriveID(mustJSON(sr)), results))
		}
	})
	return body, err
}

// plan decodes a request into serve's wire type and builds its sweep
// plan the way the handlers do. It returns the decoded body of sweeps
// and jobs, whose canonical form a job's ID derives from.
func (p *replayer) plan(rq request, root int, req string) (plan sweep.Plan, sr serve.SweepRequest, err error) {
	if rq.Kind == kindSimulate {
		var one serve.SimulateRequest
		p.timed("serve.decode", root, req, func() { err = decodeStrict(rq.Body, &one) })
		if err != nil {
			return plan, sr, err
		}
		sr = serve.SweepRequest{Models: []string{one.Model}, Phases: []string{one.Phase}}
		if err = p.networks(&plan, sr, root, req); err != nil {
			return plan, sr, err
		}
		p.timed("serve.plan", root, req, func() {
			var ph sim.Phase
			var ax sweep.Arch
			if ph, err = parsePhase(one.Phase); err == nil {
				ax, err = p.dataflowArch(one.Dataflow, one.Batch, one.Config)
			}
			plan.Archs, plan.Phases = []sweep.Arch{ax}, []sim.Phase{ph}
		})
		return plan, sr, err
	}
	p.timed("serve.decode", root, req, func() { err = decodeStrict(rq.Body, &sr) })
	if err != nil {
		return plan, sr, err
	}
	if err = p.networks(&plan, sr, root, req); err != nil {
		return plan, sr, err
	}
	p.timed("serve.plan", root, req, func() { err = p.sweepPlan(&plan, sr) })
	return plan, sr, err
}

// networks resolves the request's models, one nn.ByName call each.
func (p *replayer) networks(plan *sweep.Plan, sr serve.SweepRequest, root int, req string) error {
	for _, name := range sr.Models {
		var net *nn.Network
		var err error
		p.timed("nn.byname", root, req, func() { net, err = nn.ByName(name) })
		if err != nil {
			return err
		}
		plan.Networks = append(plan.Networks, net)
	}
	return nil
}

// run executes a plan with the engine settings one admitted request gets
// from a server on default flags: one worker (the kernel budget divided
// by the admission width) and the shared cache.
func (p *replayer) run(ctx context.Context, plan sweep.Plan, root int, req string) ([]sweep.Result, error) {
	id := p.begin("sweep.run", root, req)
	defer p.end(id)
	p.cur.Store(spanCtx{id, req})
	results, err := sweep.Run(withSpan(ctx, id, req), plan, sweep.Options{Workers: 1, Cache: p.cache})
	if err != nil {
		return nil, err
	}
	for _, r := range results {
		if r.Err != nil {
			return nil, fmt.Errorf("cell %s: %w", r.Cell.Key(), r.Err)
		}
	}
	return results, nil
}

// sweepPlan fills a sweep body's phase, dataflow and override axes.
func (p *replayer) sweepPlan(plan *sweep.Plan, sr serve.SweepRequest) error {
	for _, name := range sr.Phases {
		ph, err := parsePhase(name)
		if err != nil {
			return err
		}
		plan.Phases = append(plan.Phases, ph)
	}
	for _, id := range sr.Dataflows {
		ax, err := p.dataflowArch(id, sr.Batch, nil)
		if err != nil {
			return err
		}
		plan.Archs = append(plan.Archs, ax)
	}
	for _, o := range sr.Overrides {
		if o.Name == "" {
			return errors.New("generated overrides are always named")
		}
		o := o
		plan.Overrides = append(plan.Overrides, sweep.Override{Name: o.Name, Apply: func(cfg arch.Config) arch.Config {
			if o.Batch > 0 {
				cfg.BatchSize = o.Batch
			}
			if o.ADCBits > 0 {
				cfg.ADCBits = o.ADCBits
			}
			if o.ArraySize > 0 {
				cfg.SubarrayRows, cfg.SubarrayCols = o.ArraySize, o.ArraySize
			}
			if o.StackedPlanes > 0 {
				cfg.StackedPlanes = o.StackedPlanes
			}
			return cfg
		}})
	}
	return nil
}

// dataflowArch resolves a dataflow selection the way the server does
// for requests that name a dataflow: the backend's default (or the
// caller's) configuration, with the batch override on configurable
// backends.
func (p *replayer) dataflowArch(id string, batch int, raw *json.RawMessage) (sweep.Arch, error) {
	d, err := dataflow.Get(id)
	if err != nil {
		return sweep.Arch{}, err
	}
	caps := d.Capabilities()
	cfg := d.DefaultConfig()
	if raw != nil {
		if cfg, err = arch.ReadJSON(bytes.NewReader(*raw)); err != nil {
			return sweep.Arch{}, err
		}
	}
	if batch > 0 && caps.Configurable {
		cfg.BatchSize = batch
	}
	name := cfg.Name
	if name == "" {
		name = caps.Name
	}
	build := d.New
	if p.rec != nil {
		span := simulateSpan[d.ID()]
		build = func(cfg arch.Config) (sim.Simulator, error) {
			s, err := d.New(cfg)
			if err != nil {
				return nil, err
			}
			return tracedSim{inner: s, name: span, p: p}, nil
		}
	}
	return sweep.Arch{Name: name, Dataflow: d.ID(), Base: cfg, Build: build, Fixed: !caps.Configurable}, nil
}

func parsePhase(name string) (sim.Phase, error) {
	switch name {
	case "inference":
		return sim.Inference, nil
	case "training":
		return sim.Training, nil
	}
	return 0, fmt.Errorf("unknown phase %q", name)
}

func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(v)
}

// sweepResponse builds the /v1/sweep body from engine results.
func sweepResponse(results []sweep.Result, stats sweep.CacheStats) serve.SweepResponse {
	resp := serve.SweepResponse{Cells: make([]serve.CellResult, 0, len(results)), Cache: stats}
	for _, r := range results {
		c := summarize(r)
		resp.Cells = append(resp.Cells, serve.CellResult{
			Arch: c.Arch, Dataflow: c.Dataflow, Override: c.Override, Network: c.Network, Phase: c.Phase,
			Cached: r.Cached, EnergyJ: c.EnergyJ, LatencyS: c.LatencyS, EnergyPerImageJ: c.EnergyPerImageJ,
			ThroughputIPS: c.ThroughputIPS, Utilization: c.Utilization,
		})
		if r.Cached {
			resp.Cached++
		}
	}
	return resp
}

// jobResult builds a succeeded job's terminal body from engine results.
func jobResult(id string, results []sweep.Result) serve.JobResult {
	res := serve.JobResult{JobID: id, Cells: make([]serve.JobCell, 0, len(results))}
	for _, r := range results {
		res.Cells = append(res.Cells, summarize(r))
	}
	return res
}

// summarize is one cell's summary row. Every generated sweep selects
// backends through the dataflow field, so rows carry the dataflow ID.
func summarize(r sweep.Result) serve.JobCell {
	rep := r.Report
	c := serve.JobCell{
		Arch:          r.Cell.Arch.Name,
		Dataflow:      r.Cell.Dataflow(),
		Override:      r.Cell.Override,
		Network:       r.Cell.Network.Name,
		Phase:         r.Cell.Phase.String(),
		EnergyJ:       rep.Total.Energy.Total(),
		LatencyS:      rep.Total.Latency,
		ThroughputIPS: rep.Throughput(),
		Utilization:   rep.Utilization(),
	}
	if perImage, err := rep.EnergyPerImage(); err == nil {
		c.EnergyPerImageJ = perImage
	}
	return c
}

// canonicalHash hashes a response body with its timing-dependent fields
// removed: per-cell and per-response cache flags and counters, the cost
// block, and job timestamps. Numbers keep their exact wire text.
func canonicalHash(body []byte) ([32]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return [32]byte{}, fmt.Errorf("response is not JSON: %w", err)
	}
	strip(v)
	b, err := json.Marshal(v)
	if err != nil {
		return [32]byte{}, err
	}
	return sha256.Sum256(b), nil
}

func strip(v any) {
	switch t := v.(type) {
	case map[string]any:
		for _, k := range []string{"cached", "cache", "cost", "created_unix_nano"} {
			delete(t, k)
		}
		for _, x := range t {
			strip(x)
		}
	case []any:
		for _, x := range t {
			strip(x)
		}
	}
}
