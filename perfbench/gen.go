package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"

	"github.com/inca-arch/inca/internal/arch"
	"github.com/inca-arch/inca/internal/serve"
)

// Request kinds. Throughput counts all three; only job submissions are
// followed by status polls and a result fetch.
const (
	kindSimulate = "simulate"
	kindSweep    = "sweep"
	kindJob      = "job"
)

// maxConns is the closed loop's connection count on a machine with at
// least that many CPUs. It is fixed, not nproc, so that each
// connection's request sequence — and its committed digest — is the
// same on every machine with two or more cores.
const maxConns = 2

// conns returns the number of generator connections: maxConns, capped
// at nproc so the loop never has more callers than cores.
func conns() int {
	if n := runtime.NumCPU(); n < maxConns {
		return n
	}
	return maxConns
}

// zoo is the model catalog, in the order nn.ByName knows them.
var zoo = []string{
	"VGG16", "VGG19", "ResNet18", "ResNet50", "MobileNetV2", "MNasNet",
	"VGG16-CIFAR", "ResNet18-CIFAR", "LeNet5", "AlexNet",
}

// dataflows are the four registered backends. OS has no training model,
// so no generator ever pairs it with the training phase.
var dataflows = []string{"is", "ws", "gpu", "os"}

var phases = []string{"inference", "training"}

// request is one generated HTTP call. Body is the exact wire body; Key
// names the catalog entry on serve-warm and is empty on serve-cold.
type request struct {
	Kind string
	Key  string
	Body []byte
	// Cost asks for the per-request cost block (?cost=1).
	Cost bool
	// Cells is the number of cells the response must carry.
	Cells int
}

// path is the request's URL path and query.
func (r request) path() string {
	p := "/v1/" + r.Kind
	if r.Kind == kindJob {
		p = "/v1/jobs"
	}
	if r.Cost {
		p += "?cost=1"
	}
	return p
}

// generator yields one connection's request sequence. The sequence is a
// pure function of (workload, seed, connection index): request i is the
// same bytes on every run and every machine.
type generator interface {
	next() request
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain structs are marshalled here
	}
	return b
}

// ---- serve-warm: a small catalog re-asked with Zipf popularity ----

// catalog is serve-warm's fixed request set: every (model, dataflow,
// phase) simulate cell except OS training, plus a few small sweeps. Its
// popularity order is fixed, not seeded, so every seed exercises the
// same mix of response sizes and only the draw order changes.
type catalog struct {
	sims, sweeps []request
	simCDF       []float64
	sweepCDF     []float64
}

func newCatalog() *catalog {
	c := &catalog{}
	for _, m := range zoo {
		for _, d := range dataflows {
			for _, p := range phases {
				if d == "os" && p == "training" {
					continue
				}
				c.sims = append(c.sims, request{
					Kind:  kindSimulate,
					Key:   fmt.Sprintf("simulate/%s/%s/%s", d, m, p),
					Body:  mustJSON(serve.SimulateRequest{Dataflow: d, Model: m, Phase: p}),
					Cells: 1,
				})
			}
		}
	}
	for i := 0; i < 16; i++ {
		dfs := []string{dataflows[i%4], dataflows[(i+1+i/4)%4]}
		models := []string{zoo[i%len(zoo)], zoo[(3*i+1)%len(zoo)]}
		if models[0] == models[1] {
			models = models[:1]
		}
		ph := []string{"inference"}
		if dfs[0] != "os" && dfs[1] != "os" && i%2 == 0 {
			ph = phases
		}
		c.sweeps = append(c.sweeps, request{
			Kind:  kindSweep,
			Key:   fmt.Sprintf("sweep/%d", i),
			Body:  mustJSON(serve.SweepRequest{Dataflows: dfs, Models: models, Phases: ph}),
			Cells: len(dfs) * len(models) * len(ph),
		})
	}
	// Fixed popularity order: a constant shuffle, so the hottest entries
	// span several models and dataflows rather than the zoo's first rows.
	fixed := rand.New(rand.NewSource(20230225))
	fixed.Shuffle(len(c.sims), func(i, j int) { c.sims[i], c.sims[j] = c.sims[j], c.sims[i] })
	fixed.Shuffle(len(c.sweeps), func(i, j int) { c.sweeps[i], c.sweeps[j] = c.sweeps[j], c.sweeps[i] })
	// The exponent is an assumption, not a measurement: nothing in the
	// repository records how skewed real callers are, only that the
	// catalog is Zipf-skewed.
	c.simCDF = zipfCDF(len(c.sims), zipfS)
	c.sweepCDF = zipfCDF(len(c.sweeps), zipfS)
	return c
}

// zipfS is serve-warm's assumed Zipf exponent.
const zipfS = 1.1

// entries lists every catalog request once: the warm-up set.
func (c *catalog) entries() []request {
	return append(append([]request(nil), c.sims...), c.sweeps...)
}

// zipfCDF is the cumulative Zipf(s) distribution over n ranks.
func zipfCDF(n int, s float64) []float64 {
	cdf := make([]float64, n)
	sum := 0.0
	for i := range cdf {
		sum += 1 / math.Pow(float64(i+1), s)
		cdf[i] = sum
	}
	for i := range cdf {
		cdf[i] /= sum
	}
	return cdf
}

func draw(rng *rand.Rand, cdf []float64) int {
	i := sort.SearchFloat64s(cdf, rng.Float64())
	if i >= len(cdf) {
		i = len(cdf) - 1
	}
	return i
}

// warmGen draws serve-warm requests: 90% simulate, 10% small sweeps,
// and every tenth request carries ?cost=1 so the cost plane stays on
// the path at a fixed share. The 90/10 split is the workload's
// definition; the one-in-ten cost share is an assumed value.
type warmGen struct {
	cat *catalog
	rng *rand.Rand
	n   int
}

func newWarmGen(cat *catalog, seed int64, conn int) *warmGen {
	return &warmGen{cat: cat, rng: rand.New(rand.NewSource(mixSeed(seed, "serve-warm", conn)))}
}

func (g *warmGen) next() request {
	var r request
	if g.rng.Float64() < 0.9 {
		r = g.cat.sims[draw(g.rng, g.cat.simCDF)]
	} else {
		r = g.cat.sweeps[draw(g.rng, g.cat.sweepCDF)]
	}
	r.Cost = g.n%10 == 9
	g.n++
	return r
}

// mixSeed derives a connection's stream seed from the run seed.
func mixSeed(seed int64, workload string, conn int) int64 {
	h := uint64(seed)*0x9E3779B97F4A7C15 + uint64(conn+1)*0xBF58476D1CE4E5B9
	for _, c := range workload {
		h = (h ^ uint64(c)) * 0x100000001B3
	}
	return int64(h >> 1)
}

// ---- serve-cold: design-space exploration, every cell new ----

// Design points for sweep and job overrides. Every array size differs
// from each dataflow's default (16 for IS, 128 for WS and OS), so an
// override cell can never alias a default-config simulate cell.
var (
	dseArrays = []int{32, 64, 256, 512}
	dseADC    = []int{3, 4, 5, 6, 7, 8}
)

// coldGen draws serve-cold requests: 60% single simulate cells, 30%
// sweeps of 8–32 cells, 10% jobs of 16–64 cells. The sizes are the
// workload's definition; the 60/30/10 split is an assumption that no
// recorded traffic backs, chosen so each kind has enough samples for
// its median in one run. Cell keys never repeat
// within a run: simulate cells count their batch size up per (dataflow,
// model, phase) class, sweep and job overrides take fresh design points
// from a per-connection counter, and GPU cells — whose roofline ignores
// the configuration — carry a uniquely named configuration instead.
type coldGen struct {
	rng      *rand.Rand
	conn     int
	classes  map[string]int
	override int
	gpu      int
}

func newColdGen(seed int64, conn int) *coldGen {
	return &coldGen{
		rng:     rand.New(rand.NewSource(mixSeed(seed, "serve-cold", conn))),
		conn:    conn,
		classes: make(map[string]int),
	}
}

func (g *coldGen) next() request {
	switch u := g.rng.Float64(); {
	case u < 0.6:
		return g.simulate()
	case u < 0.9:
		return g.grid(kindSweep, 8, 32)
	default:
		return g.grid(kindJob, 16, 64)
	}
}

func (g *coldGen) pick(list []string) string { return list[g.rng.Intn(len(list))] }

func (g *coldGen) simulate() request {
	d, m := g.pick(dataflows), g.pick(zoo)
	p := g.pick(phases)
	if d == "os" {
		p = "inference"
	}
	req := serve.SimulateRequest{Dataflow: d, Model: m, Phase: p}
	if d == "gpu" {
		cfg := arch.INCA()
		cfg.Name = fmt.Sprintf("TitanRTX-dse-c%d-%d", g.conn, g.gpu)
		g.gpu++
		raw := json.RawMessage(mustJSON(cfg))
		req.Config = &raw
	} else {
		class := d + "/" + m + "/" + p
		req.Batch = 1 + g.conn + maxConns*g.classes[class]
		g.classes[class]++
	}
	return request{Kind: kindSimulate, Body: mustJSON(req), Cells: 1}
}

// grid builds a sweep (or job) body whose cross product has between lo
// and hi cells. GPU is left out: as a fixed backend its override cells
// collapse onto one cache key per (model, phase), which would turn a
// cold sweep into memo hits.
func (g *coldGen) grid(kind string, lo, hi int) request {
	dfs := []string{"is", "ws", "os"}
	g.rng.Shuffle(len(dfs), func(i, j int) { dfs[i], dfs[j] = dfs[j], dfs[i] })
	dfs = dfs[:1+g.rng.Intn(3)]
	models := append([]string(nil), zoo...)
	g.rng.Shuffle(len(models), func(i, j int) { models[i], models[j] = models[j], models[i] })
	models = models[:1+g.rng.Intn(3)]
	ph := []string{"inference"}
	hasOS := false
	for _, d := range dfs {
		hasOS = hasOS || d == "os"
	}
	if !hasOS {
		ph = [][]string{{"inference"}, {"training"}, phases}[g.rng.Intn(3)]
	}
	base := len(dfs) * len(models) * len(ph)
	minK := (lo + base - 1) / base
	maxK := hi / base
	k := minK + g.rng.Intn(maxK-minK+1)
	req := serve.SweepRequest{Dataflows: dfs, Models: models, Phases: ph}
	for i := 0; i < k; i++ {
		u := g.conn + maxConns*g.override
		g.override++
		req.Overrides = append(req.Overrides, serve.OverrideSpec{
			Name:      fmt.Sprintf("u%d", u),
			ArraySize: dseArrays[u%len(dseArrays)],
			ADCBits:   dseADC[(u/len(dseArrays))%len(dseADC)],
			Batch:     1 + u/(len(dseArrays)*len(dseADC)),
		})
	}
	return request{Kind: kind, Body: mustJSON(req), Cells: base * k}
}
