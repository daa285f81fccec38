package main

import (
	"bytes"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"

	"github.com/inca-arch/inca/internal/sweep"
)

const perConn = 400

func sequences(t *testing.T, workload string, seed int64) [][]request {
	t.Helper()
	var gens []generator
	switch workload {
	case "serve-warm":
		cat := newCatalog()
		for c := 0; c < maxConns; c++ {
			gens = append(gens, newWarmGen(cat, seed, c))
		}
	case "serve-cold":
		for c := 0; c < maxConns; c++ {
			gens = append(gens, newColdGen(seed, c))
		}
	}
	out := make([][]request, len(gens))
	for c, g := range gens {
		for i := 0; i < perConn; i++ {
			out[c] = append(out[c], g.next())
		}
	}
	return out
}

func sameRequests(a, b [][]request) bool {
	for c := range a {
		for i := range a[c] {
			x, y := a[c][i], b[c][i]
			if x.Kind != y.Kind || x.Key != y.Key || x.Cost != y.Cost || x.Cells != y.Cells || !bytes.Equal(x.Body, y.Body) {
				return false
			}
		}
	}
	return true
}

func TestSameSeedSameSequence(t *testing.T) {
	for _, w := range []string{"serve-warm", "serve-cold"} {
		if !sameRequests(sequences(t, w, 1), sequences(t, w, 1)) {
			t.Errorf("%s: seed 1 produced two different request sequences", w)
		}
		if sameRequests(sequences(t, w, 1), sequences(t, w, 2)) {
			t.Errorf("%s: seeds 1 and 2 produced the same request sequence", w)
		}
	}
}

// cellKeys expands a request into the cache keys of its cells, the way
// the server plans it.
func cellKeys(t *testing.T, rq request) []sweep.Key {
	t.Helper()
	plan, _, err := newReplayer(nil, nil).plan(rq, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	cells, err := plan.Cells()
	if err != nil {
		t.Fatal(err)
	}
	if len(cells) != rq.Cells {
		t.Fatalf("request declares %d cells, plans %d", rq.Cells, len(cells))
	}
	keys := make([]sweep.Key, len(cells))
	for i, c := range cells {
		keys[i] = c.Key()
	}
	return keys
}

func TestColdCellsUnique(t *testing.T) {
	seen := map[sweep.Key]bool{}
	kinds := map[string]int{}
	for _, seq := range sequences(t, "serve-cold", 1) {
		for _, rq := range seq {
			kinds[rq.Kind]++
			if rq.Kind == kindSweep && (rq.Cells < 8 || rq.Cells > 32) || rq.Kind == kindJob && (rq.Cells < 16 || rq.Cells > 64) {
				t.Errorf("%s with %d cells is outside its size range", rq.Kind, rq.Cells)
			}
			for _, k := range cellKeys(t, rq) {
				if seen[k] {
					t.Fatalf("cell %s generated twice", k)
				}
				seen[k] = true
			}
		}
	}
	for _, k := range []string{kindSimulate, kindSweep, kindJob} {
		if kinds[k] == 0 {
			t.Errorf("no %s requests generated", k)
		}
	}
}

func TestWarmCatalogBounded(t *testing.T) {
	cat := map[string][]byte{}
	for _, rq := range newCatalog().entries() {
		cat[rq.Key] = rq.Body
	}
	if len(cat) != 70+16 {
		t.Fatalf("catalog has %d entries, want 70 simulate cells and 16 sweeps", len(cat))
	}
	for _, seq := range sequences(t, "serve-warm", 1) {
		for _, rq := range seq {
			if body, ok := cat[rq.Key]; !ok || !bytes.Equal(body, rq.Body) {
				t.Fatalf("request %s is not a catalog entry", rq.Key)
			}
		}
	}
}

func TestOSNeverTrains(t *testing.T) {
	reqs := newCatalog().entries()
	for _, w := range []string{"serve-warm", "serve-cold"} {
		for _, seq := range sequences(t, w, 3) {
			reqs = append(reqs, seq...)
		}
	}
	for _, rq := range reqs {
		for _, k := range cellKeys(t, rq) {
			if k.Dataflow == "os" && k.Phase.String() == "training" {
				t.Fatalf("output-stationary training cell generated: %s", k)
			}
		}
	}
}

func TestConnectionsBounded(t *testing.T) {
	var mu sync.Mutex
	opened := 0
	srv := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Write([]byte("{}\n"))
	}))
	srv.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			mu.Lock()
			opened++
			mu.Unlock()
		}
	}
	srv.Start()
	defer srv.Close()
	cat := newCatalog()
	gens := make([]generator, conns())
	for c := range gens {
		gens[c] = newWarmGen(cat, 1, c)
	}
	logs, _ := drive(srv.URL, gens, driveSpec{count: 200})
	for _, l := range logs {
		for _, s := range l.samples {
			if !s.ok {
				t.Fatalf("request failed: %s", s.err)
			}
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if opened > runtime.NumCPU() || opened > conns() {
		t.Fatalf("generator opened %d connections; nproc is %d", opened, runtime.NumCPU())
	}
}

func TestCanonicalHashDropsTimingFields(t *testing.T) {
	a := []byte(`{"cells":[{"energy_j":1.5,"cached":false}],"cached":0,"cache":{"hits":1},"created_unix_nano":5}`)
	b := []byte(`{"cache":{"hits":9},"cells":[{"cached":true,"energy_j":1.5}],"cached":1,"cost":{"wall_s":2},"created_unix_nano":7}`)
	c := []byte(`{"cells":[{"energy_j":1.50001,"cached":false}]}`)
	ha, _ := canonicalHash(a)
	hb, _ := canonicalHash(b)
	hc, _ := canonicalHash(c)
	if ha != hb {
		t.Error("bodies that differ only in timing-dependent fields hash differently")
	}
	if ha == hc {
		t.Error("bodies with different simulated values hash the same")
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	parent := span{ID: 1, Start: 0, End: 100}
	kids := []span{{Start: 10, End: 40}, {Start: 30, End: 50}, {Start: 90, End: 120}}
	if got := coveredNS(parent, kids); got != 50 {
		t.Fatalf("covered %d ns, want 50 (union of [10,50) and [90,100))", got)
	}
}

// TestBenchmarkJSONMatchesCode keeps BENCHMARK.json and the metrics the
// command prints in step.
func TestBenchmarkJSONMatchesCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if len(names) != len(want) {
		t.Fatalf("BENCHMARK.json workloads %v, command runs %v", names, want)
	}
	for i := range names {
		if names[i] != want[i] {
			t.Fatalf("BENCHMARK.json workloads %v, command runs %v", names, want)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []struct{ name, unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the command reports %d", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json %s (%s), command %s (%s)", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}
