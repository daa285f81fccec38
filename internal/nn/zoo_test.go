package nn

import (
	"reflect"
	"sync"
	"testing"
)

// zooNames are the names ByName resolves, in zoo order.
func zooNames(t testing.TB) []string {
	t.Helper()
	names := make([]string, len(zoo))
	for i, build := range zoo {
		names[i] = build().Name
	}
	return names
}

// TestByNameMatchesConstructors is the differential check: every cached
// lookup equals its constructor's fresh build, field for field.
func TestByNameMatchesConstructors(t *testing.T) {
	for _, build := range zoo {
		want := build()
		got, err := ByName(want.Name)
		if err != nil {
			t.Fatalf("ByName(%s): %v", want.Name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ByName(%s) differs from its constructor", want.Name)
		}
	}
}

func TestZooOrderAndOwnership(t *testing.T) {
	nets := Zoo()
	if len(nets) != 10 {
		t.Fatalf("Zoo has %d networks, want 10", len(nets))
	}
	for i, build := range zoo {
		if want := build(); !reflect.DeepEqual(nets[i], want) {
			t.Errorf("Zoo()[%d] = %s, want %s", i, nets[i].Name, want.Name)
		}
	}
	nets[0].Layers[0].OutC = -1
	if Zoo()[0].Layers[0].OutC == -1 {
		t.Error("mutating a Zoo result reached the next Zoo call")
	}
}

// TestByNameReturnsOwnedCopy mutates a lookup every way a caller can and
// requires the next lookup to be unchanged.
func TestByNameReturnsOwnedCopy(t *testing.T) {
	for _, name := range zooNames(t) {
		want, _ := ByName(name)
		got, _ := ByName(name)
		if &got.Layers[0] == &want.Layers[0] {
			t.Fatalf("%s: two lookups share one Layers array", name)
		}
		got.Layers[1].InC = 999
		got.Layers = append(got.Layers, Layer{Name: "extra", Kind: FC})
		got.Name = "renamed"
		got.Classes = 3
		again, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%s) after mutation: %v", name, err)
		}
		if !reflect.DeepEqual(again, want) {
			t.Errorf("%s: mutating one lookup changed the next", name)
		}
	}
	if _, err := ByName("renamed"); err == nil {
		t.Error("renaming a returned network made the new name resolvable")
	}
}

// TestByNameConcurrentMutation runs under -race in `make check`: callers
// that mutate their lookups must not race with each other or the cache.
func TestByNameConcurrentMutation(t *testing.T) {
	names := zooNames(t)
	want := make(map[string]*Network, len(names))
	for _, name := range names {
		want[name], _ = ByName(name)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for g := 0; g < 16; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				name := names[(g+i)%len(names)]
				n, err := ByName(name)
				if err != nil {
					errs <- err
					return
				}
				for j := range n.Layers {
					n.Layers[j].InC += g
				}
				n.Layers = append(n.Layers, Layer{Name: "extra"})
				n.Name = "mutated"
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	for _, name := range names {
		if got, _ := ByName(name); !reflect.DeepEqual(got, want[name]) {
			t.Errorf("%s changed under concurrent mutation", name)
		}
	}
}

func TestByNameUnknown(t *testing.T) {
	for _, name := range []string{"", "vgg16", "ResNet", "VGG16 ", "NoSuchNet"} {
		if n, err := ByName(name); err == nil {
			t.Errorf("ByName(%q) = %s, want an error", name, n.Name)
		}
	}
}

// TestByNameAllocs pins a lookup at one Network and one Layers slice, so
// a return to rebuilding the zoo per call fails here.
func TestByNameAllocs(t *testing.T) {
	ByName("ResNet50") // build the zoo outside the measurement
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ByName("ResNet50"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("ByName(ResNet50) made %.0f allocations, want at most 2", allocs)
	}
}

func BenchmarkByName(b *testing.B) {
	names := zooNames(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ByName(names[i%len(names)]); err != nil {
			b.Fatal(err)
		}
	}
}
