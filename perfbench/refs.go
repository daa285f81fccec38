package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"strconv"

	"github.com/inca-arch/inca"
)

// refs are the committed correctness references. The catalog digests
// hold for every seed; the per-seed entries exist for the seeds the
// benchmark ships (the default seed and one held-out seed).
type refs struct {
	// WarmCatalog maps each serve-warm catalog entry to its canonical
	// response digest.
	WarmCatalog map[string]string `json:"serve_warm_catalog"`
	// Seeds maps workload → seed → reference.
	Seeds map[string]map[string]*seedRef `json:"seeds"`
}

type seedRef struct {
	// Prefix holds each connection's digest over its first prefixLen
	// responses.
	Prefix []string `json:"prefix,omitempty"`
	// Noise and Bits are the exact Table VI and Table I rows.
	Noise []inca.NoiseAccuracyRow `json:"noise_rows,omitempty"`
	Bits  []inca.BitDepthRow      `json:"bit_rows,omitempty"`
}

func loadRefs(path string) (*refs, error) {
	r := &refs{WarmCatalog: map[string]string{}, Seeds: map[string]map[string]*seedRef{}}
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return r, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.WarmCatalog == nil {
		r.WarmCatalog = map[string]string{}
	}
	if r.Seeds == nil {
		r.Seeds = map[string]map[string]*seedRef{}
	}
	return r, nil
}

func (r *refs) save(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// seed returns the reference for (workload, seed), nil when the seed is
// not one the benchmark ships.
func (r *refs) seed(workload string, seed int64) *seedRef {
	return r.Seeds[workload][strconv.FormatInt(seed, 10)]
}

func (r *refs) setSeed(workload string, seed int64, ref *seedRef) {
	if r.Seeds[workload] == nil {
		r.Seeds[workload] = map[string]*seedRef{}
	}
	r.Seeds[workload][strconv.FormatInt(seed, 10)] = ref
}
