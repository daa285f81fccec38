package serve

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"github.com/inca-arch/inca/internal/dataflow"
)

// fuzzMaxBody keeps the oversized seed small while still tripping the
// body limit.
const fuzzMaxBody = 4 << 10

// FuzzSimulateRequest drives arbitrary POST /v1/simulate bodies through
// decode, nn.ByName, parsePhase, buildArch and, for valid cells, the
// simulator. The server must never panic (the recovery middleware would
// answer 500) and must answer 200 or a 4xx with a JSON error body. The
// one 500 it may give is the typed unsupported-phase error of a dataflow
// without a training model (OS training), which is pinned as a 500 by
// TestSimulateOSDataflow.
//
// The seed corpus in testdata/fuzz/FuzzSimulateRequest holds valid
// bodies, unknown models, bad phases, an oversized and truncated JSON.
// Plain `go test` replays it; `make fuzz` explores from it.
func FuzzSimulateRequest(f *testing.F) {
	s := New(Options{MaxBodyBytes: fuzzMaxBody})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := ts.Client()
	f.Fuzz(func(t *testing.T, body []byte) {
		resp, err := client.Post(ts.URL+"/v1/simulate", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			if !json.Valid(raw) {
				t.Fatalf("200 with invalid JSON body %q", raw)
			}
			return
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
			t.Fatalf("status %d with error payload %q", resp.StatusCode, raw)
		}
		switch {
		case resp.StatusCode >= 400 && resp.StatusCode < 500:
		case resp.StatusCode == http.StatusInternalServerError &&
			strings.Contains(e.Error, dataflow.ErrUnsupportedPhase.Error()):
		default:
			t.Fatalf("body %q: status %d (%s), want 200 or 4xx", body, resp.StatusCode, e.Error)
		}
	})
}
