package job

import (
	"encoding/json"
	"fmt"

	"github.com/inca-arch/inca/internal/framelog"
)

// jnlMagic opens the journal file; its frames follow internal/framelog,
// the same format as the result store's segments.
const jnlMagic = "INCAJNL1"

// Journal record operations. Each op is one append; replaying the
// sequence rebuilds the job table exactly.
const (
	opSubmit   = "submit"   // new job: id, spec, created
	opRun      = "run"      // a runner picked the job up: attempts
	opResume   = "resume"   // a restarted manager requeued the job
	opTrace    = "trace"    // the job's root span identity (first run)
	opProgress = "progress" // checkpoint: cells total/done so far
	opCost     = "cost"     // the run's cost summary (JSON), latest wins
	opDone     = "done"     // terminal: state, result body or error
)

// jrecord is the JSON payload of one journal record. Only the fields
// relevant to each op are populated; unknown ops are skipped at replay
// for forward compatibility. Spec and Body are JSON strings, not
// embedded raw messages: marshaling a json.RawMessage compacts it, and
// the replayed result body must be byte-identical to the one an
// uninterrupted run served (trailing newline included).
type jrecord struct {
	Op      string `json:"op"`
	ID      string `json:"id"`
	Spec    string `json:"spec,omitempty"`
	Created int64  `json:"created_unix_nano,omitempty"`
	State   State  `json:"state,omitempty"`
	Attempt int    `json:"attempt,omitempty"`
	Total   int    `json:"total,omitempty"`
	Done    int    `json:"done,omitempty"`
	TraceID string `json:"trace_id,omitempty"`
	SpanID  string `json:"span_id,omitempty"`
	Body    string `json:"body,omitempty"`
	Cost    string `json:"cost,omitempty"`
	Error   string `json:"error,omitempty"`
}

// openJournal opens (creating if needed) the journal file and decodes
// every cleanly framed record in order. framelog truncates a torn or
// corrupt tail, and a record that does not decode, to the last good
// record; torn reports that it did.
func openJournal(path string) (jnl *framelog.Log, recs []jrecord, torn bool, err error) {
	jnl, torn, err = framelog.Open(path, jnlMagic, func(_ int64, payload []byte) bool {
		var rec jrecord
		if err := json.Unmarshal(payload, &rec); err != nil || rec.ID == "" {
			return false // framed but undecodable: stop, do not replay
		}
		recs = append(recs, rec)
		return true
	})
	if err != nil {
		return nil, nil, false, fmt.Errorf("job: %w", err)
	}
	return jnl, recs, torn, nil
}

// appendLocked journals one record; callers hold m.mu. A failing disk or
// a record over the frame bound degrades durability (the record is lost,
// the job resumes one step further back) but never liveness — the
// in-memory table is already updated. Such failures count in IOErrors,
// mirroring the result store's swallow-and-count stance.
func (m *Manager) appendLocked(rec jrecord) {
	if m.jnl == nil {
		return
	}
	payload, err := json.Marshal(rec)
	if err == nil {
		_, err = m.jnl.Append(payload)
	}
	if err != nil {
		m.ioErrs.Add(1)
	}
}
