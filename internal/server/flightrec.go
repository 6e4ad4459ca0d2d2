// The SLO flight recorder: a bounded in-memory record of the requests
// that matter when the pager goes off — the slowest and the failed —
// each retained with its full span tree, provenance events and cost
// ledger, joinable by trace ID to the latency exemplars in /metrics.
// Dumped at /debug/requests.
package server

import (
	"sort"
	"sync"

	"facc/internal/obs"
)

// SpanRecord is one span of a retained request, flattened for JSON.
type SpanRecord struct {
	ID      int64          `json:"id"`
	Parent  int64          `json:"parent,omitempty"`
	Name    string         `json:"name"`
	StartUs float64        `json:"start_us"`
	DurUs   float64        `json:"dur_us"`
	Attrs   map[string]any `json:"attrs,omitempty"`
}

// RequestRecord is one retained request: identity, outcome, and the three
// trace-scoped observability streams.
type RequestRecord struct {
	Trace     string  `json:"trace"`
	JobID     string  `json:"job_id"`
	Digest    string  `json:"digest"`
	Target    string  `json:"target"`
	State     string  `json:"state"`
	Err       string  `json:"error,omitempty"`
	LatencyMS float64 `json:"latency_ms"`
	// SLOViolation marks a request that blew the latency target or
	// failed outright — the events the burn rate counts.
	SLOViolation bool `json:"slo_violation"`
	// NoAdapter marks a failed job whose compile answered correctly that
	// no adapter exists: the service worked, so it is not a failure.
	NoAdapter bool `json:"no_adapter,omitempty"`

	Spans   []SpanRecord       `json:"spans,omitempty"`
	Journal []obs.JournalEvent `json:"journal,omitempty"`
	Ledger  []obs.LedgerEntry  `json:"ledger,omitempty"`
	// Search and Kills carry the request's search-observatory view:
	// the funnel summary and every kill event this trace recorded.
	Search *obs.SearchSummary `json:"search,omitempty"`
	Kills  []obs.KillEvent    `json:"kills,omitempty"`
}

// FlightRecorder retains the N slowest and the N most recent failed
// requests. Bounded: memory stays flat no matter how long the daemon
// runs. Nil-safe: a nil recorder drops everything.
type FlightRecorder struct {
	cap int

	mu      sync.Mutex
	slowest []*RequestRecord // sorted by LatencyMS descending, ≤ cap
	failed  []*RequestRecord // ring of failed requests, oldest first, ≤ cap
}

// NewFlightRecorder returns a recorder retaining up to n requests per
// class (slowest / failed). n <= 0 gets the default of 32.
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = 32
	}
	return &FlightRecorder{cap: n}
}

// Observe offers one finished request. Failed requests other than
// no-adapter answers always enter the failure ring (evicting the
// oldest); every request competes for the slowest list.
func (f *FlightRecorder) Observe(rec *RequestRecord) {
	if f == nil || rec == nil {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if rec.State == string(Failed) && !rec.NoAdapter {
		f.failed = append(f.failed, rec)
		if len(f.failed) > f.cap {
			f.failed = f.failed[1:]
		}
	}
	if len(f.slowest) < f.cap {
		f.slowest = append(f.slowest, rec)
	} else if last := f.slowest[len(f.slowest)-1]; rec.LatencyMS > last.LatencyMS {
		f.slowest[len(f.slowest)-1] = rec
	} else {
		return
	}
	sort.SliceStable(f.slowest, func(i, j int) bool {
		return f.slowest[i].LatencyMS > f.slowest[j].LatencyMS
	})
}

// Records snapshots both retention classes.
func (f *FlightRecorder) Records() (slowest, failed []*RequestRecord) {
	if f == nil {
		return nil, nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	slowest = append([]*RequestRecord(nil), f.slowest...)
	failed = append([]*RequestRecord(nil), f.failed...)
	return slowest, failed
}

// Len returns (slowest, failed) retention counts.
func (f *FlightRecorder) Len() (int, int) {
	if f == nil {
		return 0, 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.slowest), len(f.failed)
}

// spanRecords flattens a request's span tree for retention.
func spanRecords(spans []*obs.Span) []SpanRecord {
	if len(spans) == 0 {
		return nil
	}
	out := make([]SpanRecord, 0, len(spans))
	for _, sp := range spans {
		rec := SpanRecord{
			ID:      sp.ID,
			Parent:  sp.Par,
			Name:    sp.Name,
			StartUs: float64(sp.Start.Microseconds()),
			DurUs:   float64(sp.Dur.Microseconds()),
		}
		if len(sp.Attrs) > 0 {
			rec.Attrs = make(map[string]any, len(sp.Attrs))
			for _, a := range sp.Attrs {
				rec.Attrs[a.Key] = a.Value()
			}
		}
		out = append(out, rec)
	}
	return out
}
