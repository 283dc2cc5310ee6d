package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"os"
	"runtime"
	"sync"
)

// RunRecordSchema identifies the run-record document format. Bump the
// suffix on breaking changes so downstream tooling can dispatch.
// History: v1 (PR 1) — config/topology/result/phases/environment;
// v2 (PR 6) — the result section gains the optional per-link/per-tier
// hot-spot attribution (flow.HotspotReport) and the config section the
// hotspot_k option;
// v3 (PR 7) — an optional sched section carries open-system scheduling
// outcomes (per-SLO-class latency percentiles, waits, stretch, Jain
// fairness) for records produced by spec-driven campaigns; absent on
// plain single-workload runs.
const RunRecordSchema = "mtier/run-record/v3"

// PhaseTimings holds the wall-clock cost of each phase of a simulation
// cell. These are the only non-deterministic fields of a RunRecord;
// Fingerprint strips them so records can be compared byte-for-byte.
type PhaseTimings struct {
	// BuildSeconds is the topology-construction time (0 when a prebuilt
	// instance was supplied, as in sweeps).
	BuildSeconds float64 `json:"build_seconds"`
	// WorkloadSeconds covers workload generation and task placement.
	WorkloadSeconds float64 `json:"workload_seconds"`
	// SimulateSeconds is the flow-engine run time.
	SimulateSeconds float64 `json:"simulate_seconds"`
}

// Total returns the summed phase time in seconds.
func (p PhaseTimings) Total() float64 {
	return p.BuildSeconds + p.WorkloadSeconds + p.SimulateSeconds
}

// Environment captures the process environment a record was produced in.
type Environment struct {
	GoVersion  string `json:"go_version"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
}

// CaptureEnvironment reads the current process environment.
func CaptureEnvironment() Environment {
	return Environment{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// TopologyInfo records the invariants of the topology instance a cell ran
// on, so cost/energy accounting and sanity checks need not rebuild it.
type TopologyInfo struct {
	Name      string `json:"name"`
	Endpoints int    `json:"endpoints"`
	Vertices  int    `json:"vertices"`
	Switches  int    `json:"switches"`
	Links     int    `json:"links"`
}

// RunRecord is the self-describing document of one simulation cell: enough
// to reproduce the run (config + seed), audit the machine it modelled
// (topology invariants), interpret the outcome (result metrics) and judge
// the measurement itself (phase timings, environment). Config and Result
// are declared as any so this package stays dependency-free; callers fill
// them with their own JSON-serialisable structs.
type RunRecord struct {
	Schema   string       `json:"schema"`
	Config   any          `json:"config"`
	Topology TopologyInfo `json:"topology"`
	Flows    int          `json:"flows"`
	Seed     int64        `json:"seed"`
	Result   any          `json:"result"`
	// Sched carries the open-system scheduling outcome when the record
	// was produced by a spec-driven campaign cell (schema v3); nil — and
	// absent from the JSON form — on plain single-workload runs.
	Sched  any          `json:"sched,omitempty"`
	Phases PhaseTimings `json:"phases"`
	Env    Environment  `json:"environment"`
}

// WriteJSON writes the record as indented JSON.
func (r *RunRecord) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// MarshalLine renders the record as a single JSON line (for JSONL streams
// of per-cell sweep records).
func (r *RunRecord) MarshalLine() ([]byte, error) {
	b, err := json.Marshal(r)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// RecordSink streams run records as JSON lines (MarshalLine) to a file,
// serialising concurrent writers. It keeps the first encode, write, flush
// or close error, drops every record after it, and returns it from
// Close, so a command whose records were lost can fail instead of
// exiting 0. A nil *RecordSink discards records.
type RecordSink struct {
	mu  sync.Mutex
	c   io.Closer
	w   *bufio.Writer
	err error
}

// CreateRecordSink creates (or truncates) the JSONL file at path. An
// empty path returns a nil sink.
func CreateRecordSink(path string) (*RecordSink, error) {
	if path == "" {
		return nil, nil
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return newRecordSink(f), nil
}

func newRecordSink(wc io.WriteCloser) *RecordSink {
	return &RecordSink{c: wc, w: bufio.NewWriter(wc)}
}

// Append writes one record as a line.
func (s *RecordSink) Append(r *RunRecord) {
	if s == nil {
		return
	}
	line, err := r.MarshalLine()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return
	}
	if err == nil {
		_, err = s.w.Write(line)
	}
	s.err = err
}

// Close flushes and closes the file and returns the sink's first error.
func (s *RecordSink) Close() error {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.w.Flush(); s.err == nil {
		s.err = err
	}
	if err := s.c.Close(); s.err == nil {
		s.err = err
	}
	return s.err
}

// Fingerprint returns the canonical JSON form of the record with the
// timing fields zeroed: two runs of the same config and seed must produce
// byte-identical fingerprints. encoding/json emits struct fields in
// declaration order and map keys sorted, so the bytes are stable.
func (r *RunRecord) Fingerprint() ([]byte, error) {
	c := *r
	c.Phases = PhaseTimings{}
	return json.Marshal(&c)
}
