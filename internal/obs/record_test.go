package obs

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"runtime"
	"strings"
	"sync"
	"testing"
)

type fakeConfig struct {
	Kind string  `json:"kind"`
	N    int     `json:"n"`
	Msg  float64 `json:"msg_bytes"`
}

type fakeResult struct {
	Makespan float64 `json:"makespan"`
	Epochs   int     `json:"epochs"`
}

func sampleRecord() *RunRecord {
	return &RunRecord{
		Schema:   RunRecordSchema,
		Config:   fakeConfig{Kind: "nestghc", N: 4096, Msg: 1e6},
		Topology: TopologyInfo{Name: "NestGHC(2,4)", Endpoints: 4096, Vertices: 5120, Switches: 1024, Links: 20480},
		Flows:    16384,
		Seed:     7,
		Result:   fakeResult{Makespan: 0.125, Epochs: 311},
		Phases:   PhaseTimings{BuildSeconds: 0.5, WorkloadSeconds: 0.01, SimulateSeconds: 2.25},
		Env:      CaptureEnvironment(),
	}
}

func TestRunRecordRoundTrip(t *testing.T) {
	rec := sampleRecord()
	var b bytes.Buffer
	if err := rec.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	var back map[string]any
	if err := json.Unmarshal(b.Bytes(), &back); err != nil {
		t.Fatalf("record does not round-trip: %v", err)
	}
	if back["schema"] != RunRecordSchema {
		t.Fatalf("schema = %v", back["schema"])
	}
	for _, key := range []string{"config", "topology", "result", "phases", "environment", "seed", "flows"} {
		if _, ok := back[key]; !ok {
			t.Fatalf("record missing %q: %s", key, b.String())
		}
	}
	env := back["environment"].(map[string]any)
	if env["go_version"] != runtime.Version() {
		t.Fatalf("go_version = %v", env["go_version"])
	}
	phases := back["phases"].(map[string]any)
	if phases["simulate_seconds"].(float64) != 2.25 {
		t.Fatalf("phases = %v", phases)
	}
}

func TestPhaseTimingsTotal(t *testing.T) {
	p := PhaseTimings{BuildSeconds: 1, WorkloadSeconds: 2, SimulateSeconds: 4}
	if p.Total() != 7 {
		t.Fatalf("Total = %g", p.Total())
	}
}

func TestFingerprintStripsTimings(t *testing.T) {
	a := sampleRecord()
	b := sampleRecord()
	b.Phases = PhaseTimings{BuildSeconds: 99, WorkloadSeconds: 98, SimulateSeconds: 97}
	fa, err := a.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	fb, err := b.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fa, fb) {
		t.Fatalf("fingerprints differ despite identical payload:\n%s\n%s", fa, fb)
	}
	// Fingerprint must not mutate the record.
	if a.Phases.SimulateSeconds != 2.25 {
		t.Fatal("Fingerprint mutated the record")
	}
	// But a payload change must show.
	b.Seed = 8
	fb2, _ := b.Fingerprint()
	if bytes.Equal(fa, fb2) {
		t.Fatal("fingerprint blind to seed change")
	}
}

func TestMarshalLine(t *testing.T) {
	line, err := sampleRecord().MarshalLine()
	if err != nil {
		t.Fatal(err)
	}
	if line[len(line)-1] != '\n' {
		t.Fatal("line not newline-terminated")
	}
	if bytes.ContainsRune(line[:len(line)-1], '\n') {
		t.Fatal("record spans multiple lines")
	}
}

// sinkFile is a RecordSink destination that accepts limit bytes, then
// fails every write; Close fails with closeErr.
type sinkFile struct {
	bytes.Buffer
	limit    int
	closeErr error
}

var errNoSpace = errors.New("no space left on device")

func (f *sinkFile) Write(p []byte) (int, error) {
	if f.Len()+len(p) > f.limit {
		return 0, errNoSpace
	}
	return f.Buffer.Write(p)
}

func (f *sinkFile) Close() error { return f.closeErr }

// TestRecordSinkErrors: every way of losing records — a write failing
// mid-stream, only at the final flush, at close, or an unencodable
// record — surfaces from Close, and records after the first failure
// are dropped.
func TestRecordSinkErrors(t *testing.T) {
	line, err := sampleRecord().MarshalLine()
	if err != nil {
		t.Fatal(err)
	}
	errClose := errors.New("close failed")
	for _, c := range []struct {
		name    string
		file    *sinkFile
		records int
		bad     bool
		want    error
	}{
		{"fits", &sinkFile{limit: 1 << 20}, 3, false, nil},
		{"flush", &sinkFile{limit: 0}, 1, false, errNoSpace},
		{"mid-stream", &sinkFile{limit: 4096}, 64, false, errNoSpace},
		{"close", &sinkFile{limit: 1 << 20, closeErr: errClose}, 1, false, errClose},
		{"encode", &sinkFile{limit: 1 << 20}, 2, true, nil},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := newRecordSink(c.file)
			for i := 0; i < c.records; i++ {
				rec := sampleRecord()
				if c.bad && i == 0 {
					rec.Result = fakeResult{Makespan: math.NaN()}
				}
				s.Append(rec)
			}
			err := s.Close()
			switch {
			case c.bad:
				if err == nil || !strings.Contains(err.Error(), "NaN") {
					t.Fatalf("Close = %v, want the encode error", err)
				}
				if c.file.Len() != 0 {
					t.Fatalf("%d bytes written after the encode error", c.file.Len())
				}
			case !errors.Is(err, c.want):
				t.Fatalf("Close = %v, want %v", err, c.want)
			case c.want == nil && c.file.Len() != c.records*len(line):
				t.Fatalf("wrote %d bytes, want %d", c.file.Len(), c.records*len(line))
			}
		})
	}
}

// TestRecordSinkConcurrent: cells append from many goroutines; every
// line lands whole.
func TestRecordSinkConcurrent(t *testing.T) {
	f := &sinkFile{limit: 1 << 24}
	s := newRecordSink(f)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				s.Append(sampleRecord())
			}
		}()
	}
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(f.String(), "\n"), "\n")
	if len(lines) != 400 {
		t.Fatalf("%d lines, want 400", len(lines))
	}
	for _, l := range lines {
		if !json.Valid([]byte(l)) {
			t.Fatalf("torn line %q", l)
		}
	}
}

func TestRecordSinkNil(t *testing.T) {
	s, err := CreateRecordSink("")
	if s != nil || err != nil {
		t.Fatalf("CreateRecordSink(\"\") = %v, %v; want a nil sink", s, err)
	}
	s.Append(sampleRecord())
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}
