package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"mtier/internal/fault"
	"mtier/internal/flow"
	"mtier/internal/workload"
)

func journalConfig(seed int64) Config {
	return Config{
		Kind:      Torus3D,
		Endpoints: 64,
		Workload:  workload.AllReduce,
		Params:    workload.Params{Seed: seed},
	}
}

// TestCellKeyDeterministic: the cell key is a pure function of the input
// configuration — equal configs collide, any parameter change separates.
func TestCellKeyDeterministic(t *testing.T) {
	a, err := CellKey(journalConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := CellKey(journalConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatalf("same config keyed differently: %s vs %s", a, b)
	}
	if len(a) != 64 {
		t.Fatalf("key %q is not a hex sha256", a)
	}
	c, err := CellKey(journalConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if a == c {
		t.Fatal("different seeds produced the same cell key")
	}
}

// TestJournalRoundTrip: a result appended to a journal and read back
// through OpenJournal must reproduce the original run-record fingerprint
// byte for byte — the property that makes resumed sweeps bit-identical.
func TestJournalRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := journalConfig(1)
	res, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	key, err := CellKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(key, res); err != nil {
		t.Fatal(err)
	}
	if _, ok := j.Cached(key); !ok {
		t.Fatal("appended cell missing from the live cache")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(key, res); err == nil {
		t.Fatal("Append on a closed journal must error")
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 1 {
		t.Fatalf("reopened journal has %d cells, want 1", j2.Len())
	}
	got, ok := j2.Cached(key)
	if !ok {
		t.Fatal("reopened journal lost the cell")
	}
	want, err := res.Record().Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	have, err := got.Record().Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, have) {
		t.Fatalf("journaled result fingerprint drifted:\n want %s\n have %s", want, have)
	}
}

// TestJournalTruncatedTail: a partial final line — the remnant of a crash
// mid-append — is discarded and truncated away, and the journal keeps
// accepting appends from where the last durable record left off.
// TestJournalFromFlags: -journal creates, -resume reopens and reports
// what it holds, both at once is refused, neither means no journal.
func TestJournalFromFlags(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	var stderr bytes.Buffer
	if j, err := JournalFromFlags("mtsweep", "", "", &stderr); j != nil || err != nil {
		t.Fatalf("no flags: journal %v, err %v", j, err)
	}
	if _, err := JournalFromFlags("mtsweep", path, path, &stderr); err == nil {
		t.Fatal("-journal with -resume accepted")
	}
	j, err := JournalFromFlags("mtsweep", path, "", &stderr)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if j, err = JournalFromFlags("mtsweep", "", path, &stderr); err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if want := "mtsweep: resuming from " + path + " (0 cell(s) already completed)\n"; stderr.String() != want {
		t.Fatalf("stderr %q, want %q", stderr.String(), want)
	}
}

func TestJournalTruncatedTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := journalConfig(1)
	res, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	key, err := CellKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(key, res); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: an unterminated JSON fragment.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"schema":"mtier/sweep-jou`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatalf("OpenJournal rejected a crash remnant: %v", err)
	}
	if j2.Len() != 1 {
		t.Fatalf("journal has %d cells after tail truncation, want 1", j2.Len())
	}
	key2, err := CellKey(journalConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Append(key2, res); err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	j3, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Len() != 2 {
		t.Fatalf("journal has %d cells after post-truncation append, want 2", j3.Len())
	}
}

// TestJournalCorruptInterior: corruption anywhere before the final line
// must be a hard error — silently dropping interior records would
// resurrect already-completed work on resume.
func TestJournalCorruptInterior(t *testing.T) {
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	cfg := journalConfig(1)
	res, err := Run(cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	key, err := CellKey(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(key, res); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Splice a terminated garbage line before the valid record.
	if err := os.WriteFile(path, append([]byte("not json\n"), data...), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path); err == nil {
		t.Fatal("OpenJournal accepted interior corruption")
	}
	// A wrong-schema record is rejected the same way.
	if err := os.WriteFile(path, []byte(`{"schema":"mtier/other/v9","key":"k","result":{}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenJournal(path); err == nil {
		t.Fatal("OpenJournal accepted a foreign schema")
	}
	if _, err := OpenJournal(filepath.Join(t.TempDir(), "missing.jsonl")); err == nil {
		t.Fatal("OpenJournal accepted a missing file")
	}
}

// TestDegradationResumeFingerprint is the kill-then-resume round trip:
// a degradation sweep is canceled partway through with a journal
// attached, then resumed from that journal with fresh state. The resumed
// sweep must splice the journaled cells instead of re-simulating them,
// and every cell of the resumed report must carry a run-record
// fingerprint byte-identical to an uninterrupted run's.
func TestDegradationResumeFingerprint(t *testing.T) {
	specs := []TopoSpec{
		{Kind: Torus3D, Endpoints: 64},
		{Kind: Fattree, Endpoints: 64},
		{Kind: NestGHC, Endpoints: 64, T: 2, U: 4},
	}
	fracs := []float64{0.05, 0.1}
	base := DegradationOptions{
		Model:     fault.Random,
		FaultSeed: 7,
		Workload:  workload.AllReduce,
		Params:    workload.Params{Seed: 1},
		Sim:       flow.Options{},
		Workers:   2,
	}

	// The uninterrupted reference run.
	clean, err := DegradationSweep(specs, fracs, base)
	if err != nil {
		t.Fatal(err)
	}
	wantFP := sweepFingerprints(t, clean)

	// The interrupted run: cancel after the third completed cell.
	path := filepath.Join(t.TempDir(), "sweep.jsonl")
	j, err := CreateJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var cells atomic.Int64
	interrupted := base
	interrupted.Journal = j
	interrupted.OnCell = func(TopoSpec, float64, *RunResult, bool) {
		if cells.Add(1) == 3 {
			cancel()
		}
	}
	_, err = DegradationSweepContext(ctx, specs, fracs, interrupted)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep returned %v, want a context.Canceled error", err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	total := len(specs) * (len(fracs) + 1) // fraction 0 baseline is prepended

	// The resumed run: journaled cells splice, missing cells simulate.
	j2, err := OpenJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	checkpointed := j2.Len()
	if checkpointed == 0 || checkpointed >= total {
		t.Fatalf("journal holds %d cells, want an interrupted count in (0, %d)", checkpointed, total)
	}
	resumed := base
	resumed.Journal = j2
	rep, err := DegradationSweepContext(context.Background(), specs, fracs, resumed)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.Close(); err != nil {
		t.Fatal(err)
	}
	gotFP := sweepFingerprints(t, rep)
	if len(gotFP) != len(wantFP) {
		t.Fatalf("resumed sweep has %d cells, clean run %d", len(gotFP), len(wantFP))
	}
	for k, want := range wantFP {
		if !bytes.Equal(gotFP[k], want) {
			t.Errorf("cell %s: resumed fingerprint differs from the clean run", k)
		}
	}
}

// sweepFingerprints flattens a degradation report into per-cell canonical
// run-record fingerprints keyed by cell identity.
func sweepFingerprints(t *testing.T, rep *DegradationReport) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	for si, series := range rep.Series {
		for _, c := range series {
			fp, err := c.Result.Record().Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			out[fmt.Sprintf("%d/%s@%g", si, c.Result.Topology, c.Fraction)] = fp
		}
	}
	return out
}
