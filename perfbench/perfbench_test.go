package main

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"sync/atomic"
	"testing"
)

func TestPercentileAndTailCount(t *testing.T) {
	var xs []float64
	for i := 200; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	if got := percentile(xs, 0.5); got != 100 {
		t.Errorf("p50 = %g, want 100", got)
	}
	p90 := percentile(xs, 0.9)
	if p90 != 180 {
		t.Errorf("p90 = %g, want 180", p90)
	}
	if n := beyond(xs, p90); n != 20 {
		t.Errorf("%d samples beyond p90, want 20", n)
	}
	if xs[0] != 200 {
		t.Error("percentile reordered its input")
	}
	// With fewer than ten samples the p90 is the slowest one and no
	// sample lies beyond it.
	few := []float64{3, 1, 2}
	if got := percentile(few, 0.9); got != 3 || beyond(few, got) != 0 {
		t.Errorf("p90 of %v = %g with %d beyond, want 3 with 0", few, got, beyond(few, got))
	}
}

// TestQuantileRanksFallMidCell keeps the p50 and p90 ranks of a whole
// number of passes inside one cell's block of samples: on a block
// boundary the percentile would flip between two cells of different cost
// from run to run.
func TestQuantileRanksFallMidCell(t *testing.T) {
	deck, err := serveDeck()
	if err != nil {
		t.Fatal(err)
	}
	for name, n := range map[string]int{"epoch-heavy": len(epochCells()), "serve-mixed": len(deck)} {
		for _, q := range []float64{0.5, 0.9} {
			if _, frac := math.Modf(q * float64(n)); math.Abs(frac-0.5) > 1e-9 {
				t.Errorf("%s: %d cells put the q=%g rank at a fraction %.2f of a cell, want 0.5", name, n, q, frac)
			}
		}
	}
}

func TestOrderReplaysPerSeed(t *testing.T) {
	a, b := order(1, "ops", 0, 15), order(1, "ops", 0, 15)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("seed 1 gave %v then %v", a, b)
	}
	if reflect.DeepEqual(a, order(2, "ops", 0, 15)) {
		t.Error("seeds 1 and 2 gave the same sequence")
	}
	if reflect.DeepEqual(a, order(1, "ops", 1, 15)) {
		t.Error("passes 0 and 1 gave the same sequence")
	}
	seen := make([]bool, 15)
	for _, i := range a {
		seen[i] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Errorf("pass misses item %d: %v", i, a)
		}
	}
}

func mustGoldens(t *testing.T) map[string]outcome {
	t.Helper()
	g, err := loadGoldens(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestGoldensCoverEveryCell(t *testing.T) {
	g := mustGoldens(t)
	deck, err := serveDeck()
	if err != nil {
		t.Fatal(err)
	}
	ids := map[string]bool{}
	for _, c := range append(paperCells(), epochCells()...) {
		ids[c.id] = true
	}
	for _, r := range deck {
		ids[r.id] = true
	}
	for id := range ids {
		if _, ok := g[id]; !ok {
			t.Errorf("no golden for %s", id)
		}
	}
	if len(g) != len(ids) {
		t.Errorf("%d goldens for %d distinct cells", len(g), len(ids))
	}
	// The paper cell's record equals mtbench's nestghc-131k-allreduce
	// regime in bench/BENCH_10.json.
	const bench10 = "465b57a28a77ecc410486e6768a9027429972667e3eef3d1e199a0ae66ec1b18"
	if got := g[paperCells()[0].id].SHA256; got != bench10 {
		t.Errorf("paper-131k golden digest %s, want %s", got, bench10)
	}
}

// smallCell is a fast cell of the serve deck, with a golden.
func smallCell(t *testing.T) cell {
	t.Helper()
	deck, err := serveDeck()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range deck {
		if r.id == "fattree-512-reduce" {
			return cell{id: r.id, cfg: *r.cfg}
		}
	}
	t.Fatal("fattree-512-reduce missing from the deck")
	return cell{}
}

func TestWrongGoldenCountsAsFailed(t *testing.T) {
	c := smallCell(t)
	g := mustGoldens(t)
	good := &checker{goldens: g}
	b := &directBench{cells: []cell{c}, chk: good}
	if _, ok := b.op(context.Background(), c, nil); !ok {
		t.Fatal("op failed against the committed golden")
	}
	wrong := g[c.id]
	wrong.SHA256 = "0" + wrong.SHA256[1:]
	bad := &checker{goldens: map[string]outcome{c.id: wrong}}
	b.chk = bad
	if _, ok := b.op(context.Background(), c, nil); ok {
		t.Fatal("op passed against a wrong golden")
	}
	if a, f := bad.counts(); a != 1 || f != 1 {
		t.Errorf("attempted %d failed %d, want 1 and 1", a, f)
	}
}

func TestRefusedRequestCountsAsFailedOnce(t *testing.T) {
	var hits atomic.Int32
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		hits.Add(1)
		w.Header().Set("Retry-After", "1")
		http.Error(w, `{"error":"queue full"}`, http.StatusTooManyRequests)
	}))
	defer srv.Close()
	chk := &checker{goldens: mustGoldens(t)}
	c := smallCell(t)
	b := &serveBench{chk: chk, client: srv.Client(), base: srv.URL}
	r := request{id: c.id, path: "/v1/experiments", body: []byte("{}")}
	if _, ok := b.do(context.Background(), r, nil); ok {
		t.Fatal("a 429 answer passed")
	}
	if a, f := chk.counts(); a != 1 || f != 1 {
		t.Errorf("attempted %d failed %d, want 1 and 1", a, f)
	}
	if n := hits.Load(); n != 1 {
		t.Errorf("refused request sent %d times, want 1 (no retry)", n)
	}
}

// TestServiceRecordsMatchGoldens checks the client-side re-hash: records
// answered by the service, environment block zeroed, digest to the same
// goldens as the in-process runs.
func TestServiceRecordsMatchGoldens(t *testing.T) {
	deck, err := serveDeck()
	if err != nil {
		t.Fatal(err)
	}
	var sub []request
	for _, r := range deck {
		if r.id == "nestghc-512-t2u4-allreduce" || r.id == "nesttree-512-t4u2-reduce" || r.open != nil {
			sub = append(sub, r)
		}
	}
	chk := &checker{goldens: mustGoldens(t)}
	b := &serveBench{deck: sub, seed: 1, chk: chk}
	defer b.close()
	if err := b.setUp(context.Background()); err != nil {
		t.Fatal(err)
	}
	if a, f := chk.counts(); a != len(sub) || f != 0 {
		t.Errorf("attempted %d failed %d, want %d and 0", a, f, len(sub))
	}
}

func TestGuardRefusesOversubscription(t *testing.T) {
	w := workloadDef{name: "x", threads: 2, clients: 1}
	if err := guard(w, 2); err != nil {
		t.Errorf("2 threads on 2 CPUs refused: %v", err)
	}
	if err := guard(w, 1); err == nil {
		t.Error("2 threads on 1 CPU accepted")
	}
	w.threads, w.clients = 1, 3
	if err := guard(w, 2); err == nil {
		t.Error("3 clients on 2 CPUs accepted")
	}
}

// TestMetricsMatchBenchmarkJSON keeps the printed metrics and the
// benchmark definition at the repository root in step.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var def struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &def); err != nil {
		t.Fatal(err)
	}
	same := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", def.EndToEnd, endToEnd)
	same("per_layer", def.PerLayer, perLayer)
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(def.Workloads), len(workloads))
	}
	for i, w := range def.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: %s in BENCHMARK.json, %s in the benchmark", i, w.Name, workloads[i].name)
		}
	}
}

func TestRSSSamplerKeepsOnePeakPerPass(t *testing.T) {
	s := startRSSSampler()
	s.endPass()
	s.endPass()
	peaks, err := s.finish()
	if err != nil {
		t.Fatal(err)
	}
	if len(peaks) != 2 || peaks[0] <= 0 || peaks[1] <= 0 {
		t.Errorf("pass peaks %v, want two positive values", peaks)
	}
}
