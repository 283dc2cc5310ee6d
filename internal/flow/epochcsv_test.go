package flow

import (
	"encoding/csv"
	"errors"
	"strconv"
	"strings"
	"testing"

	"mtier/internal/trace"
)

// epochSeries exports rec's epoch CSV and returns its rows keyed by
// column name.
func epochSeries(t *testing.T, rec *trace.Recorder) []map[string]float64 {
	t.Helper()
	var sb strings.Builder
	if err := WriteEpochCSV(&sb, rec); err != nil {
		t.Fatal(err)
	}
	rows, err := csv.NewReader(strings.NewReader(sb.String())).ReadAll()
	if err != nil {
		t.Fatalf("epoch CSV does not parse: %v", err)
	}
	header := strings.Join(rows[0], ",")
	if want := "epoch,sim_time,active_flows,bottleneck_link,bottleneck_share,dirty_links,affected_flows,filled_links,wall_ns"; header != want {
		t.Fatalf("epoch CSV header %q, want %q", header, want)
	}
	out := make([]map[string]float64, 0, len(rows)-1)
	for _, r := range rows[1:] {
		m := make(map[string]float64, len(r))
		for i, v := range r {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("epoch CSV cell %s=%q: %v", rows[0][i], v, err)
			}
			m[rows[0][i]] = f
		}
		out = append(out, m)
	}
	return out
}

// TestProbeSnapshots: the epoch series exported from an attached flight
// recorder has exactly one row per rate-recomputation epoch, with a
// valid bottleneck and monotone times.
func TestProbeSnapshots(t *testing.T) {
	tor := cube(t, 4)
	n := tor.NumEndpoints()
	spec := &Spec{}
	for i := 0; i < 200; i++ {
		spec.Add(i%n, (i*7+3)%n, 1e6*float64(1+i%5))
	}
	rec := trace.NewRecorder()
	res, err := Simulate(tor, spec, Options{Tracer: rec})
	if err != nil {
		t.Fatal(err)
	}
	rows := epochSeries(t, rec)
	if len(rows) != res.Epochs {
		t.Fatalf("epoch CSV has %d rows, result reports %d epochs", len(rows), res.Epochs)
	}
	if len(rows) == 0 {
		t.Fatal("no epochs recorded")
	}
	maxLink := float64(tor.NumLinks() + 2*n) // topology links + virtual ports
	lastSim := -1.0
	for i, r := range rows {
		if r["epoch"] != float64(i+1) {
			t.Fatalf("epoch ordinal %g at index %d", r["epoch"], i)
		}
		if r["sim_time"] < lastSim {
			t.Fatalf("sim time went backwards: %g after %g", r["sim_time"], lastSim)
		}
		lastSim = r["sim_time"]
		if r["active_flows"] <= 0 {
			t.Fatalf("epoch %d recorded %g active flows", i+1, r["active_flows"])
		}
		if l := r["bottleneck_link"]; l < 0 || l >= maxLink {
			t.Fatalf("epoch %d bottleneck link %g out of range [0,%g)", i+1, l, maxLink)
		}
		if s := r["bottleneck_share"]; s <= 0 || s > DefaultBandwidth*(1+1e-9) {
			t.Fatalf("epoch %d bottleneck share %g outside (0, capacity]", i+1, s)
		}
		if r["affected_flows"] <= 0 || r["affected_flows"] > r["active_flows"] || r["filled_links"] <= 0 {
			t.Fatalf("epoch %d recomputed region %+v out of range", i+1, r)
		}
	}
	// The congested start must leave each flow less than full line rate.
	if rows[0]["bottleneck_share"] >= DefaultBandwidth {
		t.Fatalf("first epoch share %g, expected congestion below %g", rows[0]["bottleneck_share"], float64(DefaultBandwidth))
	}
}

// TestProbeDoesNotChangeResult: attaching the flight recorder whose
// events feed the epoch series must be purely observational.
func TestProbeDoesNotChangeResult(t *testing.T) {
	tor := cube(t, 4)
	n := tor.NumEndpoints()
	spec := &Spec{}
	for i := 0; i < 300; i++ {
		spec.Add(i%n, (i*11+1)%n, 5e5*float64(1+i%7))
	}
	opt := Options{RelEpsilon: 0.01, RefreshFraction: 1.0 / 16, LatencyBase: 5e-7, LatencyPerHop: 1e-6}
	plain, err := Simulate(tor, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	rec := trace.NewRecorder()
	opt.Tracer = rec
	traced, err := Simulate(tor, spec, opt)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Makespan != traced.Makespan || plain.Epochs != traced.Epochs {
		t.Fatalf("tracing perturbed the simulation: %+v vs %+v", plain, traced)
	}
	if rows := epochSeries(t, rec); len(rows) != traced.Epochs {
		t.Fatalf("epoch CSV has %d rows, result reports %d epochs", len(rows), traced.Epochs)
	}
}

// TestEpochCSVErrors: a recorder shared by two simulations cannot be
// joined into one series, so the exporter refuses it instead of
// interleaving them; and a failed write reaches the caller.
func TestEpochCSVErrors(t *testing.T) {
	tor := ring(t, 8)
	rec := trace.NewRecorder()
	for i := 0; i < 2; i++ {
		if _, err := Simulate(tor, multiEpochSpec(), Options{Tracer: rec}); err != nil {
			t.Fatal(err)
		}
	}
	err := WriteEpochCSV(&strings.Builder{}, rec)
	if err == nil || !strings.Contains(err.Error(), "more than one simulation") {
		t.Fatalf("merged recording exported without error: %v", err)
	}
	if err := WriteEpochCSV(&failWriter{}, trace.NewRecorder()); !errors.Is(err, errDiskFull) {
		t.Fatalf("header write error not returned: %v", err)
	}
}
