// Command mttopo reproduces Table 1 of the paper: average distance under
// uniform traffic and diameter for the hybrid topologies (NestGHC and
// NestTree across the 12 (t,u) design points) with the fattree and torus
// references. It can also analyse a single topology in detail.
//
// Usage:
//
//	mttopo -n 131072                 # full paper scale (static analysis only)
//	mttopo -n 8192 -samples 500000   # smaller system, fewer samples
//	mttopo -one nestghc -t 4 -u 2    # distance histogram of one instance
//	mttopo -csv                      # emit CSV instead of aligned text
package main

import (
	"context"
	"flag"
	"fmt"
	"os"

	"mtier/internal/core"
	"mtier/internal/metrics"
	"mtier/internal/obs"
	"mtier/internal/report"
)

func main() {
	var (
		n        = flag.Int("n", 8192, "total number of QFDBs (endpoints)")
		samples  = flag.Int("samples", 2_000_000, "sampled pairs for large systems")
		seed     = flag.Int64("seed", 1, "sampling seed")
		one      = flag.String("one", "", "analyse a single topology: torus|fattree|nesttree|nestghc")
		tFlag    = flag.Int("t", 2, "subtorus nodes per dimension (hybrids)")
		uFlag    = flag.Int("u", 4, "one uplink per u QFDBs (hybrids)")
		workers  = flag.Int("workers", 0, "worker threads for builds and distance measurement; exhaustive results are identical for every value, sampled estimates are a function of (seed, workers) (0 = NumCPU, 1 = serial)")
		csv      = flag.Bool("csv", false, "emit CSV")
		obsAddr  = flag.String("obslisten", "", "serve /metrics, /progress and pprof on this address (e.g. :9090)")
		material = flag.Bool("materialize", false, "force the materialised (stored-table) topology representation; measured values are identical to the default implicit one")
	)
	prof := obs.AddProfileFlags(flag.CommandLine)
	flag.Parse()

	if *obsAddr != "" {
		srv, err := obs.NewServer(*obsAddr, obs.NewRegistry())
		if err != nil {
			fmt.Fprintln(os.Stderr, "mttopo:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintln(os.Stderr, "mttopo: observability endpoint on http://"+srv.Addr())
	}

	rep := core.RepAuto
	if *material {
		rep = core.RepMaterialized
	}
	if err := run(prof, *one, *n, *tFlag, *uFlag, *samples, *workers, *seed, *csv, rep); err != nil {
		fmt.Fprintln(os.Stderr, "mttopo:", err)
		os.Exit(1)
	}
}

func run(prof *obs.ProfileFlags, one string, n, t, u, samples, workers int, seed int64, csv bool, rep core.Representation) error {
	var kind core.TopoKind
	if one != "" {
		var err error
		if kind, err = core.ParseTopoKind(one); err != nil {
			return err
		}
	}
	stop, err := prof.Start()
	if err != nil {
		return err
	}
	defer stop()

	if one != "" {
		return analyseOne(kind, n, t, u, samples, workers, seed, csv, rep)
	}
	set, err := core.BuildSetRep(context.Background(), n, workers, rep)
	if err != nil {
		return err
	}
	tab, err := core.Table1Context(context.Background(), set, samples, seed, workers)
	if err != nil {
		return err
	}
	emit(tab, csv)
	return nil
}

func analyseOne(kind core.TopoKind, n, t, u, samples, workers int, seed int64, csv bool, rep core.Representation) error {
	spec := core.TopoSpec{Kind: kind, Endpoints: n, Rep: rep}
	switch kind {
	case core.NestTree, core.NestGHC:
		spec.T, spec.U = t, u
	}
	top, err := core.Build(spec)
	if err != nil {
		return err
	}
	s := metrics.Distances(top, metrics.Options{Samples: samples, Seed: seed, Workers: workers})
	tab := report.NewTable(fmt.Sprintf("%s — distance distribution", top.Name()), "distance", "pairs", "fraction")
	for d, c := range s.Histogram {
		if c == 0 {
			continue
		}
		tab.AddRow(d, c, float64(c)/float64(s.Pairs))
	}
	emit(tab, csv)
	fmt.Printf("\nendpoints=%d vertices=%d links=%d\n", top.NumEndpoints(), top.NumVertices(), top.NumLinks())
	fmt.Printf("mean=%.4f (exact=%v)  max=%d (exact=%v)  pairs=%d\n",
		s.Mean, s.ExactMean, s.Max, s.ExactMax, s.Pairs)
	ll := metrics.LinkLoads(top, metrics.LinkLoadOptions{Samples: samples, Seed: seed})
	fmt.Printf("uniform channel load: max=%.3f mean=%.3f  saturation throughput=%.3f of line rate\n",
		ll.MaxLoad, ll.MeanLoad, ll.Throughput)
	return nil
}

func emit(tab *report.Table, csv bool) {
	if csv {
		_ = tab.WriteCSV(os.Stdout)
		return
	}
	_ = tab.WriteText(os.Stdout)
}
