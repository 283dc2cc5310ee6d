// Command perfbench is the repository benchmark. Each invocation runs one
// workload in its own process:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// It sets up several times (building the topologies the workload shares
// and running one checked, untimed warm-up pass over its cells) and
// reports the median set-up time. It then times whole passes of the
// seed's op sequence until at least --seconds have passed. Every op's
// deterministic output is checked against golden.json. The last line of
// standard output is one JSON object {correct, attempted, failed,
// metrics}: the end-to-end metrics with --trace 0; with --trace 1 the
// per-layer metrics of a separate traced pass, whose table is printed
// above it.
//
//	perfbench --write-goldens golden.json
//
// runs every cell once and rewrites the goldens.
//
// See README.md for the workloads, the metrics and the layer table.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mtier/internal/obs"
)

// setupRounds is how often a run sets up; setup_s is the median.
const setupRounds = 3

// bench runs one workload.
type bench interface {
	// setUp runs one set-up round; the timed passes use the last round's
	// state.
	setUp(ctx context.Context) error
	// measure times whole passes of the seeded op sequence for at least
	// d, tracing them when t is non-nil, and calls endPass as each pass
	// ends. It returns the verified ops' times and the window's length,
	// both in seconds.
	measure(ctx context.Context, d time.Duration, t *tally, endPass func()) ([]float64, float64)
	// attribute adds the direct-call splits of the traced ops to t.
	attribute(ctx context.Context, t *tally) error
	// registry is where the program counts during traced passes.
	registry() *obs.Registry
	close()
}

type workloadDef struct {
	name string
	// threads is the simulation threads the workload runs at once;
	// clients its concurrent callers. Neither may exceed the CPU count.
	threads, clients int
	newBench         func(seed int64, chk *checker) (bench, error)
}

// paperMinOps is the op count a paper-131k run reaches at least, so its
// median rests on several ops.
const paperMinOps = 6

// minTailOps is the op count a run of the multi-op workloads reaches at
// least, so that ten samples lie beyond op_s_p90.
const minTailOps = 100

var workloads = []workloadDef{
	{name: "paper-131k", threads: 2, clients: 1,
		newBench: func(seed int64, chk *checker) (bench, error) {
			return &directBench{cells: paperCells(), minOps: paperMinOps, seed: seed, chk: chk, reg: obs.NewRegistry()}, nil
		}},
	{name: "epoch-heavy", threads: 1, clients: 1,
		newBench: func(seed int64, chk *checker) (bench, error) {
			return &directBench{cells: epochCells(), shared: true, minOps: minTailOps, seed: seed, chk: chk, reg: obs.NewRegistry()}, nil
		}},
	{name: "serve-mixed", threads: serveClients, clients: serveClients,
		newBench: func(seed int64, chk *checker) (bench, error) {
			deck, err := serveDeck()
			if err != nil {
				return nil, err
			}
			return &serveBench{deck: deck, minOps: minTailOps, seed: seed, chk: chk}, nil
		}},
}

func findWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (valid: %s)", name, strings.Join(names, ", "))
}

// guard refuses a configuration that would oversubscribe the machine.
func guard(w workloadDef, cpus int) error {
	if w.threads > cpus || w.clients > cpus {
		return fmt.Errorf("workload %s runs %d simulation threads and %d clients, but the machine has %d CPUs",
			w.name, w.threads, w.clients, cpus)
	}
	return nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// runInfo is printed before the result: where and how the run was made.
type runInfo struct {
	Workload     string    `json:"workload"`
	Seed         int64     `json:"seed"`
	GoVersion    string    `json:"go_version"`
	GOMAXPROCS   int       `json:"gomaxprocs"`
	NumCPU       int       `json:"num_cpu"`
	SimThreads   int       `json:"sim_threads"`
	Clients      int       `json:"clients"`
	SetupS       []float64 `json:"setup_rounds_s"`
	RSSPasses    int       `json:"rss_passes,omitempty"`
	VmHWMMB      float64   `json:"vmhwm_mb,omitempty"`
	Ops          int       `json:"ops"`
	BeyondP90    int       `json:"ops_beyond_p90"`
	WindowS      float64   `json:"window_s"`
	FailedFrac   float64   `json:"failed_frac"`
	TracedOps    int       `json:"traced_ops,omitempty"`
	TracedWindow float64   `json:"traced_window_s,omitempty"`
}

func main() {
	name := flag.String("workload", "", "workload to run: paper-131k, epoch-heavy or serve-mixed")
	seed := flag.Int64("seed", 1, "seed of the op sequence")
	seconds := flag.Int("seconds", 10, "minimum length of the timed window")
	traced := flag.Int("trace", 0, "1 = report the per-layer metrics of a separate traced pass")
	goldens := flag.String("write-goldens", "", "run every cell once and write the goldens to this file")
	flag.Parse()
	ctx := context.Background()

	if *goldens != "" {
		if err := writeGoldens(ctx, *goldens); err != nil {
			die(err)
		}
		return
	}
	if *seconds < 1 || (*traced != 0 && *traced != 1) {
		die(errors.New("--seconds must be at least 1 and --trace 0 or 1"))
	}
	res, err := run(ctx, *name, *seed, time.Duration(*seconds)*time.Second, *traced == 1)
	if err != nil {
		die(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		die(err)
	}
	fmt.Println(string(line))
}

func die(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func run(ctx context.Context, name string, seed int64, d time.Duration, traced bool) (*result, error) {
	w, err := findWorkload(name)
	if err != nil {
		return nil, err
	}
	if err := guard(w, runtime.NumCPU()); err != nil {
		return nil, err
	}
	golden, err := loadGoldens(goldenJSON)
	if err != nil {
		return nil, err
	}
	chk := &checker{goldens: golden}
	b, err := w.newBench(seed, chk)
	if err != nil {
		return nil, err
	}
	defer b.close()

	info := runInfo{
		Workload: w.name, Seed: seed,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		SimThreads: w.threads, Clients: w.clients,
	}
	for i := 0; i < setupRounds; i++ {
		start := time.Now()
		if err := b.setUp(ctx); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		info.SetupS = append(info.SetupS, time.Since(start).Seconds())
	}

	var mem0, mem1 runtime.MemStats
	runtime.ReadMemStats(&mem0)
	rss := startRSSSampler()
	samples, window := b.measure(ctx, d, nil, rss.endPass)
	passPeaks, rssErr := rss.finish()
	runtime.ReadMemStats(&mem1)
	if len(samples) == 0 {
		return nil, errors.New("no op succeeded")
	}
	p50, p90 := percentile(samples, 0.5), percentile(samples, 0.9)
	info.Ops, info.BeyondP90, info.WindowS = len(samples), beyond(samples, p90), window

	var metrics map[string]float64
	units := endToEnd
	if !traced {
		if rssErr != nil {
			return nil, rssErr
		}
		hwm, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		info.RSSPasses, info.VmHWMMB = len(passPeaks), hwm
		metrics = map[string]float64{
			"setup_s":     percentile(info.SetupS, 0.5),
			"op_s_p50":    p50,
			"op_s_p90":    p90,
			"ops_per_s":   float64(len(samples)) / window,
			"peak_rss_mb": percentile(passPeaks, 0.5),
		}
	} else {
		units = perLayer
		reg := b.registry()
		before := reg.Snapshot()
		t := newTally()
		tracedSamples, tracedWindow := b.measure(ctx, d, t, func() {})
		delta := diffRegistry(before, reg.Snapshot())
		if len(tracedSamples) == 0 {
			return nil, errors.New("no traced op succeeded")
		}
		if err := b.attribute(ctx, t); err != nil {
			return nil, fmt.Errorf("attributing layers: %w", err)
		}
		// The runtime's work is taken from the untraced pass: the
		// recorder's own allocations would inflate the traced one.
		metrics = layerMetrics(t, delta, diffMem(&mem0, &mem1), len(samples), p50, percentile(tracedSamples, 0.5))
		info.TracedOps, info.TracedWindow = len(tracedSamples), tracedWindow
		printLayerTable(os.Stdout, w.name, t, metrics)
		path := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
		if err := writeSpanLog(path, t.log); err != nil {
			return nil, fmt.Errorf("writing span log: %w", err)
		}
		fmt.Fprintln(os.Stderr, "perfbench: span log written to", path)
	}

	attempted, failed := chk.counts()
	info.FailedFrac = float64(failed) / float64(attempted)
	if line, err := json.Marshal(map[string]runInfo{"info": info}); err == nil {
		fmt.Println(string(line))
	}
	res := &result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]metricValue{}}
	for _, m := range units {
		res.Metrics[m.name] = metricValue{Value: metrics[m.name], Unit: m.unit}
	}
	return res, nil
}
