package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"mtier/internal/core"
	"mtier/internal/obs"
	"mtier/internal/serve"
	"mtier/internal/topo"
	"mtier/internal/trace"
)

// serveClients is the number of closed-loop HTTP callers of serve-mixed.
const serveClients = 2

// serveBench drives an in-process mtserve service over loopback with
// closed-loop clients: serve-mixed.
type serveBench struct {
	deck   []request
	minOps int
	seed   int64
	chk    *checker

	reg    *obs.Registry
	srv    *serve.Server
	client *http.Client
	base   string
}

func (b *serveBench) registry() *obs.Registry { return b.reg }

// close stops the service, waiting for its runs and listener to end.
func (b *serveBench) close() {
	if b.srv == nil {
		return
	}
	b.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := b.srv.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: service shutdown:", err)
	}
	b.srv = nil
}

// setUp starts a fresh service (empty cache) and sends every distinct
// request of the deck once, checked but untimed.
func (b *serveBench) setUp(ctx context.Context) error {
	b.close()
	b.reg = obs.NewRegistry()
	srv, err := serve.New(serve.Options{
		MaxConcurrent: serveClients,
		Workers:       1,
		CacheEntries:  serveCacheEntries,
		Registry:      b.reg,
	})
	if err != nil {
		return err
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		return err
	}
	b.srv, b.base = srv, "http://"+srv.Addr()
	b.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	for _, i := range order(b.seed, "warmup", 0, len(b.deck)) {
		b.do(ctx, b.deck[i], nil)
	}
	return nil
}

// do sends one request and checks the record it answers with. Any
// transport error or non-200 answer (429, 503 and 504 included) fails
// the op; nothing is retried.
func (b *serveBench) do(ctx context.Context, r request, t *tally) (float64, bool) {
	start := time.Now()
	var got outcome
	var cache string
	var recordSecs float64
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.base+r.path, bytes.NewReader(r.body))
	if err == nil {
		var resp *http.Response
		resp, err = b.client.Do(req)
		if err == nil {
			var body []byte
			body, err = io.ReadAll(resp.Body)
			resp.Body.Close()
			cache = resp.Header.Get("X-Mtier-Cache")
			switch {
			case err != nil:
			case resp.StatusCode != http.StatusOK:
				err = fmt.Errorf("%s: status %d: %s", r.id, resp.StatusCode, strings.TrimSpace(string(body)))
			default:
				rs := time.Now()
				got, err = outcomeOf(body)
				recordSecs = time.Since(rs).Seconds()
			}
		}
	}
	secs := time.Since(start).Seconds()
	ok := b.chk.check(r.id, got, err)
	if t != nil {
		t.addRequest(r, cache, secs, recordSecs)
	}
	return secs, ok
}

// measure runs the clients concurrently; each sends whole passes of its
// own seeded shuffle of the deck until d has elapsed and it attempted its
// share of minOps. The first client's passes are the ones endPass marks.
func (b *serveBench) measure(ctx context.Context, d time.Duration, t *tally, endPass func()) ([]float64, float64) {
	start := time.Now()
	per := make([][]float64, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			stream := fmt.Sprintf("client%d", c)
			for pass, ops := 0, 0; time.Since(start) < d || ops*serveClients < b.minOps; pass++ {
				for _, i := range order(b.seed, stream, pass, len(b.deck)) {
					if s, ok := b.do(ctx, b.deck[i], t); ok {
						per[c] = append(per[c], s)
					}
					ops++
				}
				if c == 0 {
					endPass()
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	var samples []float64
	for _, s := range per {
		samples = append(samples, s...)
	}
	return samples, elapsed
}

// attribute splits the service's runs into layers by replaying each
// traced request's work directly: generation, placement and a traced
// core.RunContext for experiments, core.OpenRun.RunContext for open
// runs, and core.Build for every request that missed the cache.
func (b *serveBench) attribute(ctx context.Context, t *tally) error {
	tops := map[core.TopoSpec]topo.Topology{}
	get := func(spec core.TopoSpec) (topo.Topology, error) {
		if top, ok := tops[spec]; ok {
			return top, nil
		}
		top, err := core.Build(spec)
		tops[spec] = top
		return top, err
	}
	for _, r := range b.deck {
		n := t.cells[r.id]
		if n == 0 {
			continue
		}
		top, err := get(r.topo)
		if err != nil {
			return err
		}
		if r.open != nil {
			start := time.Now()
			if _, err := r.open.RunContext(ctx, top); err != nil {
				return fmt.Errorf("%s: %w", r.id, err)
			}
			t.add("sched.open", time.Since(start).Seconds(), n)
			continue
		}
		gen, plc, err := timeWorkload(*r.cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", r.id, err)
		}
		t.add("workload.gen", gen, n)
		t.add("place", plc, n)
		cfg := *r.cfg
		rec := trace.NewRecorder()
		cfg.Sim.Tracer = rec
		if _, err := core.RunContext(ctx, cfg, top); err != nil {
			return fmt.Errorf("%s: %w", r.id, err)
		}
		for name, s := range sumSpans(rec) {
			if strings.HasPrefix(name, "flow.") {
				t.add(name, s.S, n)
			}
		}
	}
	for spec, n := range t.misses {
		start := time.Now()
		if _, err := core.Build(spec); err != nil {
			return err
		}
		t.add("core.build", time.Since(start).Seconds(), n)
	}
	return nil
}
