package main

import (
	"context"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"sync"

	"mtier/internal/core"
	"mtier/internal/obs"
)

// goldenSchema versions golden.json.
const goldenSchema = "mtier/perfbench-goldens/v1"

//go:embed golden.json
var goldenJSON []byte

// outcome is a cell's deterministic output: what every op is checked
// against. SHA256 is the hex digest of RunRecord.Fingerprint() with the
// environment block zeroed, the recipe cmd/mtbench uses.
type outcome struct {
	Makespan float64 `json:"makespan"`
	Epochs   int     `json:"epochs"`
	Flows    int     `json:"flows"`
	SHA256   string  `json:"record_sha256"`
}

type goldenFile struct {
	Schema string             `json:"schema"`
	Cells  map[string]outcome `json:"cells"`
}

func loadGoldens(b []byte) (map[string]outcome, error) {
	var g goldenFile
	if err := json.Unmarshal(b, &g); err != nil {
		return nil, fmt.Errorf("parsing goldens: %w", err)
	}
	if g.Schema != goldenSchema {
		return nil, fmt.Errorf("goldens have schema %q, want %q", g.Schema, goldenSchema)
	}
	return g.Cells, nil
}

// outcomeOf re-derives the deterministic outputs from a run record's JSON
// form, as a client of the service receives it. The record's config,
// result and sched sections stay raw so re-marshalling reproduces the
// producer's field order; the environment block, which differs from
// machine to machine, is zeroed before fingerprinting. (The service's
// X-Mtier-Record-Sha256 header keeps it and is not trusted.)
func outcomeOf(body []byte) (outcome, error) {
	var cfg, res, sch json.RawMessage
	rec := obs.RunRecord{Config: &cfg, Result: &res, Sched: &sch}
	if err := json.Unmarshal(body, &rec); err != nil {
		return outcome{}, fmt.Errorf("decoding run record: %w", err)
	}
	if len(sch) == 0 {
		rec.Sched = nil
	}
	rec.Env = obs.Environment{}
	fp, err := rec.Fingerprint()
	if err != nil {
		return outcome{}, fmt.Errorf("fingerprinting run record: %w", err)
	}
	sum := sha256.Sum256(fp)
	out := outcome{Flows: rec.Flows, SHA256: hex.EncodeToString(sum[:])}
	if rec.Result != nil {
		var r struct {
			Makespan float64 `json:"makespan"`
			Epochs   int     `json:"epochs"`
		}
		if err := json.Unmarshal(res, &r); err != nil {
			return outcome{}, fmt.Errorf("decoding result section: %w", err)
		}
		out.Makespan, out.Epochs = r.Makespan, r.Epochs
	}
	if rec.Sched != nil {
		var s struct {
			MakespanS float64 `json:"makespan_s"`
		}
		if err := json.Unmarshal(sch, &s); err != nil {
			return outcome{}, fmt.Errorf("decoding sched section: %w", err)
		}
		out.Makespan = s.MakespanS
	}
	return out, nil
}

// recordOutcome is outcomeOf applied to an in-process record.
func recordOutcome(rec *obs.RunRecord) (outcome, error) {
	b, err := json.Marshal(rec)
	if err != nil {
		return outcome{}, fmt.Errorf("encoding run record: %w", err)
	}
	return outcomeOf(b)
}

// checker verifies op outputs against the goldens and counts attempted
// and failed ops. Safe for concurrent use.
type checker struct {
	goldens map[string]outcome

	mu        sync.Mutex
	attempted int
	failed    int
}

// check records one attempted op: it fails on err, on a cell without a
// golden, or on any output that differs from the golden.
func (c *checker) check(id string, got outcome, err error) bool {
	if err == nil {
		if want, ok := c.goldens[id]; !ok {
			err = fmt.Errorf("no golden for cell %s", id)
		} else if got != want {
			err = fmt.Errorf("cell %s: got %+v, golden %+v", id, got, want)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.attempted++
	if err != nil {
		c.failed++
		fmt.Fprintln(os.Stderr, "perfbench: op failed:", err)
		return false
	}
	return true
}

func (c *checker) counts() (attempted, failed int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.attempted, c.failed
}

// writeGoldens runs every cell and request of every workload once,
// in process, and writes their outcomes to path.
func writeGoldens(ctx context.Context, path string) error {
	cells := map[string]outcome{}
	var all []cell
	all = append(all, paperCells()...)
	all = append(all, epochCells()...)
	deck, err := serveDeck()
	if err != nil {
		return err
	}
	for _, r := range deck {
		if r.cfg != nil {
			all = append(all, cell{id: r.id, cfg: *r.cfg})
			continue
		}
		oc, err := r.open.RunContext(ctx, nil)
		if err != nil {
			return fmt.Errorf("open request %s: %w", r.id, err)
		}
		if cells[r.id], err = recordOutcome(oc.Record(r.open.Config())); err != nil {
			return err
		}
	}
	for _, c := range all {
		res, err := core.RunContext(ctx, c.cfg, nil)
		if err != nil {
			return fmt.Errorf("cell %s: %w", c.id, err)
		}
		if cells[c.id], err = recordOutcome(res.Record()); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "perfbench: golden %s\n", c.id)
	}
	b, err := json.MarshalIndent(goldenFile{Schema: goldenSchema, Cells: cells}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
