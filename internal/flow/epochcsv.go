package flow

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"strconv"

	"mtier/internal/trace"
)

// The flight-recorder events observeEpoch emits once per rate
// recomputation, in non-decreasing sim time. Sorting by sim time keeps
// equal-time events of one name in emission order, so the k-th
// occurrence of each name belongs to epoch k.
const (
	// evWaterfill names both the wall-clock span around a recomputation
	// (its cost) and the sim-time counter sizing its region.
	evWaterfill = "flow.waterfill"
	// evActive is the sim-time counter of transmitting flows.
	evActive = "flow.active"
	// evBottleneck is the sim-time instant naming the tightest
	// bottleneck link and its fair share.
	evBottleneck = "flow.bottleneck"
)

// WriteEpochCSV exports the per-epoch congestion series of one recorded
// simulation — a Recorder attached as Options.Tracer — as CSV, one row
// per rate recomputation, under the header
// epoch,sim_time,active_flows,bottleneck_link,bottleneck_share,dirty_links,affected_flows,filled_links,wall_ns.
//
// bottleneck_link is the first bottleneck progressive filling froze, the
// tightest of the recomputed region (ids from the topology's NumLinks()
// up are the virtual ports; -1 when none froze), and bottleneck_share
// its per-flow fair share in bytes/second. dirty_links counts the links
// whose membership changed since the previous recomputation,
// affected_flows the flows whose rate was recomputed and filled_links
// the links re-waterfilled. wall_ns, the recomputation's wall-clock
// cost, is the only column that is not deterministic.
func WriteEpochCSV(w io.Writer, rec *trace.Recorder) error {
	var active, fills, btls []trace.Event
	wallUS := map[int]float64{} // waterfill span duration by epoch
	for _, e := range rec.Events() {
		switch {
		case e.Name == evActive:
			active = append(active, e)
		case e.Name == evBottleneck:
			btls = append(btls, e)
		case e.Name == evWaterfill && e.PID == trace.SimPID:
			fills = append(fills, e)
		case e.Name == evWaterfill:
			wallUS[e.Args["epoch"].(int)] = e.Dur
		}
	}
	if len(active) != len(btls) || len(fills) != len(btls) {
		return fmt.Errorf("flow: epoch events out of step: %d %s, %d %s, %d %s",
			len(btls), evBottleneck, len(active), evActive, len(fills), evWaterfill)
	}
	count := func(e trace.Event, key string) string {
		return strconv.Itoa(int(e.Args[key].(float64)))
	}
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"epoch", "sim_time", "active_flows", "bottleneck_link", "bottleneck_share",
		"dirty_links", "affected_flows", "filled_links", "wall_ns"}); err != nil {
		return err
	}
	for k, b := range btls {
		if b.Args["epoch"] != k+1 {
			return fmt.Errorf("flow: %s #%d is epoch %v: the recording holds more than one simulation",
				evBottleneck, k+1, b.Args["epoch"])
		}
		// Sim-domain timestamps are µs of simulated time. Dividing back
		// can miss the engine's clock by an ulp, far below the nine
		// significant digits written.
		if err := cw.Write([]string{
			strconv.Itoa(k + 1),
			strconv.FormatFloat(b.TS/1e6, 'g', 9, 64),
			count(active[k], "flows"),
			strconv.FormatInt(int64(b.Args["link"].(int32)), 10),
			strconv.FormatFloat(b.Args["share"].(float64), 'g', 9, 64),
			count(fills[k], "dirty_links"),
			count(fills[k], "affected_flows"),
			count(fills[k], "filled_links"),
			strconv.FormatInt(int64(math.Round(wallUS[k+1]*1e3)), 10),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
