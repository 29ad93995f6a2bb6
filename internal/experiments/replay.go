package experiments

import (
	"context"
	"fmt"
	"strings"

	"dmamem/internal/core"
	"dmamem/internal/trace"
)

// ReplayFile streams a recorded .dmt container (docs/TRACE_FORMAT.md)
// from disk — baseline and technique side by
// side, through core.RunPair — and renders the comparison. The trace
// is never materialized: each run holds one raw chunk and a small
// decoded window of it, so an hour-scale recording replays in the
// same flat memory as a millisecond one. The
// report is bit-identical to loading the trace and running it
// in-memory; the feeder-equivalence tests hold every Table 2
// workload x scheme to that.
func ReplayFile(ctx context.Context, path string, cpLimit float64, groups int) (string, error) {
	fr, err := trace.OpenDMTFile(path)
	if err != nil {
		return "", err
	}
	sum := fr.Summary()
	fr.Close()

	base := core.Config{TraceFile: path}
	tech := taConfig(cpLimit, nil)
	label := "dma-ta"
	if groups > 0 {
		tech = taConfig(cpLimit, plConfig(groups))
		label = fmt.Sprintf("dma-ta-pl(%d)", groups)
	}
	tech.TraceFile = path
	b, t, savings, err := core.RunPair(ctx, base, tech, nil)
	if err != nil {
		return "", err
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "Replay of %s: %q, %d records (%d DMA transfers) over %v\n",
		path, sum.Name, sum.Records, sum.DMATransfers, sum.Duration)
	fmt.Fprintf(&sb, "  baseline : %s\n", b.Report)
	fmt.Fprintf(&sb, "  %-9s: %s\n", label, t.Report)
	fmt.Fprintf(&sb, "  energy savings: %.1f%%\n", 100*savings)
	return sb.String(), nil
}
