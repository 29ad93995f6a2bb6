// Command dmamem-sim runs one simulation over a trace and prints the
// energy report.
//
// Usage:
//
//	dmamem-sim [flags]
//	  -trace file        binary trace (default: generate Synthetic-St);
//	                     a .dmt container streams from disk
//	                     in flat memory
//	  -workload name     synthetic-st | synthetic-db | oltp-st | oltp-db
//	  -duration 100ms    duration of the generated trace
//	  -scheme name       baseline | dma-ta | dma-ta-pl | no-pm
//	  -tech name         memory power-model backend (registry name,
//	                     see dmamem.Techs; empty = the RDRAM default)
//	  -cp-limit 0.10     client-perceived degradation bound for DMA-TA
//	  -groups 2          popularity groups for PL
//	  -compare           also run the baseline and report savings
//	  -channels N        memory channels (0 = legacy single-channel)
//	  -stripe-pages N    pages per channel stripe (with -channels)
//	  -channel-bw B      per-channel bandwidth cap, bytes/s (with -channels)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"dmamem"
	"dmamem/internal/experiments"
	"dmamem/internal/trace"
)

func main() {
	traceFile := flag.String("trace", "", "binary trace file (overrides -workload)")
	workload := flag.String("workload", "synthetic-st", "workload to generate")
	duration := flag.Duration("duration", 100*time.Millisecond, "generated trace duration")
	scheme := flag.String("scheme", "dma-ta-pl", "energy management scheme")
	techFlag := flag.String("tech", "", "memory technology backend (registry name, e.g. ddr4-2400; empty = rdram)")
	cpLimit := flag.Float64("cp-limit", 0.10, "CP-Limit for DMA-TA")
	groups := flag.Int("groups", 2, "PL popularity groups")
	seed := flag.Uint64("seed", 1, "generator seed")
	channels := flag.Int("channels", 0, "memory channels (0 = legacy single-channel)")
	stripePages := flag.Int("stripe-pages", 0, "pages per channel stripe (0 = 1; needs -channels)")
	channelBW := flag.Float64("channel-bw", 0, "per-channel bandwidth cap, bytes/s (0 = uncapped; needs -channels)")
	compare := flag.Bool("compare", true, "also run the baseline and report savings")
	jsonOut := flag.Bool("json", false, "emit the report(s) as JSON")
	flag.Parse()

	tech, err := parseTech(*techFlag)
	if err != nil {
		fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	s := dmamem.Simulation{
		CPLimit: *cpLimit, PLGroups: *groups, MemoryTech: tech,
		Channels: *channels, ChannelStripePages: *stripePages, ChannelBandwidth: *channelBW,
	}
	var tr *dmamem.Trace
	if *traceFile != "" && isDMT(*traceFile) {
		// Stream the container from disk: the report is
		// bit-identical to loading it, in flat memory.
		s.TraceFile = *traceFile
		st, err := dmamem.StatTraceFile(*traceFile)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("trace %s: %d records over %v (streaming from %s)\n",
			st.Name, st.Records, st.Duration, *traceFile)
	} else {
		var err error
		tr, err = loadTrace(*traceFile, *workload, *duration, *seed)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("trace %s: %s\n", tr.Name(), tr.Summary())
	}
	switch *scheme {
	case "baseline":
		s.Technique = dmamem.Baseline
	case "dma-ta":
		s.Technique = dmamem.TemporalAlignment
	case "dma-ta-pl":
		s.Technique = dmamem.TemporalAlignmentWithLayout
	case "no-pm":
		s.Technique = dmamem.NoPowerManagement
	default:
		fatal(fmt.Errorf("unknown scheme %q", *scheme))
	}

	if *compare && s.Technique != dmamem.Baseline {
		cmp, err := dmamem.CompareContext(ctx, s, tr)
		if err != nil {
			fatal(err)
		}
		if *jsonOut {
			emitJSON(cmp)
			return
		}
		fmt.Println("baseline: ", cmp.Baseline)
		fmt.Println("          ", cmp.Baseline.Breakdown)
		fmt.Println("technique:", cmp.Technique)
		fmt.Println("          ", cmp.Technique.Breakdown)
		fmt.Printf("energy savings: %.1f%%\n", 100*cmp.Savings)
		if cmp.Technique.Mu > 0 {
			fmt.Printf("derived mu: %.2f (gather delay %v/transfer)\n",
				cmp.Technique.Mu, cmp.Technique.MeanGatherDelay)
		}
		return
	}
	rep, err := dmamem.Run(s, tr)
	if err != nil {
		fatal(err)
	}
	if *jsonOut {
		emitJSON(rep)
		return
	}
	fmt.Println(rep)
	fmt.Println(rep.Breakdown)
}

func emitJSON(v any) {
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		fatal(err)
	}
}

// isDMT reports whether path starts with the .dmt container magic.
func isDMT(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var magic [4]byte
	if _, err := f.Read(magic[:]); err != nil {
		return false
	}
	return trace.IsDMT(magic[:])
}

func loadTrace(file, workload string, d time.Duration, seed uint64) (*dmamem.Trace, error) {
	if file != "" {
		f, err := os.Open(file)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return dmamem.ReadTrace(f)
	}
	switch workload {
	case "synthetic-st":
		return dmamem.SyntheticStorageTrace(dmamem.SyntheticOptions{Duration: d, Seed: seed})
	case "synthetic-db":
		return dmamem.SyntheticDatabaseTrace(dmamem.SyntheticOptions{Duration: d, Seed: seed})
	case "oltp-st":
		return dmamem.StorageServerTrace(dmamem.ServerOptions{Duration: d, Seed: seed})
	case "oltp-db":
		return dmamem.DatabaseServerTrace(dmamem.ServerOptions{Duration: d, Seed: seed})
	}
	return nil, fmt.Errorf("unknown workload %q", workload)
}

// parseTech resolves the single -tech value through the shared
// experiments.ParseTechList helper (trimmed, lower-cased, validated
// against the registry). dmamem-sim runs one simulation, so lists are
// rejected here with a pointer at dmamem-bench.
func parseTech(s string) (string, error) {
	techs, err := experiments.ParseTechList(s)
	if err != nil {
		return "", err
	}
	switch len(techs) {
	case 0:
		return "", nil
	case 1:
		return techs[0], nil
	}
	return "", fmt.Errorf("-tech %q names %d technologies; dmamem-sim runs one (dmamem-bench -tech sweeps lists)", s, len(techs))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dmamem-sim:", err)
	os.Exit(1)
}
