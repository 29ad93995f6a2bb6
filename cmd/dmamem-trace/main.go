// Command dmamem-trace generates, converts and inspects memory-access
// traces.
//
// Usage:
//
//	dmamem-trace record -workload synthetic-st -duration 1s -o trace.dmt
//	dmamem-trace replay -scheme dma-ta-pl trace.dmt
//	dmamem-trace info trace.dmt
//	dmamem-trace cdf  trace.dmt          # Figure 4 style popularity CDF
//	dmamem-trace gen  -workload synthetic-st -duration 100ms -o trace.bin
//
// record streams a workload straight to the columnar on-disk .dmt
// container (docs/TRACE_FORMAT.md): the synthetic generators emit
// record by record into the chunked writer, so an hour-scale trace
// records in flat memory. replay simulates such a file streamed from
// disk — again in flat memory — and prints the same
// report dmamem-sim would for the equivalent in-memory trace, bit for
// bit. info auto-detects the container: on a .dmt it prints the
// footer summary without materializing a single record; on a legacy
// gen/Save file it loads the trace and prints the full summary. gen
// is the legacy in-memory generator kept for the old all-at-once
// format.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"dmamem"
	"dmamem/internal/server"
	"dmamem/internal/sim"
	"dmamem/internal/synth"
	"dmamem/internal/trace"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "gen":
		gen(os.Args[2:])
	case "record":
		record(os.Args[2:])
	case "replay":
		replay(os.Args[2:])
	case "info":
		info(os.Args[2:], false)
	case "cdf":
		info(os.Args[2:], true)
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: dmamem-trace record|replay|info|cdf|gen ...")
	os.Exit(2)
}

func fromStd(d time.Duration) sim.Duration {
	return sim.Duration(d.Nanoseconds()) * sim.Nanosecond
}

// record streams a workload to a .dmt container. The synthetic
// workloads never hold more than the writer's current chunk in
// memory, whatever the duration; the server models build their trace
// in memory first (they need the full event history) and then stream
// it out.
func record(args []string) {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	workload := fs.String("workload", "synthetic-st", "synthetic-st | synthetic-db | oltp-st | oltp-db")
	duration := fs.Duration("duration", 100*time.Millisecond, "trace duration")
	seed := fs.Uint64("seed", 1, "generator seed")
	chunk := fs.Int("chunk", 0, "records per chunk (0 = default)")
	out := fs.String("o", "trace.dmt", "output .dmt file")
	_ = fs.Parse(args)

	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	opt := trace.WriterOptions{ChunkRecords: *chunk}

	switch *workload {
	case "synthetic-st":
		cfg := synth.DefaultSt()
		cfg.Duration, cfg.Seed = fromStd(*duration), *seed
		err = stream(f, "Synthetic-St", opt, func(emit func(trace.Record) error) error {
			return synth.GenerateStTo(cfg, emit)
		})
	case "synthetic-db":
		// Mirror dmamem.SyntheticDatabaseTrace: network DMAs only, and
		// the default seed moves off the St default so the two
		// synthetic workloads draw distinct streams.
		cfg := synth.DefaultDb()
		cfg.St.Duration, cfg.St.Seed = fromStd(*duration), *seed
		if cfg.St.Seed == 1 {
			cfg.St.Seed = 2
		}
		err = stream(f, "Synthetic-Db", opt, func(emit func(trace.Record) error) error {
			return synth.GenerateDbTo(cfg, emit)
		})
	case "oltp-st":
		cfg := server.DefaultStorage()
		cfg.Duration, cfg.Seed = fromStd(*duration), *seed
		res, gerr := server.GenerateStorage(cfg)
		if gerr != nil {
			err = gerr
			break
		}
		err = res.Trace.WriteDMT(f, opt)
	case "oltp-db":
		cfg := server.DefaultDatabase()
		cfg.Duration, cfg.Seed = fromStd(*duration), *seed
		res, gerr := server.GenerateDatabase(cfg)
		if gerr != nil {
			err = gerr
			break
		}
		err = res.Trace.WriteDMT(f, opt)
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	st, err := dmamem.StatTraceFile(*out)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s: %s\n", *out, describe(st))
}

// stream runs one generator callback into a fresh .dmt writer.
func stream(f *os.File, name string, opt trace.WriterOptions, gen func(emit func(trace.Record) error) error) error {
	w, err := trace.NewWriter(f, name, opt)
	if err != nil {
		return err
	}
	w.SetMeta(synth.SyntheticMeta())
	if err := gen(w.Append); err != nil {
		return err
	}
	return w.Close()
}

// replay simulates a recorded .dmt file through the file-backed
// feeder, never materializing the trace.
func replay(args []string) {
	fs := flag.NewFlagSet("replay", flag.ExitOnError)
	scheme := fs.String("scheme", "dma-ta-pl", "baseline | dma-ta | dma-ta-pl | no-pm")
	cpLimit := fs.Float64("cp-limit", 0.10, "CP-Limit for DMA-TA")
	groups := fs.Int("groups", 2, "PL popularity groups")
	compare := fs.Bool("compare", true, "also run the baseline and report savings")
	_ = fs.Parse(args)
	if fs.NArg() < 1 {
		fmt.Fprintln(os.Stderr, "usage: dmamem-trace replay [flags] trace.dmt")
		os.Exit(2)
	}
	path := fs.Arg(0)
	st, err := dmamem.StatTraceFile(path)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("replaying %s: %s\n", path, describe(st))

	s := dmamem.Simulation{TraceFile: path, CPLimit: *cpLimit, PLGroups: *groups}
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
		cmp, err := dmamem.Compare(s, nil)
		if err != nil {
			fatal(err)
		}
		fmt.Println("baseline: ", cmp.Baseline)
		fmt.Println("technique:", cmp.Technique)
		fmt.Printf("energy savings: %.1f%%\n", 100*cmp.Savings)
		return
	}
	rep, err := dmamem.Run(s, nil)
	if err != nil {
		fatal(err)
	}
	fmt.Println(rep)
	fmt.Println(rep.Breakdown)
}

func describe(st dmamem.TraceFileInfo) string {
	return fmt.Sprintf("%q, %d records (%d DMA transfers, %d pages) in %d chunks of %d, duration %v",
		st.Name, st.Records, st.DMATransfers, st.DMAPages, st.Chunks, st.ChunkRecords, st.Duration)
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

func gen(args []string) {
	fs := flag.NewFlagSet("gen", flag.ExitOnError)
	workload := fs.String("workload", "synthetic-st", "synthetic-st | synthetic-db | oltp-st | oltp-db")
	duration := fs.Duration("duration", 100*time.Millisecond, "trace duration")
	seed := fs.Uint64("seed", 1, "generator seed")
	out := fs.String("o", "trace.bin", "output file")
	_ = fs.Parse(args)

	var tr *dmamem.Trace
	var err error
	switch *workload {
	case "synthetic-st":
		tr, err = dmamem.SyntheticStorageTrace(dmamem.SyntheticOptions{Duration: *duration, Seed: *seed})
	case "synthetic-db":
		tr, err = dmamem.SyntheticDatabaseTrace(dmamem.SyntheticOptions{Duration: *duration, Seed: *seed})
	case "oltp-st":
		tr, err = dmamem.StorageServerTrace(dmamem.ServerOptions{Duration: *duration, Seed: *seed})
	case "oltp-db":
		tr, err = dmamem.DatabaseServerTrace(dmamem.ServerOptions{Duration: *duration, Seed: *seed})
	default:
		err = fmt.Errorf("unknown workload %q", *workload)
	}
	if err != nil {
		fatal(err)
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	if err := tr.Save(f); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s: %s\n", *out, tr.Summary())
}

func info(args []string, cdf bool) {
	if len(args) < 1 {
		usage()
	}
	path := args[0]
	if isDMT(path) && !cdf {
		// Footer-only summary: no record is ever decoded.
		st, err := dmamem.StatTraceFile(path)
		if err != nil {
			fatal(err)
		}
		fmt.Println(describe(st))
		return
	}
	var tr *dmamem.Trace
	var err error
	if isDMT(path) {
		tr, err = dmamem.ReadTraceFile(path)
	} else {
		var f *os.File
		if f, err = os.Open(path); err != nil {
			fatal(err)
		}
		defer f.Close()
		tr, err = dmamem.ReadTrace(f)
	}
	if err != nil {
		fatal(err)
	}
	fmt.Println(tr.Summary())
	fmt.Printf("burstiness (inter-arrival CV): %.2f; chip-load skew (CV): %.2f\n",
		tr.Burstiness(), tr.ChipLoadSkew())
	if cdf {
		fmt.Printf("%10s %10s\n", "pages%", "accesses%")
		for _, p := range tr.PopularityCurve(10) {
			fmt.Printf("%9.0f%% %9.1f%%\n", 100*p.PageFrac, 100*p.AccessFrac)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dmamem-trace:", err)
	os.Exit(1)
}
