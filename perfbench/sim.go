package main

import (
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	"dmamem"
)

// pairSpec is one Compare call: the baseline against a technique.
type pairSpec struct {
	name string
	tech dmamem.Technique
}

var (
	pairTA   = pairSpec{"baseline-vs-dma-ta", dmamem.TemporalAlignment}
	pairTAPL = pairSpec{"baseline-vs-dma-ta-pl", dmamem.TemporalAlignmentWithLayout}
)

// simSpec is one in-process simulation workload.
type simSpec struct {
	pairs  []pairSpec
	traces int // independent traces per iteration, each with its own seed
	// perSecond is timed iterations per second of --seconds, sized so a
	// run takes about that long at the seed commit.
	perSecond float64
	duration  time.Duration // simulated length of each trace
	// generate builds a trace. In-memory workloads call it inside the
	// timed section; the replay workload calls it during set-up and
	// writes the trace to a .dmt file the timed section streams.
	generate func(seed uint64, d time.Duration) (*dmamem.Trace, error)
	replay   bool
}

var simSpecs = map[string]simSpec{
	// The storage-server generator dominates: findRun is ~70% of the
	// iteration, and the unsaturated trace leaves the allocator idle.
	"oltp-st-gen": {
		pairs:     []pairSpec{pairTAPL},
		traces:    1,
		perSecond: 0.55,
		duration:  time.Second,
		generate: func(seed uint64, d time.Duration) (*dmamem.Trace, error) {
			return dmamem.StorageServerTrace(dmamem.ServerOptions{Duration: d, Seed: seed})
		},
	},
	// Figure 8's top point: generation is ~1% and the fluid allocator's
	// recompute ~85%. 400 transfers/ms sits at the buses' saturation
	// knee, where the backlog is a random walk, so one trace's cost
	// varies 2-3x between seeds; twelve independent 5 ms traces per
	// iteration keep the seed-to-seed spread near 10%.
	"fig8-saturated": {
		pairs:     []pairSpec{pairTA, pairTAPL},
		traces:    12,
		perSecond: 0.4,
		duration:  5 * time.Millisecond,
		generate: func(seed uint64, d time.Duration) (*dmamem.Trace, error) {
			return dmamem.SyntheticStorageTrace(dmamem.SyntheticOptions{Duration: d, Seed: seed, RatePerMs: 400})
		},
	},
	// Processor-dense and streamed from disk: the .dmt cursor, the file
	// feeder, the timer wheel and the processor-access path, with the
	// generator out of the timed section.
	"oltp-db-replay": {
		pairs:     []pairSpec{pairTAPL},
		traces:    1,
		perSecond: 0.55,
		duration:  50 * time.Millisecond,
		generate: func(seed uint64, d time.Duration) (*dmamem.Trace, error) {
			return dmamem.DatabaseServerTrace(dmamem.ServerOptions{Duration: d, Seed: seed})
		},
		replay: true,
	},
}

// warmupDivisor scales the in-memory workloads' set-up pass: one
// iteration at 1/8 of the timed duration, which grows the heap and
// checks the program runs before anything is timed.
const warmupDivisor = 8

// minJobs keeps every untraced run long enough for the tail rule to
// have a percentile with ten samples beyond it.
const minJobs = 11

// iterations is the number of timed iterations in a run. It is fixed
// by --seconds rather than by the clock, so every run computes its
// medians and tail over the same number of jobs. Only a host more than
// twice as slow as the seed commit's hits the time cap (overTime),
// which stops a run early to keep the whole benchmark's duration
// bounded.
func iterations(o options, perSecond float64, jobsPerIter int) int {
	least := (minJobs + jobsPerIter - 1) / jobsPerIter
	if o.trace {
		least = 2 // one untraced and one traced
	}
	return max(least, int(math.Round(float64(o.seconds)*perSecond)))
}

// overTime reports whether a run that started at start has used up its
// time cap of twice --seconds; the first two iterations always run.
func overTime(o options, start time.Time, i int) bool {
	return i >= 2 && time.Since(start) > 2*time.Duration(o.seconds)*time.Second
}

const cpLimit = 0.10

// simRun is the state of one simulation workload run.
type simRun struct {
	o     options
	spec  simSpec
	seeds []uint64 // one generator seed per trace, derived from the benchmark seed
	file  string   // .dmt written during set-up (replay only)
	info  dmamem.TraceFileInfo
	refs  *refChecker
	first map[string]refValues // first timed iteration's outputs, for determinism
	m     measurement

	// Per-layer inputs from the most recent iteration.
	records int
	counts  modelCounts
}

// modelCounts are simulated quantities summed (or averaged) over one
// iteration's technique reports. A speed-only change leaves them
// identical.
type modelCounts struct {
	events, transfers, wakes, migrated int64
	uf, gatherUS, savings              float64
}

func runSim(o options, stderr io.Writer) (*measurement, error) {
	spec := simSpecs[o.workload]
	refs, err := newRefChecker(o)
	if err != nil {
		return nil, err
	}
	r := &simRun{o: o, spec: spec, refs: refs, first: map[string]refValues{}}
	for k := 0; k < spec.traces; k++ {
		r.seeds = append(r.seeds, inputSeed(o.seed, 1+uint64(k)))
	}
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	if spec.replay {
		tmp := filepath.Join(o.build, "tmp")
		if err := os.MkdirAll(tmp, 0o755); err != nil {
			return nil, err
		}
		r.file = filepath.Join(tmp, fmt.Sprintf("%s-%d.dmt", o.workload, os.Getpid()))
		defer os.Remove(r.file)
	}

	r.m.cal.sample()
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		if err := r.setup(rec, "setup-"+strconv.Itoa(i)); err != nil {
			return nil, err
		}
		r.m.setups = append(r.m.setups, time.Since(t0).Seconds())
	}

	n := iterations(o, spec.perSecond, len(spec.pairs))
	start := time.Now()
	for i := 0; i < n && !overTime(o, start, i); i++ {
		r.m.cal.sample()
		if err := settle(); err != nil {
			return nil, err
		}
		traced := o.trace && i%2 == 1
		var ir *recorder
		if traced {
			ir = rec
		}
		wall, jobs := r.iterate(ir, "iter-"+strconv.Itoa(i), r.spec.duration)
		rss, err := peakRSSMB("self")
		if err != nil {
			return nil, err
		}
		r.m.rss = append(r.m.rss, rss)
		if traced {
			r.m.tracedWalls = append(r.m.tracedWalls, wall)
		} else {
			r.m.walls = append(r.m.walls, wall)
			r.m.jobs = append(r.m.jobs, jobs...)
		}
	}
	r.m.cal.sample()
	if err := refs.writeRecorded(filepath.Join(o.root, "perfbench", "reference.json")); err != nil {
		return nil, err
	}
	if o.trace {
		if err := r.traceExtras(rec, stderr); err != nil {
			return nil, err
		}
		r.m.spans = rec.snapshot()
		r.layerMetrics()
	}
	return &r.m, nil
}

// setup prepares the timed section: for the replay workload it
// generates the trace and writes the .dmt file; for the in-memory
// workloads it runs one reduced-size warm-up iteration.
func (r *simRun) setup(rec *recorder, run string) error {
	if !r.spec.replay {
		r.iterate(rec, run, r.spec.duration/warmupDivisor)
		return nil
	}
	root := rec.open("setup", run, 0)
	defer rec.close(root)
	g0 := time.Now()
	tr, err := r.spec.generate(r.seeds[0], r.spec.duration)
	g1 := time.Now()
	rec.add("generate", run, root, g0, g1)
	if err != nil {
		return fmt.Errorf("generating trace: %w", err)
	}
	r.records = tr.Len()
	if err := tr.SaveFile(r.file); err != nil {
		return fmt.Errorf("writing %s: %w", r.file, err)
	}
	rec.add("dmt.write", run, root, g1, time.Now())
	if r.info, err = dmamem.StatTraceFile(r.file); err != nil {
		return err
	}
	if r.info.Records != int64(tr.Len()) {
		return fmt.Errorf("%s holds %d records, trace has %d", r.file, r.info.Records, tr.Len())
	}
	return nil
}

// iterate runs one iteration: for each of the workload's traces,
// generate it (in-memory workloads) and run every Compare pair over it.
// It returns the iteration's host wall time and one job time per pair,
// summed over the traces. Every pair's outputs are checked and counted
// in the tally.
func (r *simRun) iterate(rec *recorder, run string, d time.Duration) (wall float64, jobs []float64) {
	t0 := time.Now()
	root := rec.open("workload", run, 0)
	defer rec.close(root)
	jobs = make([]float64, len(r.spec.pairs))
	var mc modelCounts
	records := 0
	n := float64(len(r.spec.pairs) * len(r.seeds))
	for k, seed := range r.seeds {
		var tr *dmamem.Trace
		if !r.spec.replay {
			g0 := time.Now()
			var err error
			tr, err = r.spec.generate(seed, d)
			rec.add("generate", run, root, g0, time.Now())
			if err != nil {
				for range r.spec.pairs {
					r.m.tally.record(fmt.Errorf("generating trace: %w", err))
				}
				continue
			}
			records += tr.Len()
		}
		simID := rec.open("simulate", run, root)
		for i, p := range r.spec.pairs {
			s := dmamem.Simulation{Technique: p.tech, CPLimit: cpLimit}
			if r.spec.replay {
				s.TraceFile = r.file
			}
			p0 := time.Now()
			c, err := dmamem.Compare(s, tr)
			p1 := time.Now()
			rec.add("simulate."+p.name, run, simID, p0, p1)
			jobs[i] += p1.Sub(p0).Seconds()
			if err == nil {
				err = r.check(fmt.Sprintf("%s/trace-%d", p.name, k), c, d == r.spec.duration)
			}
			r.m.tally.record(err)
			if err != nil {
				continue
			}
			mc.events += int64(c.Baseline.Events + c.Technique.Events)
			mc.transfers += c.Technique.Transfers
			mc.wakes += c.Technique.Wakes
			mc.migrated += c.Technique.MigratedPages
			mc.uf += c.Technique.UtilizationFactor / n
			mc.gatherUS += c.Technique.MeanGatherDelay.Seconds() * 1e6 / n
			mc.savings += c.Savings / n
		}
		rec.close(simID)
	}
	if !r.spec.replay {
		r.records = records
	}
	r.counts = mc
	return time.Since(t0).Seconds(), jobs
}

// check runs the invariants on one pair; full-size iterations are
// also held to the reference (default seed) and to the first
// iteration's outputs (determinism).
func (r *simRun) check(key string, c *dmamem.Comparison, full bool) error {
	if err := checkComparison(key, c); err != nil {
		return err
	}
	if r.spec.replay && c.Technique.Transfers != r.info.DMATransfers {
		return fmt.Errorf("%s: simulated %d transfers, the .dmt file holds %d", key, c.Technique.Transfers, r.info.DMATransfers)
	}
	if !full {
		return nil
	}
	got := refValues{
		BaselineEnergy:  c.Baseline.TotalEnergy,
		TechniqueEnergy: c.Technique.TotalEnergy,
		Savings:         c.Savings,
		BaselineUF:      c.Baseline.UtilizationFactor,
		TechniqueUF:     c.Technique.UtilizationFactor,
		Transfers:       c.Technique.Transfers,
	}
	if prev, ok := r.first[key]; !ok {
		r.first[key] = got
	} else if prev != got {
		return fmt.Errorf("%s: outputs differ between iterations of the same input: %+v then %+v", key, prev, got)
	}
	return r.refs.check(key, got)
}

// traceExtras runs the traced run's untimed additions: a .dmt write
// (in-memory workloads: of the first trace) and decode of the
// workload's trace, and one iteration under the CPU profiler, written
// as an artifact.
func (r *simRun) traceExtras(rec *recorder, stderr io.Writer) error {
	out := filepath.Join(r.o.build, "out")
	if err := os.MkdirAll(out, 0o755); err != nil {
		return err
	}
	file, records := r.file, r.records
	var root int
	if r.spec.replay {
		root = rec.open("codec", "codec", 0)
	} else {
		tr, err := r.spec.generate(r.seeds[0], r.spec.duration)
		if err != nil {
			return err
		}
		records = tr.Len()
		file = filepath.Join(out, fmt.Sprintf("%s-%d.dmt", r.o.workload, os.Getpid()))
		defer os.Remove(file)
		root = rec.open("codec", "codec", 0)
		w0 := time.Now()
		if err := tr.SaveFile(file); err != nil {
			return err
		}
		rec.add("dmt.write", "codec", root, w0, time.Now())
	}
	d0 := time.Now()
	back, err := dmamem.ReadTraceFile(file)
	rec.add("dmt.decode", "codec", root, d0, time.Now())
	rec.close(root)
	r.m.tally.record(firstErr(err, func() error {
		if back.Len() != records {
			return fmt.Errorf("decoded %d records, wrote %d", back.Len(), records)
		}
		return nil
	}))
	st, err := os.Stat(file)
	if err != nil {
		return err
	}
	r.m.layer = map[string]float64{"dmt_bytes_per_record": float64(st.Size()) / float64(records)}

	prof := filepath.Join(out, fmt.Sprintf("%s-seed%d.cpu.pprof", r.o.workload, r.o.seed))
	f, err := os.Create(prof)
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	r.iterate(nil, "profile", r.spec.duration)
	pprof.StopCPUProfile()
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Fprintf(stderr, "perfbench: %s: CPU profile written to %s\n", r.o.workload, prof)
	return nil
}

func firstErr(err error, next func() error) error {
	if err != nil {
		return err
	}
	return next()
}

// layerMetrics derives the per-layer metrics from the traced spans and
// the last iteration's model counts. Times are per iteration (summed
// over its traces), medians over the traced iterations.
func (r *simRun) layerMetrics() {
	perRun := func(prefix, name string) []float64 {
		byRun := map[string]float64{}
		for _, s := range r.m.spans {
			if s.Name == name && strings.HasPrefix(s.Run, prefix) {
				byRun[s.Run] += (s.End - s.Start).Seconds()
			}
		}
		var out []float64
		for _, v := range byRun {
			out = append(out, v)
		}
		return out
	}
	l := r.m.layer
	if r.spec.replay {
		l["gen_s"] = median(perRun("setup-", "generate"))
		l["dmt_write_s"] = median(perRun("setup-", "dmt.write"))
	} else {
		l["gen_s"] = median(perRun("iter-", "generate"))
		l["dmt_write_s"] = median(perRun("codec", "dmt.write"))
	}
	l["gen_ns_per_record"] = l["gen_s"] * 1e9 / float64(r.records)
	l["dmt_decode_s"] = median(perRun("codec", "dmt.decode"))
	l["simulate_s"] = median(perRun("iter-", "simulate"))
	c := r.counts
	l["events"] = float64(c.events)
	l["sim_ns_per_event"] = l["simulate_s"] * 1e9 / float64(c.events)
	l["transfers"] = float64(c.transfers)
	l["wakes"] = float64(c.wakes)
	l["migrated_pages"] = float64(c.migrated)
	l["uf"] = c.uf
	l["mean_gather_us"] = c.gatherUS
	l["savings"] = c.savings
}
