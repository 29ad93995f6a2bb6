// File-backed simulation: the same run assembly as RunContext, with
// the trace streamed from a .dmt container instead of a slice. The
// container is traversed twice by one bounded-memory cursor — a
// validation-plus-warm-up pass, then, rewound, the simulated pass —
// and the CP-Limit calibration comes from the container's footer
// aggregates, so a trace 100x longer than memory runs in the same flat
// footprint as a short one. Reports are bit-identical to the
// in-memory path on the same records: validation rules, warm-up
// arithmetic, calibration floats and feeder batching all match.
package core

import (
	"context"
	"fmt"

	"dmamem/internal/controller"
	"dmamem/internal/dma"
	"dmamem/internal/layout"
	"dmamem/internal/memsys"
	"dmamem/internal/sim"
	"dmamem/internal/trace"
)

// runFileContext is RunContext for Config.TraceFile.
func runFileContext(ctx context.Context, cfg Config) (*Result, error) {
	cfg, model, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if cfg.PerEventFeeder {
		return nil, fmt.Errorf("core: PerEventFeeder needs an in-memory trace; TraceFile streams through the batched feeder")
	}
	if err := validateWarmupFraction(cfg.WarmupFraction); err != nil {
		return nil, err
	}
	fr, err := trace.OpenDMTFile(cfg.TraceFile)
	if err != nil {
		return nil, err
	}
	defer fr.Close()
	sum := fr.Summary()
	if sum.Records == 0 {
		return nil, fmt.Errorf("core: empty trace %q", sum.Name)
	}

	res := &Result{}
	ccfg := controller.Config{
		Geometry:           cfg.Geometry,
		Topology:           cfg.Topology,
		Buses:              cfg.Buses,
		Policy:             cfg.Policy,
		TA:                 cfg.TA,
		Mapper:             cfg.Mapper,
		Model:              model,
		InitialState:       0, // Active; the policy idles chips down immediately
		FullScanAccounting: cfg.FullScanAccounting,
	}

	if cfg.TA != nil && cfg.TA.Mu == 0 && cfg.CPLimit > 0 {
		// The footer carries the trace's DMA totals, so the calibration
		// needs no scan and its floats match Calibrate's exactly.
		cal := calibrate(sum.Meta, sum.MeanTransferPages(), cfg.Geometry, cfg.Buses)
		mu, err := cal.Mu(cfg.CPLimit)
		if err != nil {
			return nil, err
		}
		ta := *cfg.TA // do not mutate the caller's config
		ta.Mu = mu
		ccfg.TA = &ta
		res.Calibration = cal
		res.Mu = mu
	} else if cfg.TA != nil {
		res.Mu = cfg.TA.Mu
	}

	var lm *layout.Manager
	if cfg.PL != nil {
		lm, err = layout.New(cfg.Geometry, *cfg.PL)
		if err != nil {
			return nil, err
		}
		ccfg.Layout = lm
	}
	// One streaming pass validates every record (the semantic checks
	// the codec leaves to the simulator, matching the in-memory path's
	// Validate plus page-range scan) and feeds the warm-up prefix to
	// the layout manager; the same cursor, rewound, then feeds the
	// simulated pass without allocating.
	cur := fr.Cursor()
	if err := validateAndWarmFile(cur, sum, cfg, lm); err != nil {
		return nil, err
	}
	cur.Rewind()

	eng := sim.New()
	if cfg.HeapScheduler {
		eng = sim.NewWithHeap()
	}
	ctl, err := controller.New(eng, ccfg)
	if err != nil {
		return nil, err
	}

	feeder := &fileFeeder{ctl: ctl, cur: cur}
	eng.SetFeeder(feeder)
	traceEnd := sim.Time(sum.Duration)
	if lm != nil {
		scheduleRebalances(eng, ctl, lm, traceEnd)
	}
	if err := eng.RunContext(ctx); err != nil {
		return nil, err
	}
	if err := cur.Err(); err != nil {
		return nil, fmt.Errorf("core: streaming %s: %w", cfg.TraceFile, err)
	}

	window := cfg.MeterWindow
	if window == 0 {
		window = sum.Duration + 2*sim.Millisecond
	}
	end := ctl.Finish(sim.Time(window))
	res.Report = ctl.Report(cfg.Scheme, end)
	if lm != nil {
		res.MigratedPages = lm.MigratedPages
		res.MigrationEnergyJ = lm.MigrationEnergyJ
		res.Rebalances = lm.Rebalances
	}
	return res, nil
}

// validateAndWarmFile streams the container once through cur,
// applying the same semantic checks — with the same error wording AND
// the same precedence — the in-memory path applies before a run, and
// feeding the first WarmupFraction of the records' DMA references to
// the layout manager exactly as warmup does.
//
// Precedence matters for error-string parity: the in-memory path runs
// all of trace.Validate (zero-page DMAs, negative pages, on every
// record) before its page-range scan, so a malformed record anywhere
// in the trace wins over a range violation earlier in it. The single
// streaming pass reproduces that by returning trace-level errors
// immediately and holding the first range error until the scan ends.
// The codec already enforces time order and kind validity.
func validateAndWarmFile(cur *trace.Cursor, sum trace.FileSummary, cfg Config, lm *layout.Manager) error {
	maxPage := memsys.PageID(cfg.Geometry.TotalPages())
	warm := int64(0)
	if lm != nil {
		warm = warmupCount(cfg.WarmupFraction, sum.Records)
	}
	var rangeErr error
	for i := int64(0); ; i++ {
		r, ok := cur.Next()
		if !ok {
			break
		}
		end := r.Page
		if r.Kind.IsDMA() {
			if r.Pages == 0 {
				return fmt.Errorf("trace %q: record %d is a zero-page DMA", sum.Name, i)
			}
			end += memsys.PageID(r.Pages)
		} else {
			end++
		}
		if r.Page < 0 {
			return fmt.Errorf("trace %q: record %d has negative page", sum.Name, i)
		}
		if rangeErr == nil && end > maxPage {
			rangeErr = fmt.Errorf("core: record %d touches pages [%d,%d) outside memory of %d pages",
				i, r.Page, end, maxPage)
		}
		if i < warm && r.Kind.IsDMA() {
			for p := 0; p < int(r.Pages); p++ {
				lm.Observe(r.Page + memsys.PageID(p))
			}
		}
	}
	if err := cur.Err(); err != nil {
		return err
	}
	if rangeErr != nil {
		return rangeErr
	}
	if lm != nil {
		lm.Rebalance(nil)
		lm.ResetCosts()
	}
	return nil
}

// fileFeeder is traceFeeder over a .dmt cursor: the engine's run loop
// pulls arrival batches straight from the file's chunk stream, so
// arrivals bypass the scheduler and only the cursor's raw chunk and
// decoded window are resident. Dispatch order and same-instant
// priority match the in-memory feeder exactly, so the simulation is
// bit-identical.
//
// A corrupted container surfaces as an exhausted cursor mid-run; the
// caller checks cur.Err after the engine stops (a feeder has no error
// channel of its own).
type fileFeeder struct {
	ctl    *controller.Controller
	cur    *trace.Cursor
	nextID int64
}

func (f *fileFeeder) Peek() (sim.Time, int8, bool) {
	r, ok := f.cur.Peek()
	if !ok {
		return 0, 0, false
	}
	return r.Time, feederPrio, true
}

func (f *fileFeeder) Fire(e *sim.Engine) {
	now := e.Now()
	for {
		r, ok := f.cur.Peek()
		if !ok || r.Time != now {
			return
		}
		f.cur.Advance()
		if r.Kind.IsDMA() {
			f.ctl.StartTransfer(dma.FromRecord(f.nextID, r))
			f.nextID++
		} else {
			f.ctl.ProcAccess(r.Page)
		}
	}
}
