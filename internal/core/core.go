// Package core assembles the full simulator: it feeds a memory-access
// trace through the controller, schedules popularity-based layout
// rebalances, derives the DMA-TA slack parameter mu from a CP-Limit,
// and produces the evaluation's reports.
package core

import (
	"context"
	"fmt"
	"runtime"

	"dmamem/internal/bus"
	"dmamem/internal/controller"
	"dmamem/internal/dma"
	"dmamem/internal/energy"
	"dmamem/internal/layout"
	"dmamem/internal/memsys"
	"dmamem/internal/metrics"
	"dmamem/internal/policy"
	"dmamem/internal/sim"
	"dmamem/internal/synth"
	"dmamem/internal/trace"
)

// Config selects what to simulate. The zero value plus a trace gives
// the paper's baseline: 32-chip RDRAM, three PCI-X buses, the dynamic
// threshold policy, interleaved layout, no DMA-aware techniques.
type Config struct {
	// Geometry of the memory system; zero means memsys.Default().
	Geometry memsys.Geometry
	// Topology optionally groups the chips into independently clocked
	// DDR-style channels with channel-interleaved page mapping. The
	// zero value is the legacy single-channel behavior, bit-identical
	// to builds that predate the field.
	Topology memsys.Topology
	// Buses of the I/O subsystem; zero means bus.DefaultConfig().
	Buses bus.Config
	// Policy is the low-level power manager; nil means the dynamic
	// threshold policy (the paper's baseline).
	Policy policy.Policy
	// TA enables temporal alignment. If TA.Mu is zero and CPLimit is
	// set, Mu is derived from the trace calibration.
	TA *controller.TAConfig
	// CPLimit is the client-perceived response-time degradation bound
	// used to derive Mu (e.g. 0.10 for the paper's 10%).
	CPLimit float64
	// PL enables popularity-based layout.
	PL *layout.Config
	// Mapper overrides the static baseline layout (nil = interleaved).
	// Ignored when PL is set.
	Mapper memsys.Mapper
	// Tech selects the memory technology by registry name ("rdram",
	// "ddr400", "ddr3-1600", "ddr4-2400", "lpddr4", or an alias).
	// Empty means the registry default (the paper's RDRAM part).
	// Unknown names error loudly, listing the registered technologies.
	// When the geometry is defaulted, the chip bandwidth follows the
	// resolved model.
	Tech string
	// MeterWindow fixes the energy metering window; zero means the
	// trace duration plus 2 ms of drain. Comparisons between schemes
	// must use equal windows.
	MeterWindow sim.Duration
	// WarmupFraction of the trace feeds the layout manager's counters
	// before the metered run, modelling a server whose layout reached
	// popularity steady state long before the measured window (a trace
	// covers milliseconds of a server that has been running for days,
	// so the counters have seen the popularity distribution many times
	// over). The warm-up rebalance is uncharged; in-run rebalances and
	// their migrations are charged in full. Default 1.0 (two-pass).
	WarmupFraction float64
	// Scheme labels the report; empty derives "baseline"/"dma-ta"/
	// "dma-ta-pl" from TA and PL.
	Scheme string
	// TraceFile streams the trace from a .dmt container on disk instead
	// of an in-memory trace: pass a nil trace to Run/RunContext and set
	// this path. Records are decoded chunk by chunk (bounded memory
	// regardless of trace length) and the report is bit-identical to
	// running the same records from memory. Mutually exclusive with a
	// non-nil trace.
	TraceFile string
}

// withDefaults resolves the technology model and returns a fully
// populated copy.
func (c Config) withDefaults() (Config, *energy.Model, error) {
	model, err := energy.Lookup(c.Tech)
	if err != nil {
		return c, nil, err
	}
	if c.Geometry == (memsys.Geometry{}) {
		c.Geometry = memsys.Default()
		c.Geometry.ChipBandwidth = model.Bandwidth
	}
	if c.Buses == (bus.Config{}) {
		c.Buses = bus.DefaultConfig()
	}
	if c.Policy == nil {
		// The technology's calibrated demotion chain; for the RDRAM
		// default, the evaluation's baseline dynamic policy.
		c.Policy = policy.ChainFor(model)
	}
	if c.WarmupFraction == 0 {
		c.WarmupFraction = 1.0
	}
	if c.Scheme == "" {
		switch {
		case c.TA != nil && c.PL != nil:
			c.Scheme = "dma-ta-pl"
		case c.TA != nil:
			c.Scheme = "dma-ta"
		default:
			c.Scheme = "baseline"
		}
	}
	return c, model, nil
}

// Result is the outcome of a run.
type Result struct {
	Report *metrics.Report
	// Calibration used for the CP-Limit transform (zero-valued when
	// no TA or no CP-Limit was requested).
	Calibration metrics.Calibration
	// Mu actually used by DMA-TA.
	Mu float64
	// LayoutStats when PL ran.
	MigratedPages    int64
	MigrationEnergyJ float64
	Rebalances       int64
}

// SimEvents returns the number of simulation events the run
// dispatched; the experiment runner uses it for events/sec throughput
// reporting.
func (r *Result) SimEvents() uint64 {
	if r == nil || r.Report == nil {
		return 0
	}
	return r.Report.Events
}

// calibrate derives the CP-Limit -> mu calibration of a trace: the
// client response time and critical-path transfer count from the
// trace's metadata (with documented fallbacks for bare traces) and the
// mean DMA-memory requests per transfer from the DMA totals the
// pre-run pass counted over the records.
func calibrate(meta trace.Meta, tot totals, geo memsys.Geometry, buses bus.Config) metrics.Calibration {
	var meanTransferPages float64
	if tot.dmaTransfers > 0 {
		meanTransferPages = float64(tot.dmaPages) / float64(tot.dmaTransfers)
	}
	cal := metrics.Calibration{
		MeanClientResponse:      meta.MeanClientResponse,
		TransfersPerRequest:     meta.TransfersPerClientRequest,
		MeanRequestsPerTransfer: meanTransferPages * float64(geo.PageBytes) / memsys.RequestBytes,
		T:                       buses.BeatGap(),
		// Off-line measured transform factor (Section 5.1): half the
		// analytic budget absorbs the queueing and wake amplification
		// between request-level slack and client-perceived time.
		SafetyFactor: 0.5,
	}
	if cal.MeanClientResponse <= 0 {
		// Bare trace: assume a typical data-server client response of
		// 500 us (SAN round trip plus service).
		cal.MeanClientResponse = 500 * sim.Microsecond
	}
	if cal.TransfersPerRequest <= 0 {
		cal.TransfersPerRequest = 1
	}
	if cal.MeanRequestsPerTransfer <= 0 {
		cal.MeanRequestsPerTransfer = float64(geo.PageBytes) / memsys.RequestBytes
	}
	return cal
}

// Run simulates one configuration over a trace.
func Run(cfg Config, tr *trace.Trace) (*Result, error) {
	return RunContext(context.Background(), cfg, tr)
}

// RunContext is Run with cancellation: the engine polls ctx every few
// thousand dispatches, so a cancelled context aborts a simulation
// mid-run within microseconds of wall time. A run that is never
// cancelled is bit-identical to Run.
//
// The trace may be nil when cfg.TraceFile names a .dmt container: the
// records then stream from disk in bounded memory with a report
// bit-identical to running the same records from memory. Either way
// the run reads its records through one trace.Cursor, twice: a
// validation, warm-up and calibration pass, then, rewound, the
// simulated pass.
func RunContext(ctx context.Context, cfg Config, tr *trace.Trace) (*Result, error) {
	if tr == nil && cfg.TraceFile == "" {
		return nil, fmt.Errorf("core: nil trace and no Config.TraceFile to stream from")
	}
	if tr != nil && cfg.TraceFile != "" {
		return nil, fmt.Errorf("core: both an in-memory trace %q and Config.TraceFile %q given; pass one",
			tr.Name, cfg.TraceFile)
	}
	cfg, model, err := cfg.withDefaults()
	if err != nil {
		return nil, err
	}
	if err := validateWarmupFraction(cfg.WarmupFraction); err != nil {
		return nil, err
	}
	src, err := openSource(cfg.TraceFile, tr)
	if err != nil {
		return nil, err
	}
	defer src.close()
	if src.records == 0 {
		return nil, fmt.Errorf("core: empty trace %q", src.name)
	}

	var lm *layout.Manager
	if cfg.PL != nil {
		if lm, err = layout.New(cfg.Geometry, *cfg.PL, model); err != nil {
			return nil, err
		}
	}
	tot, err := scan(src, cfg, lm)
	if err != nil {
		return nil, err
	}
	src.cur.Rewind()

	res := &Result{}
	ccfg := controller.Config{
		Geometry:     cfg.Geometry,
		Topology:     cfg.Topology,
		Buses:        cfg.Buses,
		Policy:       cfg.Policy,
		TA:           cfg.TA,
		Mapper:       cfg.Mapper,
		Model:        model,
		InitialState: 0, // Active; the policy idles chips down immediately
		Layout:       lm,
	}
	if cfg.TA != nil && cfg.TA.Mu == 0 && cfg.CPLimit > 0 {
		cal := calibrate(src.meta, tot, cfg.Geometry, cfg.Buses)
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

	eng := sim.New()
	ctl, err := controller.New(eng, ccfg)
	if err != nil {
		return nil, err
	}
	eng.SetFeeder(&feeder{ctl: ctl, cur: src.cur})
	if lm != nil {
		scheduleRebalances(eng, ctl, lm, tot.last)
	}
	if err := eng.RunContext(ctx); err != nil {
		return nil, err
	}
	if err := src.cur.Err(); err != nil {
		return nil, fmt.Errorf("core: streaming %s: %w", cfg.TraceFile, err)
	}

	window := cfg.MeterWindow
	if window == 0 {
		window = sim.Duration(tot.last) + 2*sim.Millisecond
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

// source is a run's trace: a cursor over its records plus what the
// run needs to know before streaming them.
type source struct {
	cur     *trace.Cursor
	name    string
	meta    trace.Meta
	records int64
	close   func() error
}

// openSource returns the source of a run: a cursor over the in-memory
// records, or over the .dmt container at path when tr is nil.
func openSource(path string, tr *trace.Trace) (*source, error) {
	if tr != nil {
		return &source{cur: tr.Cursor(), name: tr.Name, meta: tr.Meta,
			records: int64(len(tr.Records)), close: func() error { return nil }}, nil
	}
	fr, err := trace.OpenDMTFile(path)
	if err != nil {
		return nil, err
	}
	sum := fr.Summary()
	return &source{cur: fr.Cursor(), name: sum.Name, meta: sum.Meta,
		records: sum.Records, close: fr.Close}, nil
}

// validateWarmupFraction rejects fractions outside (0, 1] loudly,
// after defaulting (zero has already become 1.0).
func validateWarmupFraction(fraction float64) error {
	if !(fraction > 0 && fraction <= 1) {
		return fmt.Errorf("core: WarmupFraction %g outside (0, 1]", fraction)
	}
	return nil
}

// totals is what the pre-run pass learns about a trace's records.
type totals struct {
	dmaTransfers, dmaPages int64    // CP-Limit calibration inputs
	last                   sim.Time // the last record's time: the trace's span
}

// scan is the pre-run pass over a source. It checks every record
// (trace.CheckRecord's rules, then pages inside memory), totals the DMA
// transfers and pages calibration uses, and feeds the DMA references
// of the first WarmupFraction of the records to the layout manager, if
// any. It then installs the resulting layout without charging its
// cost, so the measured window starts from popularity steady state.
//
// Trace-level errors return at once; the first page-range error is
// held until the pass ends, so a malformed record anywhere in the
// trace wins over a range violation earlier in it.
func scan(src *source, cfg Config, lm *layout.Manager) (totals, error) {
	maxPage := memsys.PageID(cfg.Geometry.TotalPages())
	var warm int64
	if lm != nil {
		warm = int64(cfg.WarmupFraction * float64(src.records))
	}
	var tot totals
	var rangeErr error
	for i := int64(0); ; i++ {
		r, ok := src.cur.Next()
		if !ok {
			break
		}
		if err := trace.CheckRecord(src.name, i, tot.last, r); err != nil {
			return tot, err
		}
		tot.last = r.Time
		end := r.Page + 1
		if r.Kind.IsDMA() {
			end = r.Page + memsys.PageID(r.Pages)
			tot.dmaTransfers++
			tot.dmaPages += int64(r.Pages)
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
	if err := src.cur.Err(); err != nil {
		return tot, err
	}
	if rangeErr != nil {
		return tot, rangeErr
	}
	if lm != nil {
		lm.Rebalance(nil)
		lm.ResetCosts()
	}
	return tot, nil
}

// feeder is the run's arrival source: the engine's run loop pulls
// arrival batches straight from the trace cursor (see sim.Feeder), so
// arrivals never pass through the scheduler and, for a .dmt container,
// only the cursor's raw chunk and decoded window are resident. It
// reports feederPrio as its same-instant priority, which is reserved
// for trace arrivals across the whole simulator — transfer completions
// (priority 0) at the same instant are observed first, policy and
// epoch timers (priorities 2+) after.
//
// A corrupted container surfaces as an exhausted cursor mid-run; the
// caller checks the cursor's Err after the engine stops (a feeder has
// no error channel of its own).
type feeder struct {
	ctl    *controller.Controller
	cur    *trace.Cursor
	nextID int64
}

// feederPrio is the same-instant dispatch priority of trace arrivals.
// No other event source uses it.
const feederPrio = 1

func (f *feeder) Peek() (sim.Time, int8, bool) {
	r, ok := f.cur.Peek()
	if !ok {
		return 0, 0, false
	}
	return r.Time, feederPrio, true
}

func (f *feeder) Fire(e *sim.Engine) {
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

// scheduleRebalances arms the PL interval timer up to the end of the
// trace.
func scheduleRebalances(eng *sim.Engine, ctl *controller.Controller, lm *layout.Manager, end sim.Time) {
	interval := lm.Interval()
	var busy []bool
	isBusy := func(p memsys.PageID) bool { return busy[p] }
	var tick func(e *sim.Engine)
	tick = func(e *sim.Engine) {
		busy = ctl.ActivePages()
		lm.Rebalance(isBusy)
		next := e.Now().Add(interval)
		if next <= end {
			eng.SchedulePrio(next, 5, tick)
		}
	}
	first := sim.Time(interval)
	if first <= end {
		eng.SchedulePrio(first, 5, tick)
	}
}

// pairWindow derives the shared metering window for a baseline/
// technique pair: the trace duration plus 2 ms of drain, read from the
// in-memory trace or — when tr is nil and the configs stream from disk
// — from the .dmt footer of the baseline config's TraceFile (the pair
// must replay the same container, so either footer serves).
func pairWindow(base Config, tr *trace.Trace) (sim.Duration, error) {
	if tr != nil {
		return tr.Duration() + 2*sim.Millisecond, nil
	}
	if base.TraceFile == "" {
		return 0, fmt.Errorf("core: nil trace and no Config.TraceFile to stream from")
	}
	fr, err := trace.OpenDMTFile(base.TraceFile)
	if err != nil {
		return 0, err
	}
	defer fr.Close()
	return fr.Summary().Duration + 2*sim.Millisecond, nil
}

// RunPair runs the same trace under a baseline config and a technique
// config with a shared metering window, returning both results plus
// the fractional savings. The trace may be nil when both configs name
// the same .dmt container in TraceFile.
//
// The two runs are independent simulations over a read-only trace, so
// when runtime.GOMAXPROCS(0) > 1 the technique runs on a second
// goroutine while the baseline runs on the caller's; otherwise they
// run one after the other. Each simulation still owns its own
// single-goroutine engine (see internal/sim), so the results are
// bit-identical either way. The baseline's error wins over the
// technique's. Cancellation is observed mid-run: the engines poll ctx
// every few thousand dispatches.
func RunPair(ctx context.Context, base, tech Config, tr *trace.Trace) (b, t *Result, savings float64, err error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err = ctx.Err(); err != nil {
		return nil, nil, 0, err
	}
	window, err := pairWindow(base, tr)
	if err != nil {
		return nil, nil, 0, err
	}
	base.MeterWindow = window
	tech.MeterWindow = window
	var baseErr, techErr error
	if runtime.GOMAXPROCS(0) > 1 {
		done := make(chan struct{})
		go func() {
			defer close(done)
			t, techErr = RunContext(ctx, tech, tr)
		}()
		b, baseErr = RunContext(ctx, base, tr)
		<-done
	} else if b, baseErr = RunContext(ctx, base, tr); baseErr == nil {
		t, techErr = RunContext(ctx, tech, tr)
	}
	if baseErr != nil {
		return nil, nil, 0, baseErr
	}
	if techErr != nil {
		return nil, nil, 0, techErr
	}
	return b, t, t.Report.Savings(b.Report), nil
}

// Workload is a named trace bundle used by the experiments.
type Workload struct {
	Name  string
	Trace *trace.Trace
}

// SyntheticStWorkload builds the Synthetic-St trace with the paper's
// defaults over the given duration.
func SyntheticStWorkload(d sim.Duration, seed uint64) (*Workload, error) {
	cfg := synth.DefaultSt()
	cfg.Duration = d
	cfg.Seed = seed
	tr, err := synth.GenerateSt(cfg)
	if err != nil {
		return nil, err
	}
	return &Workload{Name: "Synthetic-St", Trace: tr}, nil
}

// SyntheticDbWorkload builds the Synthetic-Db trace with the paper's
// defaults over the given duration.
func SyntheticDbWorkload(d sim.Duration, seed uint64) (*Workload, error) {
	cfg := synth.DefaultDb()
	cfg.St.Duration = d
	cfg.St.Seed = seed
	tr, err := synth.GenerateDb(cfg)
	if err != nil {
		return nil, err
	}
	return &Workload{Name: "Synthetic-Db", Trace: tr}, nil
}
