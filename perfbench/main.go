// Command perfbench is the repository benchmark. It drives the
// simulator only through its public surface: the root dmamem package,
// called in-process, and the dmamem-serve daemon, built from source
// and driven over HTTP. See README.md for the workloads, the metrics
// and how to run it.
//
//	perfbench --workload oltp-st-gen --seed 1 --seconds 15 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. With --trace 0 the metrics
// are the end-to-end ones; with --trace 1 they are the per-layer ones,
// and the spans and a CPU profile are written under the build
// directory.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

type options struct {
	workload  string
	seed      uint64
	seconds   int
	trace     bool
	root      string // checkout root: the dmamem module
	build     string // build outputs, spans and profiles
	recordRef bool
}

// workloads in the order -workload all runs them.
var workloadNames = []string{"oltp-st-gen", "fig8-saturated", "oltp-db-replay", "serve-mix"}

// setupRuns is how many times a run repeats its set-up; setup_s is
// their median.
const setupRuns = 3

// measurement is what one workload run produces.
type measurement struct {
	setups []float64 // host seconds of each set-up
	walls  []float64 // host seconds of each untraced timed iteration
	// tracedWalls are the traced iterations of a --trace 1 run.
	tracedWalls []float64
	jobs        []float64 // host seconds of each job in untraced iterations
	// rss is the process's peak resident memory (MB) during each timed
	// iteration; peak_rss_mb is their median.
	rss   []float64
	layer map[string]float64 // per-layer metrics (traced runs)
	tally tally
	spans []Span
	cal   calibration
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// metricDef is one catalogue entry. BENCHMARK.json lists the same
// names and units.
type metricDef struct {
	name, unit string
	// host is the power of host time in the metric: 1 for a host
	// duration, -1 for a host rate, 0 for everything else (simulated
	// time, counts, sizes, ratios). It says how calibration scales it.
	host int
}

var endToEnd = []metricDef{
	{"wall_s", "s", 1},
	{"setup_s", "s", 1},
	{"peak_rss_mb", "MB", 0},
	{"job_p50_ms", "ms", 1},
	{"job_p95_ms", "ms", 1},
	{"jobs_per_s", "1/s", -1},
}

var perLayer = []metricDef{
	{"gen_s", "s", 1},
	{"gen_ns_per_record", "ns", 1},
	{"dmt_write_s", "s", 1},
	{"dmt_decode_s", "s", 1},
	{"dmt_bytes_per_record", "B", 0},
	{"simulate_s", "s", 1},
	{"events", "count", 0},
	{"sim_ns_per_event", "ns", 1},
	{"transfers", "count", 0},
	{"wakes", "count", 0},
	{"migrated_pages", "count", 0},
	{"uf", "ratio", 0},
	{"mean_gather_us", "us", 0}, // simulated time
	{"savings", "ratio", 0},
	{"hit_ms_p50", "ms", 1},
	{"miss_ms_p50", "ms", 1},
	{"queue_wait_ms_p50", "ms", 1},
	{"cache_hit_ratio", "ratio", 0},
	{"runs", "count", 0},
	{"trace_overhead_s", "s", 1},
	{"failed_frac", "ratio", 0},
	{"host_speed", "ratio", 0},
}

// scaled returns a metric's raw value scaled to the reference host
// speed (see calibrate.go).
func (d metricDef) scaled(raw, speed float64) float64 {
	return raw * math.Pow(speed, float64(d.host))
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames, ", ")+", or all")
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "input seed; reference values are checked only at the default")
	fs.IntVar(&o.seconds, "seconds", 15, "run length: sets the number of timed iterations, about this many seconds at the seed commit")
	traceFlag := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	fs.StringVar(&o.root, "root", ".", "checkout root holding the dmamem module")
	fs.StringVar(&o.build, "build", ".bench_build", "directory for binaries, spans and profiles")
	fs.BoolVar(&o.recordRef, "record-reference", false, "rewrite reference.json from this run (default seed only)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *traceFlag)
	}
	o.trace = *traceFlag == 1
	if o.seconds < 1 {
		return fmt.Errorf("-seconds %d: want at least 1", o.seconds)
	}
	if _, err := os.Stat(filepath.Join(o.root, "go.mod")); err != nil {
		return fmt.Errorf("-root %s is not the dmamem checkout: %w", o.root, err)
	}
	var err error
	if o.build, err = filepath.Abs(o.build); err != nil {
		return err
	}
	if err := os.MkdirAll(o.build, 0o755); err != nil {
		return err
	}

	if o.workload == "all" {
		return runAll(o, stdout, stderr)
	}
	res, err := runWorkload(o, stderr)
	if err != nil {
		return err
	}
	return json.NewEncoder(stdout).Encode(res)
}

// runWorkload runs one workload and assembles its result line.
func runWorkload(o options, stderr io.Writer) (result, error) {
	var (
		m   *measurement
		err error
	)
	switch o.workload {
	case "oltp-st-gen", "fig8-saturated", "oltp-db-replay":
		m, err = runSim(o, stderr)
	case "serve-mix":
		m, err = runServe(o)
	default:
		return result{}, fmt.Errorf("unknown -workload %q (want %s or all)", o.workload, strings.Join(workloadNames, ", "))
	}
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", o.workload, err)
	}
	if m.tally.firstErr != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %d of %d operations failed; first: %v\n",
			o.workload, m.tally.failed, m.tally.attempted, m.tally.firstErr)
	}
	speed := m.cal.speed()
	res := result{
		Correct:   m.tally.failed == 0,
		Attempted: m.tally.attempted,
		Failed:    m.tally.failed,
		Metrics:   map[string]metric{},
	}
	raw, defs := map[string]float64{}, endToEnd
	if o.trace {
		if len(m.spans) > 0 {
			if err := os.MkdirAll(filepath.Join(o.build, "out"), 0o755); err != nil {
				return result{}, err
			}
			path := filepath.Join(o.build, "out", fmt.Sprintf("%s-seed%d.spans.json", o.workload, o.seed))
			if err := writeSpans(path, m.spans); err != nil {
				return result{}, err
			}
			fmt.Fprintf(stderr, "perfbench: %s: %d spans written to %s\n", o.workload, len(m.spans), path)
			printSelfTimes(stderr, m.spans)
		}
		raw, defs = m.layer, perLayer
		raw["failed_frac"] = m.tally.failedFrac()
		raw["trace_overhead_s"] = median(m.tracedWalls) - median(m.walls)
		raw["host_speed"] = speed
	} else {
		p95, pct := tailPercentile(m.jobs)
		raw["wall_s"] = median(m.walls)
		raw["setup_s"] = median(m.setups)
		raw["peak_rss_mb"] = median(m.rss)
		raw["job_p50_ms"] = 1e3 * median(m.jobs)
		raw["job_p95_ms"] = 1e3 * p95
		raw["jobs_per_s"] = float64(len(m.jobs)) / sum(m.walls)
		fmt.Fprintf(stderr, "perfbench: %s: %d timed iterations, %d jobs (tail = p%.1f of %d), %d set-ups, failed_frac %g, host_speed %.4f\n",
			o.workload, len(m.walls), len(m.jobs), pct, len(m.jobs), len(m.setups), m.tally.failedFrac(), speed)
	}
	rawMetrics := map[string]metric{}
	for _, d := range defs {
		rawMetrics[d.name] = metric{raw[d.name], d.unit}
		res.Metrics[d.name] = metric{finite(d.scaled(raw[d.name], speed)), d.unit}
	}
	printMetrics(stderr, o.workload+" raw", rawMetrics)
	printMetrics(stderr, o.workload, res.Metrics)
	return res, nil
}

// runAll runs every workload in turn and prints one table of all their
// metrics, then a combined result line keyed workload.metric.
func runAll(o options, stdout, stderr io.Writer) error {
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, w := range workloadNames {
		o.workload = w
		res, err := runWorkload(o, stderr)
		if err != nil {
			return err
		}
		printMetrics(stdout, w, res.Metrics)
		all.Correct = all.Correct && res.Correct
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for k, v := range res.Metrics {
			all.Metrics[w+"."+k] = v
		}
	}
	return json.NewEncoder(stdout).Encode(all)
}

func printMetrics(w io.Writer, workload string, ms map[string]metric) {
	names := make([]string, 0, len(ms))
	for k := range ms {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "%-20s %-22s %14.6g %s\n", workload, k, ms[k].Value, ms[k].Unit)
	}
}

func printSelfTimes(w io.Writer, spans []Span) {
	self := selfByName(spans)
	count := map[string]int{}
	for _, s := range spans {
		count[s.Name]++
	}
	names := make([]string, 0, len(self))
	for k := range self {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Fprintf(w, "  self %-28s %10.4f s over %d spans\n", k, self[k], count[k])
	}
}

func sum(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s
}

// finite maps a metric that has no samples (NaN) to 0, so the result
// line stays valid JSON.
func finite(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	return x
}

// settle returns freed memory to the OS and restarts the process's
// peak-RSS counter, so the next peakRSSMB covers only what follows.
func settle() error {
	runtime.GC()
	debug.FreeOSMemory()
	return resetPeakRSS(os.Getpid())
}

// peakRSSMB reads a process's peak resident set size (VmHWM) in MB.
func peakRSSMB(pid string) (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// inputSeed derives a generator seed from the benchmark seed and a
// per-use salt (splitmix64), kept in [1, 2^31) so every generator and
// the service's JSON treat it as an explicit seed.
func inputSeed(seed, salt uint64) uint64 {
	z := seed*0x9e3779b97f4a7c15 + salt + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return z%(1<<31-1) + 1
}
