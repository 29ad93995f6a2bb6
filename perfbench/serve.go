package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// serve-mix: dmamem-serve on loopback with its default flags, driven by
// a closed loop of one client per CPU. Each round submits the 12 Table 2
// report configs (4 workloads x 3 schemes) at a fresh trace seed, which
// miss the result cache, plus repeatsPerRound configs drawn from recent
// rounds, which hit it. A round ends when its last job's result is back.
var (
	serveWorkloads = []string{"OLTP-St", "Synthetic-St", "OLTP-Db", "Synthetic-Db"}
	serveSchemes   = []string{"baseline", "dma-ta", "dma-ta-pl"}
)

// repeatsPerRound makes hits two thirds of the submissions. The median
// job then sits well inside the hit distribution (near its 75th
// percentile) instead of on the boundary between hits and misses, where
// it would jump between the two from run to run. At three fifths the
// median sat in the hits' steep tail and varied by 14% between seeds;
// at two thirds, by 6%.
const repeatsPerRound = 24

// repeatWindow is how many recent rounds repeats are drawn from. The
// daemon's default result cache holds 256 results (LRU); 8 rounds are
// 96 configs, so every repeat is still cached and hits.
const repeatWindow = 8

// roundsPerSecond is timed rounds per second of --seconds; the count
// is fixed so every run has the same job mix and the same tail rank.
const roundsPerSecond = 2

// calibrateEvery is how many rounds pass between host-speed samples.
const calibrateEvery = 2

type serveConfig struct {
	Workload string
	Scheme   string
	Seed     uint64
}

// jobRecord is one job as the client saw it. Times are host times at
// which the client sent the submission, got the submission's answer,
// received the "running" and terminal events, and finished reading the
// result body.
type jobRecord struct {
	cfg                                serveConfig
	t0, submitted, running, done, tEnd time.Time
	id, hash                           string
	statusCached                       bool
	hit                                bool
	body                               []byte
	err                                error
}

func (j *jobRecord) latency() float64 { return j.tEnd.Sub(j.t0).Seconds() }

// serveReport is the part of the daemon's report JSON the checks and
// model counts read. Energy is indexed by category, in the order
// serving, idle-DMA, idle-threshold, transition, low-power, migration,
// processor-serving.
type serveReport struct {
	Energy            []float64
	StateEnergy       []float64
	UtilizationFactor float64
	Transfers         int64
	MeanGatherDelay   float64 // picoseconds
	Wakes             int64
	Migrations        int64
	Events            int64
}

const (
	catTransition = 3
	catMigration  = 5
	numCategories = 7
)

func (r serveReport) total() float64 { return sum(r.Energy) }

type daemon struct {
	cmd     *exec.Cmd
	base    string // http://host:port
	drained chan struct{}
}

type serveRun struct {
	refs    *refChecker
	refSeed uint64 // trace seed of the warm-up round, the one the reference pins
	d       *daemon
	first   map[string][]byte // result body by hash, as first seen
	reports map[string]serveReport
	all     []*jobRecord // every job, warm-up included
	m       measurement
}

func runServe(o options) (m *measurement, err error) {
	refs, err := newRefChecker(o)
	if err != nil {
		return nil, err
	}
	r := &serveRun{refs: refs, refSeed: inputSeed(o.seed, 100),
		first: map[string][]byte{}, reports: map[string]serveReport{}}
	defer func() {
		if r.d != nil {
			err = errors.Join(err, r.d.stop())
		}
	}()
	r.m.cal.sample()
	for i := 0; i < setupRuns; i++ {
		t0 := time.Now()
		if r.d, err = startDaemon(o); err != nil {
			return nil, err
		}
		r.m.setups = append(r.m.setups, time.Since(t0).Seconds())
		if i < setupRuns-1 {
			err, r.d = r.d.stop(), nil
			if err != nil {
				return nil, err
			}
		}
	}

	clients := make([]*http.Client, runtime.NumCPU())
	for i := range clients {
		clients[i] = &http.Client{
			Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true},
			Timeout:   2 * time.Minute,
		}
		defer clients[i].CloseIdleConnections()
	}
	rng := rand.New(rand.NewSource(int64(inputSeed(o.seed, 99))))
	var pool []serveConfig // fresh configs of the last repeatWindow rounds
	round := func(i int) []serveConfig {
		var jobs []serveConfig
		seed := inputSeed(o.seed, 100+uint64(i))
		for _, w := range serveWorkloads {
			for _, s := range serveSchemes {
				jobs = append(jobs, serveConfig{w, s, seed})
			}
		}
		if i > 0 {
			for k := 0; k < repeatsPerRound; k++ {
				jobs = append(jobs, pool[rng.Intn(len(pool))])
			}
		}
		fresh := len(serveWorkloads) * len(serveSchemes)
		pool = append(pool, jobs[:fresh]...)
		if len(pool) > repeatWindow*fresh {
			pool = pool[len(pool)-repeatWindow*fresh:]
		}
		rng.Shuffle(len(jobs), func(a, b int) { jobs[a], jobs[b] = jobs[b], jobs[a] })
		return jobs
	}

	// Round 0 fills the result cache so every timed round has the same
	// mix of hits and misses; it is checked but not timed.
	r.runRound(clients, round(0))
	pid := r.d.cmd.Process.Pid
	var rec *recorder
	if o.trace {
		rec = newRecorder()
	}
	var traced []*jobRecord
	rounds := max(2, o.seconds*roundsPerSecond)
	start := time.Now()
	for i := 1; i <= rounds && !overTime(o, start, i-1); i++ {
		if i%calibrateEvery == 1 {
			r.m.cal.sample()
		}
		jobs := round(i)
		if err := resetPeakRSS(pid); err != nil {
			return nil, err
		}
		t0 := time.Now()
		recs := r.runRound(clients, jobs)
		wall := time.Since(t0).Seconds()
		rss, err := peakRSSMB(strconv.Itoa(pid))
		if err != nil {
			return nil, err
		}
		r.m.rss = append(r.m.rss, rss)
		if o.trace && i%2 == 0 {
			r.m.tracedWalls = append(r.m.tracedWalls, wall)
			traced = append(traced, recs...)
			r.addSpans(rec, "round-"+strconv.Itoa(i), t0, recs)
			continue
		}
		r.m.walls = append(r.m.walls, wall)
		for _, j := range recs {
			r.m.jobs = append(r.m.jobs, j.latency())
		}
	}
	r.m.cal.sample()
	counters, err := r.counters(clients[0])
	r.m.tally.record(firstErr(err, func() error { return r.checkCounters(counters) }))
	if err := refs.writeRecorded(filepath.Join(o.root, "perfbench", "reference.json")); err != nil {
		return nil, err
	}
	if o.trace {
		r.m.spans = rec.snapshot()
		r.layerMetrics(traced, counters, len(r.m.tracedWalls))
	}
	return &r.m, nil
}

// runRound runs jobs through the closed loop, one goroutine per client,
// and returns once every job has finished. Each job is then checked.
func (r *serveRun) runRound(clients []*http.Client, jobs []serveConfig) []*jobRecord {
	recs := make([]*jobRecord, len(jobs))
	var next atomic.Int64
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *http.Client) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(jobs) {
					return
				}
				recs[i] = runJob(c, r.d.base, jobs[i])
			}
		}(c)
	}
	wg.Wait()
	for _, j := range recs {
		r.m.tally.record(r.check(j))
		r.all = append(r.all, j)
	}
	return recs
}

// runJob submits one report job asynchronously, follows its event
// stream and fetches its result, all on the client's one keep-alive
// connection.
func runJob(c *http.Client, base string, cfg serveConfig) *jobRecord {
	j := &jobRecord{cfg: cfg, t0: time.Now()}
	body, _ := json.Marshal(cfg) // a struct of strings and an integer cannot fail
	var st struct {
		ID, Hash, Status string
		Cached           bool
	}
	if j.err = doJSON(c, "POST", base+"/v1/jobs", body, "submit", &st); j.err != nil {
		return j
	}
	j.submitted, j.id, j.statusCached = time.Now(), st.ID, st.Cached
	if j.err = followEvents(c, base+"/v1/jobs/"+st.ID+"/events", j); j.err != nil {
		return j
	}
	resp, err := c.Get(base + "/v1/jobs/" + st.ID + "/result")
	if err != nil {
		j.err = err
		return j
	}
	defer resp.Body.Close()
	j.body, err = io.ReadAll(resp.Body)
	j.tEnd = time.Now()
	j.err = errors.Join(err, statusError(resp, "result "+st.ID))
	j.hit = cacheHit(resp.Header)
	j.hash = resp.Header.Get("X-Dmamem-Hash")
	if j.err == nil && j.hash != st.Hash {
		j.err = fmt.Errorf("job %s: result hash %q, submission answered %q", st.ID, j.hash, st.Hash)
	}
	return j
}

// followEvents reads the job's NDJSON event stream to its terminal
// event, stamping when "running" and the terminal event arrived.
func followEvents(c *http.Client, url string, j *jobRecord) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := statusError(resp, "events "+j.id); err != nil {
		return err
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		var ev struct{ State, Detail string }
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("events %s: %w", j.id, err)
		}
		switch ev.State {
		case "running":
			j.running = time.Now()
		case "done":
			j.done = time.Now()
		case "failed", "canceled":
			return fmt.Errorf("job %s %s: %s", j.id, ev.State, ev.Detail)
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if j.done.IsZero() {
		return fmt.Errorf("events %s: stream ended before the job finished", j.id)
	}
	return nil
}

func doJSON(c *http.Client, method, url string, body []byte, what string, out any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if err := statusError(resp, what); err != nil {
		return fmt.Errorf("%w: %s", err, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, out)
}

// check runs the per-job output checks: the response was a success,
// the status and header agree on hit or miss, the report conserves
// energy, every body with one hash is byte-identical, and at the
// default seed the warm-up configs match the reference.
func (r *serveRun) check(j *jobRecord) error {
	if j.err != nil {
		return j.err
	}
	if j.hit != j.statusCached {
		return fmt.Errorf("job %s: X-Dmamem-Cache hit=%v but status Cached=%v", j.id, j.hit, j.statusCached)
	}
	if prev, ok := r.first[j.hash]; ok && !bytes.Equal(prev, j.body) {
		return fmt.Errorf("job %s: body differs from the first body with hash %s", j.id, j.hash)
	} else if !ok {
		r.first[j.hash] = j.body
	}
	var rep serveReport
	if err := json.Unmarshal(j.body, &rep); err != nil {
		return fmt.Errorf("job %s: report: %w", j.id, err)
	}
	if len(rep.Energy) != numCategories {
		return fmt.Errorf("job %s: %d energy categories, want %d", j.id, len(rep.Energy), numCategories)
	}
	what := fmt.Sprintf("job %s (%s/%s)", j.id, j.cfg.Workload, j.cfg.Scheme)
	if err := conservation(what, rep.StateEnergy, rep.Energy[catTransition], rep.Energy[catMigration], rep.total()); err != nil {
		return err
	}
	r.reports[j.hash] = rep
	if j.cfg.Seed == r.refSeed {
		return r.refs.check(j.cfg.Workload+"/"+j.cfg.Scheme, refValues{
			TechniqueEnergy: rep.total(), TechniqueUF: rep.UtilizationFactor, Transfers: rep.Transfers})
	}
	return nil
}

// counters reads the daemon's /v1/metrics counters.
func (r *serveRun) counters(c *http.Client) (map[string]float64, error) {
	resp, err := c.Get(r.d.base + "/v1/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if err := statusError(resp, "metrics"); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) == 2 && !strings.HasPrefix(f[0], "#") {
			if v, err := strconv.ParseFloat(f[1], 64); err == nil {
				out[f[0]] = v
			}
		}
	}
	return out, sc.Err()
}

// checkCounters holds the daemon's own accounting to the client's: it
// ran exactly the jobs the client saw miss the cache.
func (r *serveRun) checkCounters(c map[string]float64) error {
	misses := 0
	for _, j := range r.all {
		if !j.hit {
			misses++
		}
	}
	if got := c["dmamem_runs"]; got != float64(misses) {
		return fmt.Errorf("dmamem_runs = %v, client saw %d misses", got, misses)
	}
	return nil
}

// addSpans records one traced round: the round, each job, and the
// job's submit, queued, running and result phases as the client saw
// them (a cache hit has no queued or running phase).
func (r *serveRun) addSpans(rec *recorder, run string, t0 time.Time, recs []*jobRecord) {
	end := t0
	for _, j := range recs {
		if j.tEnd.After(end) {
			end = j.tEnd
		}
	}
	root := rec.add("workload", run, 0, t0, end)
	for _, j := range recs {
		if j.err != nil {
			continue
		}
		id := rec.add("job", j.id, root, j.t0, j.tEnd)
		rec.add("submit", j.id, id, j.t0, j.submitted)
		if !j.hit {
			rec.add("queued", j.id, id, j.submitted, j.running)
			rec.add("running", j.id, id, j.running, j.done)
		}
		rec.add("result", j.id, id, j.done, j.tEnd)
	}
}

// layerMetrics derives the service's per-layer metrics from the traced
// rounds, and the model counts from the reports of their misses,
// averaged per round.
func (r *serveRun) layerMetrics(traced []*jobRecord, counters map[string]float64, rounds int) {
	var hits, misses, waits []float64
	var running float64
	var c modelCounts
	var gathers []float64
	var ufs []float64
	for _, j := range traced {
		if j.err != nil {
			continue
		}
		if j.hit {
			hits = append(hits, j.latency())
			continue
		}
		misses = append(misses, j.latency())
		waits = append(waits, j.running.Sub(j.submitted).Seconds())
		running += j.done.Sub(j.running).Seconds()
		rep := r.reports[j.hash]
		c.events += rep.Events
		c.transfers += rep.Transfers
		c.wakes += rep.Wakes
		c.migrated += rep.Migrations
		ufs = append(ufs, rep.UtilizationFactor)
		if j.cfg.Scheme != "baseline" {
			gathers = append(gathers, rep.MeanGatherDelay/1e6)
		}
	}
	perRound := 1 / float64(rounds)
	l := map[string]float64{
		"hit_ms_p50":        1e3 * median(hits),
		"miss_ms_p50":       1e3 * median(misses),
		"queue_wait_ms_p50": 1e3 * median(waits),
		"simulate_s":        running * perRound,
		"events":            float64(c.events) * perRound,
		"sim_ns_per_event":  running * 1e9 / float64(c.events),
		"transfers":         float64(c.transfers) * perRound,
		"wakes":             float64(c.wakes) * perRound,
		"migrated_pages":    float64(c.migrated) * perRound,
		"uf":                mean(ufs),
		"mean_gather_us":    mean(gathers),
		"savings":           r.savings(),
		"runs":              counters["dmamem_runs"],
	}
	if done := counters["dmamem_jobs_completed"]; done > 0 {
		l["cache_hit_ratio"] = counters["dmamem_cache_hits"] / done
	}
	r.m.layer = l
}

// savings is the DMA-TA-PL energy saving over the baseline, summed over
// every (workload, seed) for which both reports came back.
func (r *serveRun) savings() float64 {
	type key struct {
		w    string
		seed uint64
	}
	energy := map[key]map[string]float64{}
	for _, j := range r.all {
		if j.err != nil {
			continue
		}
		k := key{j.cfg.Workload, j.cfg.Seed}
		if energy[k] == nil {
			energy[k] = map[string]float64{}
		}
		energy[k][j.cfg.Scheme] = r.reports[j.hash].total()
	}
	var base, tech float64
	for _, e := range energy {
		b, okB := e["baseline"]
		t, okT := e["dma-ta-pl"]
		if okB && okT {
			base += b
			tech += t
		}
	}
	return 1 - tech/base
}

// startDaemon builds dmamem-serve from the checkout and starts it on a
// loopback ephemeral port with otherwise default flags, returning once
// it answers its health probe.
func startDaemon(o options) (*daemon, error) {
	bin := filepath.Join(o.build, "dmamem-serve")
	build := exec.Command("go", "build", "-o", bin, "./cmd/dmamem-serve")
	build.Dir = o.root
	if out, err := build.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("building dmamem-serve: %w\n%s", err, out)
	}
	cmd := exec.Command(bin, "-listen", "127.0.0.1:0")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, drained: make(chan struct{})}
	addr := make(chan string, 1)
	go func() {
		defer close(d.drained)
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if a, ok := strings.CutPrefix(sc.Text(), "dmamem-serve: listening on "); ok {
				a, _, _ = strings.Cut(a, " ")
				addr <- a
			}
		}
	}()
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.drained:
		return nil, errors.Join(errors.New("dmamem-serve exited before listening"), d.stop())
	case <-time.After(30 * time.Second):
		return nil, errors.Join(errors.New("dmamem-serve did not report its address"), d.stop())
	}
	resp, err := http.Get(d.base + "/v1/healthz")
	if err == nil {
		resp.Body.Close()
		err = statusError(resp, "healthz")
	}
	if err != nil {
		return nil, errors.Join(err, d.stop())
	}
	return d, nil
}

// stop interrupts the daemon, which drains and exits 0, and waits for
// it; a daemon that does not exit within 15 s is killed.
func (d *daemon) stop() error {
	if err := d.cmd.Process.Signal(os.Interrupt); err != nil && !errors.Is(err, os.ErrProcessDone) {
		d.cmd.Process.Kill()
	}
	select {
	case <-d.drained:
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		<-d.drained
	}
	if err := d.cmd.Wait(); err != nil {
		return fmt.Errorf("dmamem-serve: %w", err)
	}
	return nil
}

// resetPeakRSS restarts a process's peak-RSS counter.
func resetPeakRSS(pid int) error {
	return os.WriteFile(filepath.Join("/proc", strconv.Itoa(pid), "clear_refs"), []byte("5"), 0)
}
