package main

import (
	"errors"
	"net/http"
	"os/exec"
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so the code must sort
	}
	return xs
}

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n         int
		wantValue float64
		wantPct   float64
	}{
		// p95 has at least ten samples beyond it from 220 samples on
		// (index 208 of 220 leaves 11 beyond; 209 would leave 10).
		{220, 209, 95},
		{1000, 950, 95},
		// Below that, the highest rank with ten samples beyond it.
		{200, 190, 95},
		{100, 90, 90},
		{11, 1, 100.0 / 11},
		{20, 10, 50},
		// Ten or fewer samples: no percentile qualifies; the maximum.
		{10, 10, 100},
		{1, 1, 100},
	} {
		v, pct := tailPercentile(seq(tc.n))
		if v != tc.wantValue || pct != tc.wantPct {
			t.Errorf("n=%d: got value %v at p%v, want %v at p%v", tc.n, v, pct, tc.wantValue, tc.wantPct)
		}
		if tc.n > 10 {
			beyond := 0
			for _, x := range seq(tc.n) {
				if x > v {
					beyond++
				}
			}
			if beyond < 10 {
				t.Errorf("n=%d: only %d samples beyond the reported tail", tc.n, beyond)
			}
		}
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median %v", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median %v", got)
	}
}

func TestSelfTimes(t *testing.T) {
	ms := func(n int) time.Duration { return time.Duration(n) * time.Millisecond }
	spans := []Span{
		{ID: 1, Name: "workload", Start: ms(0), End: ms(100)},
		// Two children overlapping on [20,30]: covered 10..40 = 30 ms.
		{ID: 2, Parent: 1, Name: "a", Start: ms(10), End: ms(30)},
		{ID: 3, Parent: 1, Name: "b", Start: ms(20), End: ms(40)},
		// A disjoint child, partly outside its parent: clipped to 90..100.
		{ID: 4, Parent: 1, Name: "c", Start: ms(90), End: ms(120)},
		// A grandchild counts against its parent, not the root.
		{ID: 5, Parent: 2, Name: "a.inner", Start: ms(12), End: ms(18)},
		// A child nested inside a sibling's interval.
		{ID: 6, Parent: 1, Name: "d", Start: ms(25), End: ms(28)},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{
		1: ms(100 - 30 - 10),
		2: ms(20 - 6),
		3: ms(20),
		4: ms(30),
		5: ms(6),
		6: ms(3),
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %v, want %v", id, self[id], w)
		}
	}
	byName := selfByName(append(spans, Span{ID: 7, Name: "a", Start: ms(200), End: ms(201)}))
	if got := byName["a"]; got != (ms(14) + ms(1)).Seconds() {
		t.Errorf("self by name a = %v", got)
	}
}

func TestRecorderNilIsOff(t *testing.T) {
	var r *recorder
	id := r.open("x", "run", 0)
	r.close(id)
	if id != 0 || r.snapshot() != nil {
		t.Fatal("a nil recorder recorded a span")
	}
	r = newRecorder()
	root := r.open("workload", "iter-0", 0)
	child := r.add("generate", "iter-0", root, time.Now(), time.Now())
	r.close(root)
	got := r.snapshot()
	if len(got) != 2 || got[1].Parent != root || got[0].ID != root || child != 2 {
		t.Fatalf("spans %+v", got)
	}
}

func TestFailureAccounting(t *testing.T) {
	var tl tally
	tl.record(nil)
	tl.record(statusError(&http.Response{StatusCode: 200, Status: "200 OK"}, "submit"))
	tl.record(statusError(&http.Response{StatusCode: 202, Status: "202 Accepted"}, "submit"))
	tl.record(statusError(&http.Response{StatusCode: 429, Status: "429 Too Many Requests"}, "submit"))
	tl.record(statusError(&http.Response{StatusCode: 500, Status: "500 Internal Server Error"}, "result"))
	tl.record(conservation("report", []float64{1, 2}, 0.5, 0, 4)) // 3.5 != 4
	tl.record(conservation("report", []float64{1, 2}, 0.5, 0.5, 4))
	tl.record(errors.New("transport"))
	if tl.attempted != 8 || tl.failed != 4 {
		t.Fatalf("attempted %d failed %d, want 8 and 4", tl.attempted, tl.failed)
	}
	if got := tl.failedFrac(); got != 0.5 {
		t.Fatalf("failed_frac %v", got)
	}
	if !strings.Contains(tl.firstErr.Error(), "429") {
		t.Fatalf("first error %v, want the 429", tl.firstErr)
	}
}

func TestCacheHitClassification(t *testing.T) {
	for _, tc := range []struct {
		header string
		hit    bool
	}{{"hit", true}, {"", false}, {"miss", false}, {"HIT", false}} {
		h := http.Header{}
		if tc.header != "" {
			h.Set("X-Dmamem-Cache", tc.header)
		}
		if got := cacheHit(h); got != tc.hit {
			t.Errorf("X-Dmamem-Cache %q: hit=%v, want %v", tc.header, got, tc.hit)
		}
	}
}

func TestReferenceTolerance(t *testing.T) {
	rc := &refChecker{workload: "w", active: true, want: map[string]refValues{
		"p": {TechniqueEnergy: 1, TechniqueUF: 0.5, Transfers: 10},
	}}
	if err := rc.check("p", refValues{TechniqueEnergy: 1 + 5e-7, TechniqueUF: 0.5, Transfers: 10}); err != nil {
		t.Errorf("within 1e-6: %v", err)
	}
	if err := rc.check("p", refValues{TechniqueEnergy: 1 + 5e-6, TechniqueUF: 0.5, Transfers: 10}); err == nil {
		t.Error("energy off by 5e-6 accepted")
	}
	if err := rc.check("p", refValues{TechniqueEnergy: 1, TechniqueUF: 0.5, Transfers: 11}); err == nil {
		t.Error("transfer count off by one accepted")
	}
	rc.active = false
	if err := rc.check("p", refValues{Transfers: 11}); err != nil {
		t.Errorf("non-default seed compared against the reference: %v", err)
	}
}

// TestNoInternalImports keeps the benchmark on the public surface: no
// package of this module, tests included, imports anything under
// dmamem/internal/. (The root dmamem package itself is built on those
// packages, so they do appear among the transitive dependencies.)
func TestNoInternalImports(t *testing.T) {
	out, err := exec.Command("go", "list", "-f",
		`{{join .Imports "\n"}}{{"\n"}}{{join .TestImports "\n"}}{{"\n"}}{{join .XTestImports "\n"}}`,
		"./...").CombinedOutput()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, out)
	}
	imports := strings.Fields(string(out))
	if !contains(imports, "dmamem") {
		t.Fatalf("benchmark does not import dmamem; go list saw %v", imports)
	}
	for _, p := range imports {
		if strings.HasPrefix(p, "dmamem/") {
			t.Errorf("benchmark imports %s; use the public dmamem package", p)
		}
	}
}

func contains(xs []string, x string) bool {
	for _, v := range xs {
		if v == x {
			return true
		}
	}
	return false
}
