package main

import (
	"fmt"
	"math"
	"net/http"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values
// for an even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailPercentile implements the benchmark's tail-latency rule: report
// p95 when at least ten samples lie beyond it, otherwise the highest
// nearest-rank percentile that still has ten samples beyond it. It
// returns the value and the percentile actually reported. With ten or
// fewer samples no percentile qualifies and it returns the maximum,
// labelled p100.
func tailPercentile(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return math.NaN(), 0
	}
	s := sortedCopy(xs)
	n := len(s)
	i := int(math.Ceil(0.95*float64(n))) - 1 // nearest-rank p95
	if beyond := n - 11; i > beyond {
		i = beyond
	}
	if i < 0 {
		i = n - 1
	}
	return s[i], 100 * float64(i+1) / float64(n)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tally counts operations and the ones that failed. An operation fails
// when it returns an error, when the server answers non-2xx, or when
// one of its output checks does not hold; all three reach record as a
// non-nil error.
type tally struct {
	attempted, failed int
	// firstErr keeps the first failure for the diagnostic line.
	firstErr error
}

func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if t.firstErr == nil {
			t.firstErr = err
		}
	}
}

func (t *tally) failedFrac() float64 {
	if t.attempted == 0 {
		return 0
	}
	return float64(t.failed) / float64(t.attempted)
}

// statusError turns a non-2xx HTTP response into an operation failure.
func statusError(resp *http.Response, what string) error {
	if resp.StatusCode/100 == 2 {
		return nil
	}
	return fmt.Errorf("%s: HTTP %s", what, resp.Status)
}

// cacheHit classifies a result response: the daemon marks answers it
// served from its result cache with X-Dmamem-Cache: hit.
func cacheHit(h http.Header) bool { return h.Get("X-Dmamem-Cache") == "hit" }
