package main

import (
	"container/heap"
	"time"
)

// Host-speed calibration.
//
// The benchmark runs on shared machines whose speed drifts. On the
// 2-vCPU host the seed numbers come from, the same simulation's host
// time moved by ±20% between 10 s windows, and by up to 2x over tens of
// minutes. Raw host seconds taken minutes apart then differ by more
// than any useful bound. So every run times a fixed kernel of the
// benchmark's own between its iterations, and reports host times scaled
// to a reference speed:
//
//	reported = measured × refKernelSeconds / median(kernel samples of the run)
//
// No change to the program can touch the kernel, so a program that
// does less work still reports less time. The kernel mimics the
// simulator's host profile, an event heap and map churn with small
// allocations, because a plain memory-bound loop tracked the drift only
// half as well. The factor is reported as the per-layer metric
// host_speed; the raw host time is the reported time divided by it,
// and standard error prints both.

// refKernelSeconds is the kernel's time on the reference host (2-vCPU
// Xeon VM, go1.24.0). It fixes the unit: reported seconds are host
// seconds at the speed at which the kernel takes this long.
const refKernelSeconds = 0.020

const (
	kernelEvents = 60000
	kernelQueue  = 4096
	kernelKeys   = 2048
)

var kernelSink float64

// eventHeap is a min-heap of event times behind container/heap, whose
// interface boxing allocates like the simulator's event values do.
type eventHeap []float64

func (h eventHeap) Len() int           { return len(h) }
func (h eventHeap) Less(i, j int) bool { return h[i] < h[j] }
func (h eventHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *eventHeap) Push(x any)        { *h = append(*h, x.(float64)) }
func (h *eventHeap) Pop() any {
	old := *h
	v := old[len(old)-1]
	*h = old[:len(old)-1]
	return v
}

// kernel runs the fixed workload once and returns its host seconds: a
// toy discrete-event loop that pops an event, toggles a map entry and
// schedules a successor.
func kernel() float64 {
	t0 := time.Now()
	x := uint64(0x9e3779b97f4a7c15)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	h := make(eventHeap, 0, kernelQueue)
	open := make(map[uint64]float64, kernelKeys/2)
	for i := 0; i < kernelQueue; i++ {
		heap.Push(&h, float64(next()%1000000)/1e3)
	}
	now := 0.0
	for i := 0; i < kernelEvents; i++ {
		now = heap.Pop(&h).(float64)
		k := next() % kernelKeys
		if v, ok := open[k]; ok {
			delete(open, k)
			now += v * 1e-9
		} else {
			open[k] = now
		}
		heap.Push(&h, now+float64(next()%1000)/1e3)
	}
	kernelSink += now
	return time.Since(t0).Seconds()
}

// calibration collects kernel samples through one run.
type calibration struct{ samples []float64 }

// sample times the kernel five times and keeps the median, so a
// preemption or a garbage collection does not skew the sample.
func (c *calibration) sample() {
	var ts [5]float64
	for i := range ts {
		ts[i] = kernel()
	}
	c.samples = append(c.samples, median(ts[:]))
}

// speed is the run's host speed relative to the reference host: the
// factor that scales measured host times to reported ones.
func (c *calibration) speed() float64 {
	return refKernelSeconds / median(c.samples)
}
