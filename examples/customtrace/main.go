// Custom trace example: the library is not limited to the built-in
// workload models — any DMA access pattern can be described record by
// record. Here we model a video streaming server: a small set of hot
// titles streamed to many clients as periodic 64 KB network reads,
// plus a cold long tail, and ask how much memory energy DMA-aware
// management saves under a tight latency budget.
package main

import (
	"fmt"
	"log"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"dmamem"
)

func main() {
	chips, perChip, pageBytes := dmamem.MemoryGeometry()
	fmt.Printf("memory: %d chips x %d pages x %d B\n", chips, perChip, pageBytes)

	tr := dmamem.NewTrace("video-streaming")

	const (
		titlePages  = 8                    // 64 KB chunk per stream tick
		hotTitles   = 6                    // hot catalog held in memory
		coldTitles  = 400                  // long tail
		streams     = 24                   // concurrent viewers
		tick        = 2 * time.Millisecond // per-stream chunk period (~256 Mb/s each)
		duration    = 40 * time.Millisecond
		coldStartAt = hotTitles * titlePages * 16 // cold region after hot region
	)

	// Each stream plays one title: three of four viewers watch a hot
	// title (the catalog's head), the rest something from the tail.
	title := func(s int) (page int) {
		if s%4 != 3 {
			t := s % hotTitles
			return t * titlePages * 16
		}
		t := s % coldTitles
		return coldStartAt + t*titlePages*16
	}

	for now := time.Duration(0); now < duration; now += tick {
		for s := 0; s < streams; s++ {
			// Stagger the streams across the tick and the buses.
			at := now + time.Duration(s)*tick/streams
			chunk := int(now/tick) % 16
			page := title(s) + chunk*titlePages
			if err := tr.AppendDMA(at, dmamem.FromNetwork, s%3, page, titlePages, false); err != nil {
				log.Fatal(err)
			}
		}
	}
	// Streaming SLAs are tight: declare the client-side budget the
	// CP-Limit calibrates against (a 4 ms jitter budget per chunk).
	tr.SetClientResponse(4*time.Millisecond, 1)

	fmt.Println("workload:", tr.Summary())
	fmt.Println("\npopularity (hot titles dominate):")
	for _, p := range tr.PopularityCurve(5) {
		fmt.Printf("  %3.0f%% of pages -> %5.1f%% of accesses\n", 100*p.PageFrac, 100*p.AccessFrac)
	}

	for _, cp := range []float64{0.02, 0.05} {
		cmp, err := dmamem.Compare(dmamem.Simulation{
			Technique: dmamem.TemporalAlignmentWithLayout,
			CPLimit:   cp,
		}, tr)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("\nCP-Limit %.0f%%: savings %.1f%%, wakes %d -> %d, chunk time %v -> %v\n",
			100*cp, 100*cmp.Savings,
			cmp.Baseline.Wakes, cmp.Technique.Wakes,
			cmp.Baseline.MeanServiceTime, cmp.Technique.MeanServiceTime)
	}
	fmt.Println("\n(streaming chunks are 8 contiguous pages: under the interleaved")
	fmt.Println(" baseline each chunk wakes 8 chips in sequence, while the layout")
	fmt.Println(" technique consolidates hot titles — fewer wakes, faster chunks,")
	fmt.Println(" and a modest energy win even in this alignment-poor workload)")

	// Record, then replay. The same workload can be recorded straight
	// to a .dmt container (docs/TRACE_FORMAT.md) and simulated from
	// the file — the report is bit-identical, and the replay holds one
	// chunk of the file and a small window of records in memory, so
	// the identical code scales to hour-long recordings. For workloads too big to build
	// in memory at all, CreateTraceFile streams record by record.
	path := filepath.Join(os.TempDir(), "video-streaming.dmt")
	if err := tr.SaveFile(path); err != nil {
		log.Fatal(err)
	}
	defer os.Remove(path)
	info, err := dmamem.StatTraceFile(path)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nrecorded %s: %d records, %d DMA transfers, %v\n",
		path, info.Records, info.DMATransfers, info.Duration)

	s := dmamem.Simulation{
		Technique: dmamem.TemporalAlignmentWithLayout,
		CPLimit:   0.05,
		TraceFile: path, // replay the file: pass a nil trace below
	}
	replayed, err := dmamem.Compare(s, nil)
	if err != nil {
		log.Fatal(err)
	}
	inMemory, err := dmamem.Compare(dmamem.Simulation{
		Technique: dmamem.TemporalAlignmentWithLayout, CPLimit: 0.05,
	}, tr)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("replayed from file: savings %.1f%% (in-memory run: %.1f%% — identical: %v)\n",
		100*replayed.Savings, 100*inMemory.Savings,
		reflect.DeepEqual(replayed, inMemory))
}
