package bus

import (
	"math/rand"
	"testing"
)

// refAllocate is the per-flow progressive filling that Allocate's
// class aggregation replaced, kept as its oracle: each round adds the
// bottleneck share to every unfrozen flow and subtracts it from every
// resource the flow crosses, then freezes flows one at a time. channelOf
// nil means no channel constraint. stalled reports that the numerical
// stall fallback froze the remaining flows.
func refAllocate(busCap []float64, chips int, chipCap float64, channelOf []int, channelCap []float64,
	flows []Flow) (rates []float64, stalled bool) {
	rates = make([]float64, len(flows))
	remBus := append([]float64(nil), busCap...)
	busCount := make([]int, len(busCap))
	remChip := make([]float64, chips)
	chipCount := make([]int, chips)
	remChan := append([]float64(nil), channelCap...)
	chanCount := make([]int, len(channelCap))
	channels := channelOf != nil
	for _, f := range flows {
		busCount[f.Bus]++
		chipCount[f.Chip]++
		remChip[f.Chip] = chipCap
		if channels {
			chanCount[channelOf[f.Chip]]++
		}
	}
	frozen := make([]bool, len(flows))
	remaining := len(flows)
	for remaining > 0 {
		share := -1.0
		minShare := func(rem []float64, count []int) {
			for r, n := range count {
				if n == 0 {
					continue
				}
				if s := rem[r] / float64(n); share < 0 || s < share {
					share = s
				}
			}
		}
		minShare(remBus, busCount)
		minShare(remChip, chipCount)
		minShare(remChan, chanCount)
		for i, f := range flows {
			if frozen[i] {
				continue
			}
			rates[i] += share
			remBus[f.Bus] -= share
			remChip[f.Chip] -= share
			if channels {
				remChan[channelOf[f.Chip]] -= share
			}
		}
		const eps = 1e-3
		progressed := false
		for i, f := range flows {
			if frozen[i] {
				continue
			}
			if remBus[f.Bus] <= eps || remChip[f.Chip] <= eps ||
				(channels && remChan[channelOf[f.Chip]] <= eps) {
				frozen[i] = true
				remaining--
				busCount[f.Bus]--
				chipCount[f.Chip]--
				if channels {
					chanCount[channelOf[f.Chip]]--
				}
				progressed = true
			}
		}
		if !progressed {
			return rates, true
		}
	}
	return rates, false
}

// checkOracle fails t unless a.Allocate(flows) equals refAllocate's
// rates with ==, and returns whether the oracle stalled.
func checkOracle(t *testing.T, a *Allocator, flows []Flow) bool {
	t.Helper()
	want, stalled := refAllocate(a.busCap, a.chips, a.chipCap, a.channelOf, a.channelCap, flows)
	got := a.Allocate(flows)
	if len(got) != len(want) {
		t.Fatalf("%d rates for %d flows", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("flow %d of %d (%+v): rate %v, oracle %v (channels %v)",
				i, len(flows), flows[i], got[i], want[i], a.channelOf != nil)
		}
	}
	return stalled
}

// TestAllocateMatchesOracle holds the class-aggregated allocator to
// the per-flow oracle bit for bit on random flow sets: 1-4 buses, up
// to 64 chips, up to 3,000 flows, with and without channel caps, and
// several flow sets per Allocator so stale scratch from a previous
// call (more flows, other classes, channels toggled) would show.
func TestAllocateMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 1000; trial++ {
		nBuses := 1 + rng.Intn(4)
		nChips := 1 + rng.Intn(64)
		caps := make([]float64, nBuses)
		for i := range caps {
			caps[i] = PCIXBandwidth
			if rng.Intn(2) == 0 {
				caps[i] = 0.5e9 + rng.Float64()*3e9
			}
		}
		chipCap := 3.2e9
		if rng.Intn(2) == 0 {
			chipCap = 0.5e9 + rng.Float64()*4e9
		}
		a := NewAllocator(caps, nChips, chipCap)

		nChannels := 1 + rng.Intn(4)
		channelOf := make([]int, nChips)
		for c := range channelOf {
			channelOf[c] = c % nChannels
		}
		chanCaps := make([]float64, nChannels)
		for c := range chanCaps {
			chanCaps[c] = 0.5e9 + rng.Float64()*6e9
		}

		for call := 0; call < 4; call++ {
			if rng.Intn(2) == 0 {
				a.SetChannels(channelOf, chanCaps)
			} else {
				a.SetChannels(nil, nil)
			}
			// Log-uniform flow counts up to 3,000, over a random subset
			// of the chips so some classes hold many flows.
			nFlows := int(1 + rng.ExpFloat64()*300)
			if nFlows > 3000 {
				nFlows = 3000
			}
			span := 1 + rng.Intn(nChips)
			flows := make([]Flow, nFlows)
			for i := range flows {
				flows[i] = Flow{Bus: rng.Intn(nBuses), Chip: rng.Intn(span)}
			}
			checkOracle(t, a, flows)
		}
	}
	// The largest case, explicitly: 3,000 flows over 4 buses x 64 chips.
	a := NewAllocator([]float64{PCIXBandwidth, PCIXBandwidth, 2e9, 0.7e9}, 64, 3.2e9)
	flows := make([]Flow, 3000)
	for i := range flows {
		flows[i] = Flow{Bus: rng.Intn(4), Chip: rng.Intn(64)}
	}
	checkOracle(t, a, flows)
}

// TestAllocateOracleRoundingRegression replays the inputs of
// TestAllocateAccumulatedRoundingRegression, whose bottleneck remainder
// lands ulps from zero, against the oracle.
func TestAllocateOracleRoundingRegression(t *testing.T) {
	caps, nChips, chipCap, flows := roundingRegressionInputs()
	checkOracle(t, NewAllocator(caps, nChips, chipCap), flows)
}

// TestAllocateOracleStall covers the numerical-stall fallback. With
// petabyte-per-second capacities a share's rounding error is far above
// the freeze threshold, so some flow counts leave every remainder
// positive after the round and both allocators must freeze the flows
// at the same rates.
func TestAllocateOracleStall(t *testing.T) {
	stalls := 0
	for n := 2; n <= 64; n++ {
		a := NewAllocator([]float64{1e15 + float64(n), 3e15}, 4, 7e15)
		flows := make([]Flow, n)
		for i := range flows {
			flows[i] = Flow{Bus: i % 2, Chip: i % 4}
		}
		if checkOracle(t, a, flows) {
			stalls++
		}
	}
	t.Logf("%d of 63 inputs stalled", stalls)
	if stalls == 0 {
		t.Fatal("no input reached the stall fallback")
	}
}
