package bus

import (
	"math/rand"
	"testing"
)

// Regression for a saturation-threshold bug: with 17 flows sharing one
// chip, the bottleneck's remaining capacity landed a few microbytes
// above the old 1e-6 freeze threshold after the per-flow share
// subtractions, so no flow froze and the stall fallback flat-froze all
// 21 flows at the first-round share — leaving four flows with no
// saturated resource, below their max-min rate. The inputs reproduce
// the quick.Check counterexample that exposed it
// (seed -375422443678318450, nf 0xa4).
func TestAllocateAccumulatedRoundingRegression(t *testing.T) {
	caps, nChips, chipCap, flows := roundingRegressionInputs()
	nBuses := len(caps)
	rates := NewAllocator(caps, nChips, chipCap).Allocate(flows)

	const tol = 1.0 // bytes/s
	busLoad := make([]float64, nBuses)
	chipLoad := make([]float64, nChips)
	for i, f := range flows {
		if rates[i] <= 0 {
			t.Fatalf("flow %d rate %v", i, rates[i])
		}
		busLoad[f.Bus] += rates[i]
		chipLoad[f.Chip] += rates[i]
	}
	for b, l := range busLoad {
		if l > caps[b]+tol {
			t.Errorf("bus %d overloaded: %v > %v", b, l, caps[b])
		}
	}
	for c, l := range chipLoad {
		if l > chipCap+tol {
			t.Errorf("chip %d overloaded: %v > %v", c, l, chipCap)
		}
	}
	// Max-min certificate: every flow crosses a saturated resource on
	// which its rate is maximal.
	for i, fl := range flows {
		busSat := busLoad[fl.Bus] >= caps[fl.Bus]-tol
		chipSat := chipLoad[fl.Chip] >= chipCap-tol
		ok := false
		if busSat {
			maxOnBus := 0.0
			for j, o := range flows {
				if o.Bus == fl.Bus && rates[j] > maxOnBus {
					maxOnBus = rates[j]
				}
			}
			ok = rates[i] >= maxOnBus-tol
		}
		if !ok && chipSat {
			maxOnChip := 0.0
			for j, o := range flows {
				if o.Chip == fl.Chip && rates[j] > maxOnChip {
					maxOnChip = rates[j]
				}
			}
			ok = rates[i] >= maxOnChip-tol
		}
		if !ok {
			t.Errorf("flow %d (bus %d chip %d rate %v) has no saturated resource it is maximal on (busSat=%v chipSat=%v)",
				i, fl.Bus, fl.Chip, rates[i], busSat, chipSat)
		}
	}
}

// roundingRegressionInputs draws the regression's allocator and flows
// exactly as TestQuickAllocateInvariants did for the counterexample.
func roundingRegressionInputs() (caps []float64, nChips int, chipCap float64, flows []Flow) {
	rng := rand.New(rand.NewSource(-375422443678318450))
	nBuses := 1 + rng.Intn(4)
	nChips = 1 + rng.Intn(6)
	caps = make([]float64, nBuses)
	for i := range caps {
		caps[i] = 0.5e9 + rng.Float64()*3e9
	}
	chipCap = 0.5e9 + rng.Float64()*4e9
	flows = make([]Flow, 1+int(uint8(0xa4))%24)
	for i := range flows {
		flows[i] = Flow{Bus: rng.Intn(nBuses), Chip: rng.Intn(nChips)}
	}
	return caps, nChips, chipCap, flows
}
