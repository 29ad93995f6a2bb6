package policy

import (
	"testing"
	"testing/quick"

	"dmamem/internal/energy"
	"dmamem/internal/sim"
)

func TestSelfTuningDefaults(t *testing.T) {
	m := rdram(t)
	p := NewSelfTuning(m)
	if p.Name() != "self-tuning" {
		t.Fatalf("name = %q", p.Name())
	}
	if err := p.ValidateForModel(m); err != nil {
		t.Fatal(err)
	}
	// Before any adaptation it behaves like the default dynamic chain.
	wait, next, ok := p.NextStep(energy.Active)
	if !ok || next != energy.Standby || wait != ChainFor(m).Thresholds[0] {
		t.Fatalf("initial step: %v %v %v", wait, next, ok)
	}
}

func TestSelfTuningShrinksOnLongGaps(t *testing.T) {
	p := NewSelfTuning(rdram(t))
	p.Window = 16
	before := p.Thresholds()[0]
	// Long idle gaps (1 ms): sleeping earlier is free, threshold should
	// shrink toward break-even.
	for round := 0; round < 8; round++ {
		for i := 0; i < p.Window; i++ {
			p.ObserveGap(sim.Duration(1 * sim.Millisecond))
		}
	}
	after := p.Thresholds()[0]
	if p.Adaptations == 0 {
		t.Fatal("never adapted")
	}
	// Long gaps dwarf any threshold: converge on the break-even floor
	// so chips sleep as soon as sleeping pays.
	if after >= before {
		t.Fatalf("threshold did not shrink: %v -> %v", before, after)
	}
	if after < p.Floor {
		t.Fatalf("threshold %v under floor %v", after, p.Floor)
	}
}

func TestSelfTuningFloorsOnShortGaps(t *testing.T) {
	p := NewSelfTuning(rdram(t))
	p.Window = 16
	// Gaps near break-even: the threshold rises past the typical gap so
	// the chip stops paying transitions for nothing.
	for round := 0; round < 12; round++ {
		for i := 0; i < p.Window; i++ {
			p.ObserveGap(20 * sim.Nanosecond)
		}
	}
	got := p.Thresholds()[0]
	if got < p.Floor {
		t.Fatalf("threshold %v fell below floor %v", got, p.Floor)
	}
	if got < 30*sim.Nanosecond {
		t.Fatalf("threshold %v did not rise past the 20ns gaps", got)
	}
	if got > p.Ceiling {
		t.Fatalf("threshold %v above ceiling", got)
	}
}

func TestSelfTuningChainStaysOrdered(t *testing.T) {
	p := NewSelfTuning(rdram(t))
	p.Window = 8
	for i := 0; i < 100; i++ {
		p.ObserveGap(sim.Duration(1+i%50) * sim.Microsecond)
	}
	th := p.Thresholds()
	if th[0] <= 0 || th[1] < th[0] || th[2] < th[0] {
		t.Fatalf("chain disordered: %v", th)
	}
	// Powerdown threshold never undercuts its break-even.
	if be := rdram(t).BreakEvenOf(energy.Powerdown); th[2] < be {
		t.Fatalf("powerdown threshold %v below break-even %v", th[2], be)
	}
}

func TestSelfTuningNegativeGapPanics(t *testing.T) {
	p := NewSelfTuning(rdram(t))
	defer func() {
		if recover() == nil {
			t.Fatal("negative gap accepted")
		}
	}()
	p.ObserveGap(-1)
}

// Property: whatever gaps are observed, thresholds stay within
// [floor, ceiling] for the first step and the chain remains walkable to
// powerdown.
func TestQuickSelfTuningBounds(t *testing.T) {
	f := func(raw []uint32) bool {
		p := NewSelfTuning(rdram(t))
		p.Window = 8
		for _, r := range raw {
			p.ObserveGap(sim.Duration(r % 100_000_000)) // up to 100 us
		}
		th := p.Thresholds()
		if th[0] < p.Floor/2 || th[0] > p.Ceiling {
			return false
		}
		s := energy.Active
		for i := 0; i < 4; i++ {
			_, next, ok := p.NextStep(s)
			if !ok {
				break
			}
			if next <= s {
				return false
			}
			s = next
		}
		return s == energy.Powerdown
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMedianOf(t *testing.T) {
	if got := medianOf([]sim.Duration{5, 1, 9, 3, 7}); got != 5 {
		t.Fatalf("median = %v", got)
	}
	if got := medianOf([]sim.Duration{2, 1}); got != 2 {
		t.Fatalf("median of 2 = %v", got)
	}
}
