package policy

import (
	"testing"

	"dmamem/internal/energy"
	"dmamem/internal/sim"
)

// rdram returns the paper's Table 1 model.
func rdram(t testing.TB) *energy.Model {
	t.Helper()
	m, err := energy.Lookup("rdram")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestDynamicChain pins the evaluation's baseline: the rdram model's
// default chain.
func TestDynamicChain(t *testing.T) {
	m := rdram(t)
	d := ChainFor(m)
	if err := d.ValidateForModel(m); err != nil {
		t.Fatal(err)
	}
	wait, next, ok := d.NextStep(energy.Active)
	if !ok || next != energy.Standby || wait != 10*sim.Nanosecond {
		t.Fatalf("active step: wait=%v next=%v ok=%v", wait, next, ok)
	}
	wait, next, ok = d.NextStep(energy.Standby)
	if !ok || next != energy.Nap || wait != 100*sim.Nanosecond {
		t.Fatalf("standby step: wait=%v next=%v ok=%v", wait, next, ok)
	}
	wait, next, ok = d.NextStep(energy.Nap)
	if !ok || next != energy.Powerdown || wait != 2*sim.Microsecond {
		t.Fatalf("nap step: wait=%v next=%v ok=%v", wait, next, ok)
	}
	if _, _, ok := d.NextStep(energy.Powerdown); ok {
		t.Fatal("powerdown should be terminal")
	}
	if d.Name() != "dynamic" {
		t.Fatalf("name = %q", d.Name())
	}
}

func TestDynamicChainWalk(t *testing.T) {
	// Walking the chain from Active must terminate in Powerdown in
	// exactly three steps, strictly deepening.
	d := ChainFor(rdram(t))
	s := energy.Active
	steps := 0
	for {
		_, next, ok := d.NextStep(s)
		if !ok {
			break
		}
		if next <= s {
			t.Fatalf("chain does not deepen: %v -> %v", s, next)
		}
		s = next
		steps++
		if steps > 10 {
			t.Fatal("chain does not terminate")
		}
	}
	if s != energy.Powerdown || steps != 3 {
		t.Fatalf("walk ended at %v after %d steps", s, steps)
	}
}

func TestDynamicValidate(t *testing.T) {
	m := rdram(t)
	bad := ChainFor(m)
	bad.Thresholds[0] = -1
	if bad.ValidateForModel(m) == nil {
		t.Fatal("expected error for negative threshold")
	}
	long := &Chain{Thresholds: make([]sim.Duration, m.NumStates())}
	if long.ValidateForModel(m) == nil {
		t.Fatal("expected error for a chain past the deepest state")
	}
}

func TestStatic(t *testing.T) {
	p := &Static{Mode: energy.Nap}
	wait, next, ok := p.NextStep(energy.Active)
	if !ok || wait != 0 || next != energy.Nap {
		t.Fatalf("static active step: %v %v %v", wait, next, ok)
	}
	if _, _, ok := p.NextStep(energy.Nap); ok {
		t.Fatal("static mode should be terminal")
	}
	if _, _, ok := p.NextStep(energy.Powerdown); ok {
		t.Fatal("other states should be terminal")
	}
	if p.Name() != "static-nap" {
		t.Fatalf("name = %q", p.Name())
	}
}

func TestStaticActiveMode(t *testing.T) {
	p := &Static{Mode: energy.Active}
	if _, _, ok := p.NextStep(energy.Active); ok {
		t.Fatal("static-active should never transition")
	}
}

func TestStaticValidate(t *testing.T) {
	m := rdram(t)
	for mode := energy.Active; mode <= energy.Powerdown; mode++ {
		if err := (&Static{Mode: mode}).ValidateForModel(m); err != nil {
			t.Errorf("mode %v rejected: %v", mode, err)
		}
	}
	if (&Static{Mode: energy.Powerdown + 1}).ValidateForModel(m) == nil {
		t.Error("out-of-range park mode accepted")
	}
}

func TestAlwaysActive(t *testing.T) {
	var p AlwaysActive
	if _, _, ok := p.NextStep(energy.Active); ok {
		t.Fatal("always-active should never transition")
	}
	if p.Name() != "always-active" {
		t.Fatalf("name = %q", p.Name())
	}
}

// TestBreakEvenDynamic holds the rdram default chain to its
// break-even anchors: the idle wait before entering standby and nap is
// at least that state's break-even time. (The 2 us wait before
// powerdown sits below its 6 us break-even, which the transition round
// trip dominates.)
func TestBreakEvenDynamic(t *testing.T) {
	m := rdram(t)
	th := ChainFor(m).Thresholds
	for _, s := range []energy.State{energy.Standby, energy.Nap} {
		if wait, be := th[s-1], m.BreakEvenOf(s); wait < be {
			t.Errorf("wait before %v (%v) below its break-even %v", s, wait, be)
		}
	}
}

func TestPolicyInterfaceCompliance(t *testing.T) {
	for _, p := range []Policy{ChainFor(rdram(t)), &Static{Mode: energy.Nap}, AlwaysActive{}, NewSelfTuning(rdram(t))} {
		if p.Name() == "" {
			t.Errorf("%T has empty name", p)
		}
	}
}
