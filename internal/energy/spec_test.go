package energy

import (
	"testing"
	"testing/quick"

	"dmamem/internal/sim"
)

// The tests in this file hold the two four-state technology tables,
// rdram and ddr400, to their accessor-level contract: the numbers a
// chip reads through Power/DownTo/UpFrom/WakeLatencyOf/BreakEvenOf.
// TestTable1Constants and TestDDR400Constants pin the same models as
// whole structs; these pin what the simulator actually computes from
// them.

// fourStateTables returns fresh instances of the rdram and ddr400
// models.
func fourStateTables(t testing.TB) []*Model {
	t.Helper()
	var ms []*Model
	for _, name := range []string{"rdram", "ddr400"} {
		m, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		ms = append(ms, m)
	}
	return ms
}

// chainBreakEven is the closed form of the four-state break-even
// horizon, written out independently of Model.BreakEvenOf: solve
// P_active*t = down.E + P_s*(t - down.T - up.T) + up.E for t, never
// below the transition round trip.
func chainBreakEven(pActive, pState float64, down, up Transition) sim.Duration {
	overheadJ := down.Power*down.Time.Seconds() + up.Power*up.Time.Seconds()
	num := overheadJ - pState*(down.Time.Seconds()+up.Time.Seconds())
	be := sim.FromSeconds(num / (pActive - pState))
	if transit := down.Time + up.Time; be < transit {
		be = transit
	}
	return be
}

// TestRDRAMSpecMatchesTable1 reads the rdram model through its
// accessors and compares every value with the paper's Table 1 numbers.
func TestRDRAMSpecMatchesTable1(t *testing.T) {
	m := rdram(t)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.Bandwidth != 3.2e9 || m.CycleTime != MemoryCycle {
		t.Fatalf("bandwidth %g cycle %v", m.Bandwidth, m.CycleTime)
	}
	powers := map[State]float64{Active: 0.300, Standby: 0.180, Nap: 0.030, Powerdown: 0.003}
	down := map[State]Transition{
		Standby:   {Power: 0.240, Time: 1 * MemoryCycle},
		Nap:       {Power: 0.160, Time: 8 * MemoryCycle},
		Powerdown: {Power: 0.015, Time: 8 * MemoryCycle},
	}
	up := map[State]Transition{
		Standby:   {Power: 0.240, Time: 6 * sim.Nanosecond},
		Nap:       {Power: 0.160, Time: 60 * sim.Nanosecond},
		Powerdown: {Power: 0.015, Time: 6000 * sim.Nanosecond},
	}
	for s, p := range powers {
		if m.Power(s) != p {
			t.Errorf("Power(%v) = %g, want %g", s, m.Power(s), p)
		}
	}
	for _, s := range []State{Standby, Nap, Powerdown} {
		if m.DownTo(s) != down[s] {
			t.Errorf("DownTo(%v) = %+v, want %+v", s, m.DownTo(s), down[s])
		}
		if m.UpFrom(s) != up[s] {
			t.Errorf("UpFrom(%v) = %+v, want %+v", s, m.UpFrom(s), up[s])
		}
		if m.WakeLatencyOf(s) != up[s].Time {
			t.Errorf("WakeLatencyOf(%v) = %v, want %v", s, m.WakeLatencyOf(s), up[s].Time)
		}
		// Break-even computed from the Table 1 numbers themselves.
		if got, want := m.BreakEvenOf(s), chainBreakEven(powers[Active], powers[s], down[s], up[s]); got != want {
			t.Errorf("BreakEvenOf(%v) = %v, want %v", s, got, want)
		}
	}
}

// TestSpecModelMatchesLegacyArithmetic holds both four-state tables to
// the four-state chain arithmetic, with no tolerance: the state machine
// shape, the chain semantics (demoting into s from any shallower state
// charges the Active->s row, no state demotes or wakes except along the
// chain), wake latencies and break-even horizons.
func TestSpecModelMatchesLegacyArithmetic(t *testing.T) {
	for _, m := range fourStateTables(t) {
		if m.NumStates() != 4 || m.Deepest() != Powerdown || m.MicroNap != Nap {
			t.Fatalf("%s: state machine shape drifted", m.Name)
		}
		wantTh := []sim.Duration{16 * MemoryCycle, 100 * sim.Nanosecond, 2 * sim.Microsecond}
		for i, th := range wantTh {
			if m.Thresholds[i] != th {
				t.Errorf("%s: threshold %d = %v, want %v", m.Name, i, m.Thresholds[i], th)
			}
		}
		for s := Active; s <= Powerdown; s++ {
			if m.StateName(s) != s.String() {
				t.Errorf("%s: state %d named %q, want %q", m.Name, s, m.StateName(s), s.String())
			}
			if s == Active {
				if m.WakeLatencyOf(s) != 0 || m.BreakEvenOf(s) != 0 {
					t.Errorf("%s: active has nonzero wake/break-even", m.Name)
				}
				continue
			}
			down, up := m.DownTo(s), m.UpFrom(s)
			if m.WakeLatencyOf(s) != up.Time {
				t.Errorf("%s: WakeLatencyOf(%v) = %v, want %v", m.Name, s, m.WakeLatencyOf(s), up.Time)
			}
			if got, want := m.BreakEvenOf(s), chainBreakEven(m.Power(Active), m.Power(s), down, up); got != want {
				t.Errorf("%s: BreakEvenOf(%v) = %v, want %v", m.Name, s, got, want)
			}
			for from := Active; from <= Powerdown; from++ {
				got := m.TransitionFor(from, s)
				want := Transition{}
				if from < s {
					want = down
				}
				if got != want {
					t.Errorf("%s: TransitionFor(%v,%v) = %+v, want %+v", m.Name, from, s, got, want)
				}
			}
		}
	}
}

// TestSpecValidateRejectsBadTables applies the four classic table
// defects — no name, non-monotone powers, a missing wake transition,
// zero bandwidth — to every registered model, so no shipped table can
// slip a broken variant past Validate.
func TestSpecValidateRejectsBadTables(t *testing.T) {
	for _, name := range Techs() {
		fresh := func() *Model {
			m, err := Lookup(name)
			if err != nil {
				t.Fatal(err)
			}
			return m
		}
		if err := fresh().Validate(); err != nil {
			t.Fatalf("%s: control: %v", name, err)
		}
		bad := fresh()
		bad.Name = ""
		if bad.Validate() == nil {
			t.Errorf("%s: nameless table accepted", name)
		}
		bad = fresh()
		bad.States[2].Power = bad.States[1].Power + 1
		if bad.Validate() == nil {
			t.Errorf("%s: non-monotone powers accepted", name)
		}
		bad = fresh()
		bad.Trans[2][Active].Time = 0
		if bad.Validate() == nil {
			t.Errorf("%s: missing wake transition accepted", name)
		}
		bad = fresh()
		bad.Bandwidth = 0
		if bad.Validate() == nil {
			t.Errorf("%s: zero bandwidth accepted", name)
		}
	}
}

// TestSpecPanics pins, for every registered model, the panics on
// questions with no answer: a resident power or transition past the
// deepest state, and a down or up transition of the operating state.
func TestSpecPanics(t *testing.T) {
	for _, name := range Techs() {
		m, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		past := m.Deepest() + 1
		for _, f := range []func(){
			func() { m.Power(past) },
			func() { m.TransitionFor(past, Active) },
			func() { m.DownTo(Active) },
			func() { m.UpFrom(Active) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s: expected panic", name)
					}
				}()
				f()
			}()
		}
	}
}

// Property: for both four-state tables, the break-even gap always
// covers the transition round trip, and sleeping for it never costs
// more than idling in Active.
func TestQuickSpecBreakEven(t *testing.T) {
	tables := fourStateTables(t)
	f := func(pickTable, pickState uint8) bool {
		m := tables[int(pickTable)%len(tables)]
		st := State(1 + pickState%3)
		be := m.BreakEvenOf(st)
		idleJ := m.Power(Active) * be.Seconds()
		down, up := m.DownTo(st), m.UpFrom(st)
		resid := be - down.Time - up.Time
		if resid < 0 {
			return false
		}
		sleepJ := down.Power*down.Time.Seconds() +
			m.Power(st)*resid.Seconds() + up.Power*up.Time.Seconds()
		return sleepJ <= idleJ+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
