package energy

import (
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"dmamem/internal/sim"
)

// TestTable1Constants pins the registry's rdram model, whole and
// literally, to the paper's Table 1: resident powers, every transition
// row (demotions charge the Active->target row, wakes the "+ns"
// resynchronization), the micro-nap state and the default demotion
// chain.
func TestTable1Constants(t *testing.T) {
	if MemoryCycle != 625*sim.Picosecond {
		t.Errorf("MemoryCycle = %v, want 625ps (1600 MHz)", MemoryCycle)
	}
	var (
		toStandby   = Transition{Power: 0.240, Time: 625 * sim.Picosecond}
		toNap       = Transition{Power: 0.160, Time: 5 * sim.Nanosecond}
		toPowerdown = Transition{Power: 0.015, Time: 5 * sim.Nanosecond}
		fromStandby = Transition{Power: 0.240, Time: 6 * sim.Nanosecond}
		fromNap     = Transition{Power: 0.160, Time: 60 * sim.Nanosecond}
		fromPowerdn = Transition{Power: 0.015, Time: 6000 * sim.Nanosecond}
	)
	want := &Model{
		Name:      "rdram-1600",
		CycleTime: 625 * sim.Picosecond,
		Bandwidth: 3.2e9,
		States: []StateSpec{
			{Name: "active", Power: 0.300},
			{Name: "standby", Power: 0.180},
			{Name: "nap", Power: 0.030},
			{Name: "powerdown", Power: 0.003},
		},
		Trans: [][]Transition{
			{{}, toStandby, toNap, toPowerdown},
			{fromStandby, {}, toNap, toPowerdown},
			{fromNap, {}, {}, toPowerdown},
			{fromPowerdn, {}, {}, {}},
		},
		MicroNap:   Nap,
		Thresholds: []sim.Duration{10 * sim.Nanosecond, 100 * sim.Nanosecond, 2 * sim.Microsecond},
	}
	got, err := Lookup("rdram")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rdram model differs from Table 1:\n got %+v\nwant %+v", got, want)
	}
}

func TestStateString(t *testing.T) {
	want := map[State]string{Active: "active", Standby: "standby", Nap: "nap", Powerdown: "powerdown"}
	for s, w := range want {
		if s.String() != w {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), w)
		}
	}
	if State(99).String() != "State(99)" {
		t.Errorf("unknown state string: %q", State(99).String())
	}
}

// rdram returns a fresh instance of the paper's Table 1 model.
func rdram(t testing.TB) *Model {
	t.Helper()
	m, err := Lookup("rdram")
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestPowerOrdering(t *testing.T) {
	m := rdram(t)
	// Deeper states must draw strictly less power.
	if !(m.Power(Active) > m.Power(Standby) &&
		m.Power(Standby) > m.Power(Nap) &&
		m.Power(Nap) > m.Power(Powerdown)) {
		t.Fatal("power ordering violated")
	}
	// Deeper states must take strictly longer to wake.
	if !(m.WakeLatencyOf(Standby) < m.WakeLatencyOf(Nap) &&
		m.WakeLatencyOf(Nap) < m.WakeLatencyOf(Powerdown)) {
		t.Fatal("wake latency ordering violated")
	}
	if m.WakeLatencyOf(Active) != 0 {
		t.Fatal("active should have zero wake latency")
	}
}

// TestTransitionPanics pins the panics for states past a model's
// deepest one, including RDRAM's Powerdown index on the 3-state LPDDR4
// machine.
func TestTransitionPanics(t *testing.T) {
	m := rdram(t)
	lp, err := Lookup("lpddr4")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []func(){
		func() { m.DownTo(numStates) },
		func() { m.UpFrom(numStates) },
		func() { m.WakeLatencyOf(numStates) },
		func() { lp.DownTo(Powerdown) },
		func() { lp.UpFrom(Powerdown) },
		func() { lp.BreakEvenOf(Powerdown) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestMeterAccumulate(t *testing.T) {
	var m Meter
	m.Accumulate(CatServing, 0.3, sim.Second) // 0.3 J
	m.Accumulate(CatIdleDMA, 0.3, 2*sim.Second)
	m.Accumulate(CatLowPower, 0.003, sim.Second)
	b := m.Breakdown()
	if math.Abs(b[CatServing]-0.3) > 1e-12 {
		t.Errorf("serving = %g", b[CatServing])
	}
	if math.Abs(b[CatIdleDMA]-0.6) > 1e-12 {
		t.Errorf("idle = %g", b[CatIdleDMA])
	}
	if math.Abs(m.Total()-0.903) > 1e-12 {
		t.Errorf("total = %g", m.Total())
	}
	if f := b.Fraction(CatServing); math.Abs(f-0.3/0.903) > 1e-12 {
		t.Errorf("fraction = %g", f)
	}
	m.Reset()
	if m.Total() != 0 {
		t.Error("reset did not clear meter")
	}
}

func TestMeterAddJoules(t *testing.T) {
	var m Meter
	m.AddJoules(CatMigration, 1.5)
	if m.Breakdown()[CatMigration] != 1.5 {
		t.Fatal("AddJoules lost energy")
	}
}

func TestMeterNegativePanics(t *testing.T) {
	var m Meter
	defer func() {
		if recover() == nil {
			t.Fatal("negative duration did not panic")
		}
	}()
	m.Accumulate(CatServing, 0.3, -1)
}

func TestBreakdownAddAndFraction(t *testing.T) {
	var a, b Breakdown
	a[CatServing] = 1
	b[CatServing] = 2
	b[CatLowPower] = 1
	a.Add(&b)
	if a[CatServing] != 3 || a[CatLowPower] != 1 {
		t.Fatalf("Add: %+v", a)
	}
	var empty Breakdown
	if empty.Fraction(CatServing) != 0 {
		t.Fatal("empty breakdown fraction should be 0")
	}
	if a.String() == "" {
		t.Fatal("String should be nonempty")
	}
}

func TestBreakEvenSanity(t *testing.T) {
	m := rdram(t)
	// Break-even times must grow with state depth and always cover the
	// round-trip transition latency.
	beS, beN, beP := m.BreakEvenOf(Standby), m.BreakEvenOf(Nap), m.BreakEvenOf(Powerdown)
	if !(beS < beN && beN < beP) {
		t.Fatalf("break-even ordering: standby=%v nap=%v powerdown=%v", beS, beN, beP)
	}
	if beS < m.DownTo(Standby).Time+m.UpFrom(Standby).Time {
		t.Fatalf("standby break-even %v below transit time", beS)
	}
	if m.BreakEvenOf(Active) != 0 {
		t.Fatal("active break-even should be 0")
	}
	// The paper notes the best active->low-power thresholds are around
	// 20-30 memory cycles; our standby/nap break-evens should be within
	// the same order of magnitude.
	if beN > 200*sim.Nanosecond {
		t.Fatalf("nap break-even implausibly large: %v", beN)
	}
}

// Property: for every registered model, sleeping for exactly the
// break-even gap never costs more than idling in the operating state,
// and when the break-even exceeds the transit round trip the two costs
// are equal (the true crossover); otherwise the break-even is clamped
// to the transit time.
func TestQuickBreakEvenIndifference(t *testing.T) {
	var models []*Model
	for _, name := range Techs() {
		m, err := Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		models = append(models, m)
	}
	f := func(pickModel, pickState uint8) bool {
		m := models[int(pickModel)%len(models)]
		s := State(1 + int(pickState)%(m.NumStates()-1))
		be := m.BreakEvenOf(s)
		idleJ := m.Power(Active) * be.Seconds()
		down, up := m.DownTo(s), m.UpFrom(s)
		transit := down.Time + up.Time
		resid := be - transit
		sleepJ := down.Power*down.Time.Seconds() +
			m.Power(s)*resid.Seconds() +
			up.Power*up.Time.Seconds()
		if sleepJ > idleJ+1e-12 {
			return false // sleeping at break-even must not lose energy
		}
		if be > transit {
			// Unclamped: exact indifference at the crossover.
			return math.Abs(idleJ-sleepJ) <= 1e-9*math.Max(idleJ, 1e-12)+1e-12
		}
		return be == transit
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: meter total equals the sum of everything accumulated.
func TestQuickMeterConservation(t *testing.T) {
	f := func(amounts []uint16) bool {
		var m Meter
		var want float64
		for i, a := range amounts {
			c := Category(i % int(NumCategories))
			j := float64(a) / 1000
			m.AddJoules(c, j)
			want += j
		}
		return math.Abs(m.Total()-want) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
