package policy

import (
	"fmt"

	"dmamem/internal/energy"
	"dmamem/internal/sim"
)

// ModelValidator is implemented by policies that constrain which
// power-state machines they can drive. The controller checks it
// against the resolved energy.Model before a run, so a 4-state chain
// cannot silently mis-drive a 5-state DDR4 machine.
type ModelValidator interface {
	ValidateForModel(m *energy.Model) error
}

// Chain is the dynamic threshold policy: a demotion chain with one
// idleness threshold per state, sized by the technology's state
// machine. Thresholds[i] is the idle time in state i before demotion
// to state i+1; a shorter chain simply stops early (deeper states
// unused).
type Chain struct {
	// Label is the reported policy name; empty means "dynamic".
	Label string
	// Thresholds, one per demotion step.
	Thresholds []sim.Duration
}

// ChainFor returns the technology's default demotion chain: the
// model's calibrated thresholds, one per demotion step. For the
// default RDRAM model these are the evaluation's baseline waits:
// 16 memory cycles in active, 100 ns in standby, 2 us in nap.
func ChainFor(m *energy.Model) *Chain {
	return &Chain{Thresholds: append([]sim.Duration(nil), m.Thresholds...)}
}

// NextStep implements Policy.
func (c *Chain) NextStep(s energy.State) (sim.Duration, energy.State, bool) {
	if int(s) < len(c.Thresholds) {
		return c.Thresholds[s], s + 1, true
	}
	return 0, s, false
}

// Name implements Policy.
func (c *Chain) Name() string {
	if c.Label != "" {
		return c.Label
	}
	return "dynamic"
}

// ValidateForModel implements ModelValidator: the chain must not
// demote past the model's deepest state, and no threshold may be
// negative.
func (c *Chain) ValidateForModel(m *energy.Model) error {
	if len(c.Thresholds) > m.NumStates()-1 {
		return fmt.Errorf("policy: chain with %d thresholds demotes past the %d states of model %s",
			len(c.Thresholds), m.NumStates(), m.Name)
	}
	for i, th := range c.Thresholds {
		if th < 0 {
			return fmt.Errorf("policy: negative threshold %v at chain step %d", th, i)
		}
	}
	return nil
}

// ValidateForModel implements ModelValidator: the park mode must be a
// state of the machine.
func (p *Static) ValidateForModel(m *energy.Model) error {
	if int(p.Mode) >= m.NumStates() {
		return fmt.Errorf("policy: static park mode %d beyond %s (deepest state of model %s)",
			int(p.Mode), m.StateName(m.Deepest()), m.Name)
	}
	return nil
}

// ValidateForModel implements ModelValidator: SelfTuning adapts a
// 3-step chain (standby, nap, powerdown in RDRAM terms), so it needs
// a 4-state machine.
func (p *SelfTuning) ValidateForModel(m *energy.Model) error {
	if m.NumStates() != 4 {
		return fmt.Errorf("policy: self-tuning drives the 4-state dynamic chain; model %s has %d states",
			m.Name, m.NumStates())
	}
	return nil
}
