package policy

import (
	"fmt"

	"dmamem/internal/energy"
	"dmamem/internal/sim"
)

// SelfTuning is a threshold chain that adapts to the observed idle-gap
// distribution, in the spirit of the performance-directed self-tuning
// schemes of Li et al. (ASPLOS 2004) that the paper reports trying as
// an alternative low-level policy ("the results were similar since the
// large size of DMA transfers makes memory energy consumption almost
// insensitive to the threshold setting" — a claim the ablation
// benchmarks reproduce).
//
// The controller feeds every completed idle gap to ObserveGap. Each
// Window gaps, the policy re-centers its first threshold between the
// model's break-even time and the observed median gap: if most gaps are far
// longer than break-even, waiting longer before sleeping buys nothing,
// so the threshold shrinks toward break-even; if gaps cluster near the
// threshold, it grows to avoid transition thrash.
type SelfTuning struct {
	// Window is the number of observed gaps per adaptation step.
	Window int
	// Floor and Ceiling bound the adapted first threshold.
	Floor, Ceiling sim.Duration

	model   *energy.Model
	current Chain
	gaps    []sim.Duration
	// Adaptations counts re-tuning steps (for tests and reports).
	Adaptations int64
}

// NewSelfTuning returns a self-tuning chain for model m, starting from
// the technology's default chain (ChainFor) with the first threshold
// floored at m's standby break-even time. m must be a 4-state machine
// (ValidateForModel).
func NewSelfTuning(m *energy.Model) *SelfTuning {
	return &SelfTuning{
		Window:  256,
		Floor:   m.BreakEvenOf(energy.Standby),
		Ceiling: 10 * sim.Microsecond,
		model:   m,
		current: *ChainFor(m),
	}
}

// NextStep implements Policy.
func (p *SelfTuning) NextStep(s energy.State) (sim.Duration, energy.State, bool) {
	return p.current.NextStep(s)
}

// Name implements Policy.
func (p *SelfTuning) Name() string { return "self-tuning" }

// Thresholds returns a copy of the current chain's thresholds (for
// tests).
func (p *SelfTuning) Thresholds() []sim.Duration {
	return append([]sim.Duration(nil), p.current.Thresholds...)
}

// ObserveGap records one completed idle gap. Controllers that support
// adaptive policies call it when a chip leaves the idle state.
func (p *SelfTuning) ObserveGap(gap sim.Duration) {
	if gap < 0 {
		panic(fmt.Sprintf("policy: negative idle gap %v", gap))
	}
	p.gaps = append(p.gaps, gap)
	if len(p.gaps) < p.Window {
		return
	}
	p.adapt()
	p.gaps = p.gaps[:0]
}

func (p *SelfTuning) adapt() {
	p.Adaptations++
	median := medianOf(p.gaps)
	// Gaps far beyond the break-even floor: waiting longer before
	// sleeping is pure waste, so converge on the floor. Gaps near or
	// below break-even: sleeping mid-gap pays transitions for nothing,
	// so raise the threshold past the typical gap (bounded by the
	// ceiling).
	var target sim.Duration
	if median >= 8*p.Floor {
		target = p.Floor
	} else {
		target = 2 * median
		if target < p.Floor {
			target = p.Floor
		}
		if target > p.Ceiling {
			target = p.Ceiling
		}
	}
	// Move halfway to the target for stability; the deeper waits
	// follow, floored at their states' break-even times.
	th := p.current.Thresholds
	th[0] = (th[0] + target) / 2
	th[1] = max(10*th[0], p.model.BreakEvenOf(energy.Nap))
	th[2] = max(20*th[0], p.model.BreakEvenOf(energy.Powerdown))
}

func medianOf(gaps []sim.Duration) sim.Duration {
	// Selection by copy-and-sort is fine at Window scale.
	tmp := append([]sim.Duration(nil), gaps...)
	for i := 1; i < len(tmp); i++ { // insertion sort: short, allocation-free
		for j := i; j > 0 && tmp[j] < tmp[j-1]; j-- {
			tmp[j], tmp[j-1] = tmp[j-1], tmp[j]
		}
	}
	return tmp[len(tmp)/2]
}

// GapObserver is implemented by adaptive policies that want to see
// completed idle gaps.
type GapObserver interface {
	ObserveGap(gap sim.Duration)
}
