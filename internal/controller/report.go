package controller

import (
	"fmt"

	"dmamem/internal/energy"
	"dmamem/internal/memsys"
	"dmamem/internal/metrics"
	"dmamem/internal/sim"
)

// Finish closes accounting at the later of the engine clock and the
// given floor (so runs over the same trace are metered over the same
// window regardless of how their tails drained). It must be called
// after the engine has drained.
func (c *Controller) Finish(endFloor sim.Time) sim.Time {
	if c.eng.Pending() > 0 {
		panic("controller: Finish before the engine drained")
	}
	end := c.eng.Now()
	if endFloor > end {
		end = endFloor
	}
	for _, cs := range c.chips {
		if len(cs.flows) > 0 || len(cs.gated) > 0 || len(cs.waiting) > 0 {
			panic(fmt.Sprintf("controller: chip %d still has work after drain", cs.chip.ID))
		}
		if cs.chip.Resident() && cs.chip.State() == energy.Active {
			c.settle(cs, end)
		}
		cs.chip.Close(end)
	}
	return end
}

// Report aggregates the run into a metrics.Report. scheme names the
// configuration; end is the instant returned by Finish.
func (c *Controller) Report(scheme string, end sim.Time) *metrics.Report {
	r := &metrics.Report{
		Scheme:           scheme,
		SimulatedTime:    sim.Duration(end),
		Transfers:        c.transfers,
		Events:           c.eng.Steps(),
		ClampedProcSpans: c.clampedProc,
		Channels:         c.channels,
		ChannelEnergy:    make([]energy.Breakdown, c.channels),
		StateNames:       c.model.StateNames(),
		Residency:        make([]sim.Duration, c.model.NumStates()),
		StateEnergy:      make([]float64, c.model.NumStates()),
	}
	var transferTime, servingTime sim.Duration
	for _, cs := range c.chips {
		b := cs.chip.Meter.Breakdown()
		r.Energy.Add(&b)
		r.ChannelEnergy[cs.channel].Add(&b)
		r.Wakes += cs.chip.Wakes
		transferTime += cs.chip.TransferTime
		servingTime += cs.chip.ServingTime
		for s, d := range cs.chip.Residency {
			r.Residency[s] += d
		}
		for s, j := range cs.chip.StateEnergy {
			r.StateEnergy[s] += j
		}
	}
	if lm := c.cfg.Layout; lm != nil {
		r.Energy[energy.CatMigration] += lm.MigrationEnergyJ
		r.Migrations = lm.MigratedPages
	}
	if transferTime > 0 {
		r.UtilizationFactor = float64(servingTime) / float64(transferTime)
	}
	r.MeanServiceTime = c.xferTimes.Mean()
	if c.xferTimes.Count() > 0 {
		r.P95ServiceTime = c.xferTimes.Percentile(0.95)
		r.MaxServiceTime = c.xferTimes.Max()
	}
	r.MeanGatherDelay = c.gatherDelays.Mean()
	return r
}

// ChipModels exposes the per-chip state machines for statistics
// (per-chip breakdowns, utilization, sleep counts).
func (c *Controller) ChipModels() []*memsys.Chip {
	chips := make([]*memsys.Chip, len(c.chips))
	for i, cs := range c.chips {
		chips[i] = cs.chip
	}
	return chips
}
