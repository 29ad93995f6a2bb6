// Package bus models the I/O buses of a data server and the way
// concurrent DMA streams share bus and memory-chip bandwidth.
//
// The paper's default configuration is three 133 MHz, 64-bit PCI-X
// buses (1.064 GB/s each) attached to a memory bus whose chips each
// sustain 3.2 GB/s. A DMA engine on a bus emits one 8-byte DMA-memory
// request per bus beat; several engines on one bus time-share it, and
// several buses can deliver requests to the same chip concurrently —
// the concurrency DMA-TA exploits.
//
// Rates of concurrent streams are computed with a max-min fair
// (progressive-filling) allocation subject to two capacity constraints
// per stream: its bus and its destination chip (and optionally the
// chip's channel). This mirrors round-robin arbitration on both
// resources.
//
// The allocation runs over (bus, chip) classes, not individual
// streams. Streams of one class cross the same resources, so every
// round gives them the same share and freezes them together: the
// share is added once per class. It is still subtracted from each
// resource's remaining capacity once per stream. All subtractions on
// one accumulator use the same value, so their order cannot change the
// rounding, and the rates are bit-identical to filling stream by
// stream; a single n*share subtraction would round differently.
package bus

import (
	"fmt"

	"dmamem/internal/sim"
)

// PCIXBandwidth is the peak transfer rate of one 133 MHz 64-bit PCI-X
// bus in bytes/s. 133 MHz x 8 B = 1.064 GB/s; the paper rounds the
// memory:I/O ratio to 3 with 3.2 GB/s RDRAM, because one 8-byte request
// is served in 4 memory cycles and the next arrives 12 cycles after the
// previous one (Figure 2a).
const PCIXBandwidth = 8.0 / (7500e-12) // exactly one 8 B beat per 12 memory cycles

// Config describes the I/O subsystem.
type Config struct {
	Count     int     // number of I/O buses
	Bandwidth float64 // per-bus bandwidth, bytes/s
}

// DefaultConfig returns the paper's three-PCI-X-bus setup.
func DefaultConfig() Config { return Config{Count: 3, Bandwidth: PCIXBandwidth} }

// Validate reports a descriptive error for nonsensical configs.
func (c Config) Validate() error {
	if c.Count <= 0 {
		return fmt.Errorf("bus: Count must be positive, got %d", c.Count)
	}
	if c.Bandwidth <= 0 {
		return fmt.Errorf("bus: Bandwidth must be positive, got %g", c.Bandwidth)
	}
	return nil
}

// BeatGap is the inter-arrival time of successive 8-byte DMA-memory
// requests of a single stream using the full bus.
func (c Config) BeatGap() sim.Duration {
	return sim.FromSeconds(8.0 / c.Bandwidth)
}

// GatherTarget is the paper's k = ceil(Rm/Rb): the number of distinct
// buses whose combined delivery rate saturates one chip.
func GatherTarget(chipBW, busBW float64) int {
	if chipBW <= 0 || busBW <= 0 {
		panic(fmt.Sprintf("bus: nonpositive bandwidth chip=%g bus=%g", chipBW, busBW))
	}
	k := int(chipBW / busBW)
	if float64(k)*busBW < chipBW {
		k++
	}
	if k < 1 {
		k = 1
	}
	return k
}

// Flow identifies one DMA stream for rate allocation: it runs over Bus
// and targets Chip.
type Flow struct {
	Bus  int
	Chip int
}

// Allocator computes max-min fair rates for a set of flows. It reuses
// scratch buffers across calls, so a single Allocator must not be used
// concurrently.
type Allocator struct {
	busCap  []float64
	chipCap float64
	chips   int

	// Optional third resource: per-channel capacity. When channelOf is
	// nil the allocator behaves exactly as the two-resource original.
	channelOf  []int // chip -> channel
	channelCap []float64

	// Per-resource scratch: remaining capacity and unfrozen flows.
	remBus    []float64
	busCount  []int
	remChip   []float64
	chipCount []int
	remChan   []float64
	chanCount []int
	// activeChips lists the chips with unfrozen flows (and, between
	// calls, those whose chipCount may still be nonzero).
	activeChips []int

	// Class scratch. slot[bus*chips+chip] is 1 + the index in classes
	// of that (bus, chip) pair, or 0 if no flow of this call uses it.
	slot    []int32
	classes []flowClass
	live    []int32 // unfrozen classes
	classOf []int32 // flow -> class
	rates   []float64
}

// flowClass is the set of flows sharing one (bus, chip) pair. They
// cross the same resources, so progressive filling gives them the same
// share every round and freezes them in the same round.
type flowClass struct {
	bus, chip, ch int // ch is the chip's channel, or -1 without channels
	n             int // flows in the class
	rate          float64
}

// NewAllocator builds an allocator for buses with the given capacities
// (bytes/s) and chips numbered [0, chips), each with capacity chipCap.
func NewAllocator(busCap []float64, chips int, chipCap float64) *Allocator {
	if len(busCap) == 0 {
		panic("bus: allocator needs at least one bus")
	}
	for i, c := range busCap {
		if c <= 0 {
			panic(fmt.Sprintf("bus: bus %d capacity %g", i, c))
		}
	}
	if chips <= 0 {
		panic(fmt.Sprintf("bus: allocator needs at least one chip, got %d", chips))
	}
	if chipCap <= 0 {
		panic(fmt.Sprintf("bus: chip capacity %g", chipCap))
	}
	return &Allocator{
		busCap:    busCap,
		chipCap:   chipCap,
		chips:     chips,
		remBus:    make([]float64, len(busCap)),
		busCount:  make([]int, len(busCap)),
		remChip:   make([]float64, chips),
		chipCount: make([]int, chips),
		slot:      make([]int32, len(busCap)*chips),
	}
}

// SetChannels adds a per-channel capacity constraint: flow rates into
// the chips of channel c additionally satisfy sum <= channelCap[c],
// with channelOf mapping each chip index to its channel. Passing a nil
// channelOf removes the constraint. The slices are retained, not
// copied.
func (a *Allocator) SetChannels(channelOf []int, channelCap []float64) {
	if channelOf == nil {
		a.channelOf, a.channelCap = nil, nil
		return
	}
	if len(channelOf) != a.chips {
		panic(fmt.Sprintf("bus: channel map covers %d chips of %d", len(channelOf), a.chips))
	}
	for i, c := range channelCap {
		if c <= 0 {
			panic(fmt.Sprintf("bus: channel %d capacity %g", i, c))
		}
	}
	for chip, ch := range channelOf {
		if ch < 0 || ch >= len(channelCap) {
			panic(fmt.Sprintf("bus: chip %d maps to channel %d of %d", chip, ch, len(channelCap)))
		}
	}
	a.channelOf = channelOf
	a.channelCap = channelCap
	if cap(a.remChan) < len(channelCap) {
		a.remChan = make([]float64, len(channelCap))
		a.chanCount = make([]int, len(channelCap))
	}
}

// Allocate returns the max-min fair rate of each flow, in bytes/s,
// subject to sum(rates on bus b) <= busCap[b] and sum(rates into chip
// c) <= chipCap. The result slice is valid until the next call.
// Filling runs over (bus, chip) classes, bit-identical to filling flow
// by flow (see the package comment).
func (a *Allocator) Allocate(flows []Flow) []float64 {
	if cap(a.rates) < len(flows) {
		a.rates = make([]float64, len(flows))
		a.classOf = make([]int32, len(flows))
	}
	rates := a.rates[:len(flows)]
	classOf := a.classOf[:len(flows)]
	a.group(flows, classOf)
	a.fill()
	for i, k := range classOf {
		rates[i] = a.classes[k].rate
	}
	return rates
}

// group resets the scratch left by the previous call (which may have
// panicked part way), sorts flows into classes and loads every
// resource's capacity and unfrozen-flow count.
func (a *Allocator) group(flows []Flow, classOf []int32) {
	for _, cl := range a.classes {
		a.slot[cl.bus*a.chips+cl.chip] = 0
	}
	a.classes = a.classes[:0]
	for _, c := range a.activeChips {
		a.chipCount[c] = 0
	}
	a.activeChips = a.activeChips[:0]
	copy(a.remBus, a.busCap)
	clear(a.busCount)
	channels := a.channelOf != nil
	if channels {
		copy(a.remChan, a.channelCap)
		clear(a.chanCount[:len(a.channelCap)])
	}

	for i, f := range flows {
		if f.Bus < 0 || f.Bus >= len(a.busCap) {
			panic(fmt.Sprintf("bus: flow references bus %d of %d", f.Bus, len(a.busCap)))
		}
		if f.Chip < 0 || f.Chip >= a.chips {
			panic(fmt.Sprintf("bus: flow references chip %d of %d", f.Chip, a.chips))
		}
		s := f.Bus*a.chips + f.Chip
		k := a.slot[s] - 1
		if k < 0 {
			k = int32(len(a.classes))
			a.slot[s] = k + 1
			ch := -1
			if channels {
				ch = a.channelOf[f.Chip]
			}
			a.classes = append(a.classes, flowClass{bus: f.Bus, chip: f.Chip, ch: ch})
		}
		a.classes[k].n++
		classOf[i] = k
	}
	for _, cl := range a.classes {
		a.busCount[cl.bus] += cl.n
		if a.chipCount[cl.chip] == 0 {
			a.remChip[cl.chip] = a.chipCap
			a.activeChips = append(a.activeChips, cl.chip)
		}
		a.chipCount[cl.chip] += cl.n
		if channels {
			a.chanCount[cl.ch] += cl.n
		}
	}
}

// fill runs progressive filling over the classes grouped by group,
// leaving each class's max-min rate in its rate field.
func (a *Allocator) fill() {
	channels := a.channelOf != nil
	live := a.live[:0]
	for k := range a.classes {
		live = append(live, int32(k))
	}
	for len(live) > 0 {
		// Find the bottleneck resource: the one whose equal share among
		// its unfrozen flows is smallest. Chips left with no unfrozen
		// flow drop out of activeChips here.
		share := -1.0
		for b, n := range a.busCount {
			if n == 0 {
				continue
			}
			s := a.remBus[b] / float64(n)
			if share < 0 || s < share {
				share = s
			}
		}
		chips := a.activeChips[:0]
		for _, c := range a.activeChips {
			n := a.chipCount[c]
			if n == 0 {
				continue
			}
			chips = append(chips, c)
			s := a.remChip[c] / float64(n)
			if share < 0 || s < share {
				share = s
			}
		}
		a.activeChips = chips
		if channels {
			for c, n := range a.chanCount[:len(a.channelCap)] {
				if n == 0 {
					continue
				}
				s := a.remChan[c] / float64(n)
				if share < 0 || s < share {
					share = s
				}
			}
		}
		if share < 0 {
			panic("bus: unfrozen flows but no active resource")
		}
		// Give the share to every unfrozen flow: once per class to the
		// rate, once per flow to each resource it crosses.
		for _, k := range live {
			a.classes[k].rate += share
		}
		for b, n := range a.busCount {
			a.remBus[b] = subtractN(a.remBus[b], share, n)
		}
		for _, c := range a.activeChips {
			a.remChip[c] = subtractN(a.remChip[c], share, a.chipCount[c])
		}
		if channels {
			for c, n := range a.chanCount[:len(a.channelCap)] {
				a.remChan[c] = subtractN(a.remChan[c], share, n)
			}
		}
		// Freeze every class on a saturated resource at its current
		// rate. Capacities are ~1e9 bytes/s, so every subtraction above
		// rounds at ~5e-7, and the bottleneck's remainder can land
		// several ulps away from zero after one share per flow. The
		// threshold must sit far above that accumulated error —
		// otherwise the saturated resource is missed and the stall
		// fallback flat-freezes every flow below its fair rate — while
		// staying physically negligible (1e-3 B/s against GB/s
		// capacities).
		const eps = 1e-3
		kept := live[:0]
		for _, k := range live {
			cl := &a.classes[k]
			if a.remBus[cl.bus] <= eps || a.remChip[cl.chip] <= eps ||
				(channels && a.remChan[cl.ch] <= eps) {
				a.busCount[cl.bus] -= cl.n
				a.chipCount[cl.chip] -= cl.n
				if channels {
					a.chanCount[cl.ch] -= cl.n
				}
				continue
			}
			kept = append(kept, k)
		}
		if len(kept) == len(live) {
			// Numerical stall: freeze everything at current rates.
			break
		}
		live = kept
	}
	a.live = live
}

// subtractN returns rem with share subtracted n times, one rounding
// step each, exactly as n separate per-flow updates would leave it.
func subtractN(rem, share float64, n int) float64 {
	for ; n > 0; n-- {
		rem -= share
	}
	return rem
}
