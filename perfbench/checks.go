package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"dmamem"
)

// defaultSeed is the only seed with recorded reference values. Any
// other seed runs every invariant check but no reference comparison,
// which is how a claim is re-checked on a held-out seed.
const defaultSeed = 1

// refValues pins one report pair (simulation workloads) or one report
// (serve-mix) at the default seed.
type refValues struct {
	BaselineEnergy  float64 `json:",omitempty"`
	TechniqueEnergy float64
	Savings         float64 `json:",omitempty"`
	BaselineUF      float64 `json:",omitempty"`
	TechniqueUF     float64
	Transfers       int64
}

// referenceFile maps workload → pair or config key → values.
type referenceFile struct {
	Seed      uint64
	Workloads map[string]map[string]refValues
}

//go:embed reference.json
var referenceJSON []byte

func loadReference() (referenceFile, error) {
	var ref referenceFile
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return ref, fmt.Errorf("reference.json: %w", err)
	}
	return ref, nil
}

// refChecker compares outputs against the reference at the default
// seed, or collects them when recording a new reference.
type refChecker struct {
	workload string
	active   bool // seed is the default seed
	want     map[string]refValues
	record   map[string]refValues // non-nil when -record-reference is set
}

func newRefChecker(o options) (*refChecker, error) {
	ref, err := loadReference()
	if err != nil {
		return nil, err
	}
	rc := &refChecker{workload: o.workload, active: o.seed == ref.Seed && ref.Seed == defaultSeed}
	rc.want = ref.Workloads[o.workload]
	if o.recordRef {
		if o.seed != defaultSeed {
			return nil, fmt.Errorf("-record-reference needs the default seed %d", defaultSeed)
		}
		rc.record = map[string]refValues{}
	}
	return rc, nil
}

// check compares got with the reference for key.
func (rc *refChecker) check(key string, got refValues) error {
	if rc.record != nil {
		rc.record[key] = got
		return nil
	}
	if !rc.active {
		return nil
	}
	want, ok := rc.want[key]
	if !ok {
		return fmt.Errorf("reference: no value recorded for %s/%s", rc.workload, key)
	}
	if got.Transfers != want.Transfers {
		return fmt.Errorf("reference %s: Transfers %d, want %d", key, got.Transfers, want.Transfers)
	}
	for _, f := range []struct {
		name      string
		got, want float64
	}{
		{"BaselineEnergy", got.BaselineEnergy, want.BaselineEnergy},
		{"TechniqueEnergy", got.TechniqueEnergy, want.TechniqueEnergy},
		{"Savings", got.Savings, want.Savings},
		{"BaselineUF", got.BaselineUF, want.BaselineUF},
		{"TechniqueUF", got.TechniqueUF, want.TechniqueUF},
	} {
		if !relClose(f.got, f.want, 1e-6) {
			return fmt.Errorf("reference %s: %s %.12g, want %.12g", key, f.name, f.got, f.want)
		}
	}
	return nil
}

// writeRecorded merges the recorded values into path's reference file.
func (rc *refChecker) writeRecorded(path string) error {
	if rc.record == nil {
		return nil
	}
	ref, err := loadReference()
	if err != nil {
		return err
	}
	ref.Seed = defaultSeed
	if ref.Workloads == nil {
		ref.Workloads = map[string]map[string]refValues{}
	}
	ref.Workloads[rc.workload] = rc.record
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func relClose(got, want, tol float64) bool {
	if got == want {
		return true
	}
	return math.Abs(got-want) <= tol*math.Max(math.Abs(got), math.Abs(want))
}

// conservation checks that the per-state resident energies plus the
// transition and migration energy add up to the total (they partition
// it by construction).
func conservation(what string, states []float64, transition, migration, total float64) error {
	sum := transition + migration
	for _, e := range states {
		sum += e
	}
	if !relClose(sum, total, 1e-9) {
		return fmt.Errorf("%s: energy not conserved: states+transition+migration = %.15g J, total %.15g J", what, sum, total)
	}
	return nil
}

func reportConservation(what string, r *dmamem.Report) error {
	states := make([]float64, len(r.States))
	for i, s := range r.States {
		states[i] = s.Energy
	}
	return conservation(what, states, r.Breakdown.Transition, r.Breakdown.Migration, r.TotalEnergy)
}

// checkComparison runs every invariant on one Compare result.
func checkComparison(pair string, c *dmamem.Comparison) error {
	if err := reportConservation(pair+" baseline", c.Baseline); err != nil {
		return err
	}
	if err := reportConservation(pair+" technique", c.Technique); err != nil {
		return err
	}
	if c.Baseline.Transfers != c.Technique.Transfers {
		return fmt.Errorf("%s: baseline simulated %d transfers, technique %d", pair, c.Baseline.Transfers, c.Technique.Transfers)
	}
	return nil
}
