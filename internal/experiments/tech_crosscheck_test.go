package experiments

import (
	"reflect"
	"testing"

	"dmamem/internal/core"
	"dmamem/internal/energy"
	"dmamem/internal/sim"
)

// TestRegistryRDRAMBitIdentical proves the names of the registry's
// "rdram" backend resolve to the paper defaults over the full golden
// corpus — every Table 2 workload and scheme. Three configurations per
// point must produce reflect.DeepEqual reports: the canonical name
// (core.Config.Tech = "rdram"), its alias "rdram-1600", and the zero
// value (paper defaults).
func TestRegistryRDRAMBitIdentical(t *testing.T) {
	s := goldenSuite()
	for _, name := range workloadNames {
		tr, err := s.workload(name)
		if err != nil {
			t.Fatalf("workload %s: %v", name, err)
		}
		window := tr.Duration() + 2*sim.Millisecond
		for _, sc := range goldenSchemes() {
			sc := sc
			t.Run(name+"/"+sc.label, func(t *testing.T) {
				def := sc.cfg
				def.MeterWindow = window
				dr, err := core.RunContext(ctx, def, tr)
				if err != nil {
					t.Fatalf("default run: %v", err)
				}
				for _, tech := range []string{"rdram", "rdram-1600"} {
					cfg := def
					cfg.Tech = tech
					r, err := core.RunContext(ctx, cfg, tr)
					if err != nil {
						t.Fatalf("Tech=%s run: %v", tech, err)
					}
					if !reflect.DeepEqual(dr.Report, r.Report) {
						t.Errorf("Tech=%s drifted from the zero-value default:\n%s",
							tech, diffFields("", reflect.ValueOf(r.Report), reflect.ValueOf(dr.Report)))
					}
				}
			})
		}
	}
}

// TestFig10TechAxis exercises the technology dimension of the figure
// 10 grid: the scheme names carry the @tech suffix, the x ratio uses
// each backend's own memory rate, and unknown names fail the whole
// grid before any point runs.
func TestFig10TechAxis(t *testing.T) {
	s := goldenSuite()
	spec := GridSpec{
		Name:      GridFig10,
		Workloads: []string{"Synthetic-St"},
		BusBW:     []float64{1.064e9},
		Techs:     []string{"ddr4-2400", "lpddr4"},
	}
	pts, err := GridRun[SweepPoint](ctx, s, spec)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(spec.Techs) * len(sweepSchemes); len(pts) != want {
		t.Fatalf("got %d points, want %d", len(pts), want)
	}
	for _, p := range pts {
		var tech string
		for _, name := range spec.Techs {
			if p.Scheme == "dma-ta@"+name || p.Scheme == "dma-ta-pl@"+name {
				tech = name
			}
		}
		if tech == "" {
			t.Fatalf("point scheme %q carries no @tech suffix", p.Scheme)
		}
		m, err := energy.Lookup(tech)
		if err != nil {
			t.Fatal(err)
		}
		if want := m.Bandwidth / 1.064e9; p.X != want {
			t.Errorf("%s: x ratio %g, want %g from the %s rate", p.Scheme, p.X, want, tech)
		}
	}
	bad := spec
	bad.Techs = []string{"sram"}
	if _, err := GridRun[SweepPoint](ctx, s, bad); err == nil {
		t.Fatal("unknown technology accepted by the grid")
	}
}
