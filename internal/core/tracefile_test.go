package core

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dmamem/internal/controller"
	"dmamem/internal/layout"
	"dmamem/internal/memsys"
	"dmamem/internal/sim"
	"dmamem/internal/trace"
)

// plCfg returns the paper's PL defaults with the given group count.
func plCfg(groups int) *layout.Config {
	cfg := layout.DefaultConfig()
	cfg.Groups = groups
	return &cfg
}

// saveDMT writes a trace to a temp .dmt file and returns its path.
func saveDMT(t *testing.T, tr *trace.Trace, chunk int) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.dmt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.WriteDMT(f, trace.WriterOptions{ChunkRecords: chunk}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunFileMatchesRunMemory pins the tentpole's gate at the core
// level: a file-backed run must produce a report (and calibration, and
// layout statistics) deeply equal to the in-memory run of the same
// records, for every scheme and for chunk sizes that exercise many
// chunk boundaries as well as a single chunk.
func TestRunFileMatchesRunMemory(t *testing.T) {
	tr := stTrace(t, 10*sim.Millisecond)
	schemes := map[string]Config{
		"baseline":  {},
		"dma-ta":    {TA: controller.DefaultTA(0), CPLimit: 0.10},
		"dma-ta-pl": {TA: controller.DefaultTA(0), CPLimit: 0.10, PL: plCfg(2)},
	}
	for _, chunk := range []int{7, 4096} {
		path := saveDMT(t, tr, chunk)
		for name, cfg := range schemes {
			mem, err := Run(cfg, tr)
			if err != nil {
				t.Fatalf("%s in-memory: %v", name, err)
			}
			fcfg := cfg
			fcfg.TraceFile = path
			file, err := Run(fcfg, nil)
			if err != nil {
				t.Fatalf("%s file-backed (chunk %d): %v", name, chunk, err)
			}
			if !reflect.DeepEqual(mem, file) {
				t.Errorf("%s (chunk %d): file-backed result differs from in-memory\nmem:  %+v\nfile: %+v",
					name, chunk, mem, file)
			}
		}
	}
}

// TestRunPairFileBacked checks the pair runner accepts a nil trace
// with TraceFile configs and agrees with the in-memory pair.
func TestRunPairFileBacked(t *testing.T) {
	tr := stTrace(t, 5*sim.Millisecond)
	path := saveDMT(t, tr, 512)
	base := Config{TraceFile: path}
	tech := Config{TraceFile: path, TA: controller.DefaultTA(0), CPLimit: 0.10}
	fb, ft, fs, err := RunPair(context.Background(), base, tech, nil)
	if err != nil {
		t.Fatal(err)
	}
	mb, mt, ms, err := RunPair(context.Background(), Config{}, Config{TA: controller.DefaultTA(0), CPLimit: 0.10}, tr)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(mb, fb) || !reflect.DeepEqual(mt, ft) || ms != fs {
		t.Fatal("file-backed pair differs from in-memory pair")
	}
}

// TestRunFileErrors pins the loud failure modes of the file path.
func TestRunFileErrors(t *testing.T) {
	if _, err := Run(Config{}, nil); err == nil || !strings.Contains(err.Error(), "TraceFile") {
		t.Fatalf("nil trace without TraceFile: %v", err)
	}
	tr := stTrace(t, sim.Millisecond)
	path := saveDMT(t, tr, 64)
	if _, err := Run(Config{TraceFile: path}, tr); err == nil {
		t.Fatal("both trace and TraceFile accepted")
	}
	if _, err := Run(Config{TraceFile: filepath.Join(t.TempDir(), "missing.dmt")}, nil); err == nil {
		t.Fatal("missing file accepted")
	}

	// Empty container.
	empty := saveDMT(t, &trace.Trace{Name: "empty"}, 64)
	if _, err := Run(Config{TraceFile: empty}, nil); err == nil || !strings.Contains(err.Error(), "empty trace") {
		t.Fatalf("empty container: %v", err)
	}

	// Semantic violations the codec representation allows must fail
	// with the in-memory path's wording.
	zero := &trace.Trace{Name: "zdma", Records: []trace.Record{{Time: 0, Kind: trace.DMARead, Pages: 0}}}
	if _, err := Run(Config{TraceFile: saveDMT(t, zero, 64)}, nil); err == nil || !strings.Contains(err.Error(), "zero-page DMA") {
		t.Fatalf("zero-page DMA: %v", err)
	}
	oob := &trace.Trace{Name: "oob", Records: []trace.Record{
		{Time: 0, Kind: trace.DMARead, Pages: 4, Page: memsys.PageID(memsys.Default().TotalPages() - 1)},
	}}
	if _, err := Run(Config{TraceFile: saveDMT(t, oob, 64)}, nil); err == nil || !strings.Contains(err.Error(), "outside memory") {
		t.Fatalf("out-of-range page: %v", err)
	}

	// A truncated container must fail loudly, not simulate a prefix.
	full := saveDMT(t, stTrace(t, sim.Millisecond), 8)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	cut := filepath.Join(t.TempDir(), "cut.dmt")
	if err := os.WriteFile(cut, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(Config{TraceFile: cut}, nil); err == nil {
		t.Fatal("truncated container accepted")
	}
}

// dbTrace returns a short Synthetic-Db trace shared by tests.
func dbTrace(t *testing.T, d sim.Duration) *trace.Trace {
	t.Helper()
	w, err := SyntheticDbWorkload(d, 2)
	if err != nil {
		t.Fatal(err)
	}
	return w.Trace
}

// TestFileErrorWordingMatchesMemory pins error parity: the two trace
// paths must return character-identical errors on the same
// malformed records, including when a trace-level violation (checked
// first in-memory, across the whole trace) coexists with an earlier
// page-range violation.
func TestFileErrorWordingMatchesMemory(t *testing.T) {
	maxPage := memsys.PageID(memsys.Default().TotalPages())
	cases := []struct {
		name string
		tr   *trace.Trace
	}{
		{"zero-page after range violation", &trace.Trace{Name: "mixed", Records: []trace.Record{
			{Time: 0, Kind: trace.DMARead, Pages: 4, Page: maxPage - 1},
			{Time: 1, Kind: trace.DMARead, Pages: 0, Page: 0},
		}}},
		{"range violation only", &trace.Trace{Name: "oob", Records: []trace.Record{
			{Time: 0, Kind: trace.DMARead, Pages: 2, Page: 5},
			{Time: 3, Kind: trace.DMAWrite, Pages: 8, Page: maxPage - 2},
		}}},
		{"zero-page only", &trace.Trace{Name: "zdma", Records: []trace.Record{
			{Time: 0, Kind: trace.DMARead, Pages: 2, Page: 0},
			{Time: 2, Kind: trace.DMAWrite, Pages: 0, Page: 9},
		}}},
	}
	for _, tc := range cases {
		_, memErr := Run(Config{}, tc.tr)
		if memErr == nil {
			t.Fatalf("%s: in-memory run accepted malformed trace", tc.name)
		}
		_, fileErr := Run(Config{TraceFile: saveDMT(t, tc.tr, 64)}, nil)
		if fileErr == nil {
			t.Fatalf("%s: file-backed run accepted malformed trace", tc.name)
		}
		if memErr.Error() != fileErr.Error() {
			t.Errorf("%s: error wording diverges\nmem:  %s\nfile: %s", tc.name, memErr, fileErr)
		}
	}
}

// TestWarmupFractionCrossPath pins warm-up parity: warm-up counts must
// truncate identically on both paths at fractional values,
// keeping reports bit-identical; out-of-range fractions fail loudly
// with the same wording instead of panicking (in-memory) or silently
// warming everything (file).
func TestWarmupFractionCrossPath(t *testing.T) {
	traces := map[string]*trace.Trace{
		"Synthetic-St": stTrace(t, 5*sim.Millisecond),
		"Synthetic-Db": dbTrace(t, 5*sim.Millisecond),
	}
	for wname, tr := range traces {
		path := saveDMT(t, tr, 512)
		for _, frac := range []float64{0.1, 0.33, 0.5} {
			cfg := Config{
				TA: controller.DefaultTA(0), CPLimit: 0.10, PL: plCfg(2),
				WarmupFraction: frac,
			}
			mem, err := Run(cfg, tr)
			if err != nil {
				t.Fatalf("%s frac=%g in-memory: %v", wname, frac, err)
			}
			fcfg := cfg
			fcfg.TraceFile = path
			file, err := Run(fcfg, nil)
			if err != nil {
				t.Fatalf("%s frac=%g file: %v", wname, frac, err)
			}
			if !reflect.DeepEqual(mem, file) {
				t.Errorf("%s frac=%g: file-backed result differs from in-memory", wname, frac)
			}
		}
		for _, frac := range []float64{-0.5, 1.5} {
			cfg := Config{PL: plCfg(2), WarmupFraction: frac}
			_, memErr := Run(cfg, tr)
			fcfg := cfg
			fcfg.TraceFile = path
			_, fileErr := Run(fcfg, nil)
			if memErr == nil || fileErr == nil {
				t.Fatalf("%s frac=%g accepted (mem=%v file=%v)", wname, frac, memErr, fileErr)
			}
			if memErr.Error() != fileErr.Error() {
				t.Errorf("%s frac=%g: rejection wording diverges\nmem:  %s\nfile: %s", wname, frac, memErr, fileErr)
			}
			if !strings.Contains(memErr.Error(), "WarmupFraction") {
				t.Errorf("%s frac=%g: unclear rejection %q", wname, frac, memErr)
			}
		}
	}
}
