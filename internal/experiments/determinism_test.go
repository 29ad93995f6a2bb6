package experiments

import (
	"reflect"
	"testing"

	"dmamem/internal/metrics"
)

// TestParallelDeterminism is the regression gate for the parallel
// runner: a full experiment run at parallel=8 must produce results,
// rendered tables and metrics.Report values identical to the
// sequential run. Anything less means parallelism leaked into the
// simulation.
func TestParallelDeterminism(t *testing.T) {
	seq := testSuite()
	par := testSuite()
	par.Runner = &Runner{Parallel: 8, Timings: &metrics.Timings{}}

	cps := []float64{0.05, 0.30}

	seqT2, err := seq.Table2(ctx)
	if err != nil {
		t.Fatal(err)
	}
	parT2, err := par.Table2(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqT2, parT2) {
		t.Error("Table2 rows differ between sequential and parallel runs")
	}
	if FormatTable2(seqT2) != FormatTable2(parT2) {
		t.Error("Table2 rendering differs")
	}

	seqF2b, err := seq.Fig2b(ctx)
	if err != nil {
		t.Fatal(err)
	}
	parF2b, err := par.Fig2b(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqF2b, parF2b) {
		t.Error("Fig2b breakdowns differ")
	}
	if FormatBreakdowns("fig2b", seqF2b) != FormatBreakdowns("fig2b", parF2b) {
		t.Error("Fig2b rendering differs")
	}

	seqF5, err := seq.Fig5(ctx, cps, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	parF5, err := par.Fig5(ctx, cps, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seqF5, parF5) {
		t.Error("Fig5 points differ between sequential and parallel runs")
	}
	if FormatFig5(seqF5) != FormatFig5(parF5) {
		t.Error("Fig5 rendering differs")
	}

	if par.Runner.Timings.Count() == 0 {
		t.Error("parallel run recorded no job timings")
	}
}
