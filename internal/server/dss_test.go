package server

import (
	"testing"

	"dmamem/internal/sim"
	"dmamem/internal/trace"
)

func shortDSS() DSSConfig {
	c := DefaultDSS()
	c.Duration = 40 * sim.Millisecond
	return c
}

func TestGenerateDSSShape(t *testing.T) {
	res, err := GenerateDSS(shortDSS())
	if err != nil {
		t.Fatal(err)
	}
	tr := res.Trace
	if err := checkRecords(tr); err != nil {
		t.Fatal(err)
	}
	st := trace.Analyze(tr)
	// Scan traffic dominates: far more disk DMAs than network results.
	if st.DiskTransfers < 10*st.NetTransfers {
		t.Fatalf("disk %d vs net %d: scans should dominate", st.DiskTransfers, st.NetTransfers)
	}
	// Transfers are large read-ahead units (8 pages).
	if st.MeanTransferPages() < 6 {
		t.Fatalf("mean transfer = %.1f pages, want large units", st.MeanTransferPages())
	}
	if st.ProcAccesses != 0 {
		t.Fatal("DSS model emits no processor accesses")
	}
	if res.Queries == 0 || res.MeanResp <= 0 {
		t.Fatalf("queries=%d resp=%v", res.Queries, res.MeanResp)
	}
	// DSS queries take many milliseconds (streaming a multi-MB scan).
	if res.MeanResp < sim.Duration(2*sim.Millisecond) {
		t.Fatalf("mean response %v implausibly fast for a scan", res.MeanResp)
	}
}

func TestGenerateDSSSequentialFrames(t *testing.T) {
	res, err := GenerateDSS(shortDSS())
	if err != nil {
		t.Fatal(err)
	}
	// Records stay within memory.
	frames := DefaultDSS().Frames
	for _, r := range res.Trace.Records {
		if int(r.Page)+int(r.Pages) > frames {
			t.Fatalf("record outside memory: %+v", r)
		}
	}
}

func TestGenerateDSSDeterminism(t *testing.T) {
	cfg := shortDSS()
	cfg.Duration = 20 * sim.Millisecond
	a, err := GenerateDSS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateDSS(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Trace.Records) != len(b.Trace.Records) {
		t.Fatal("nondeterministic")
	}
	for i := range a.Trace.Records {
		if a.Trace.Records[i] != b.Trace.Records[i] {
			t.Fatalf("record %d differs", i)
		}
	}
}

func TestGenerateDSSValidation(t *testing.T) {
	bad := DefaultDSS()
	bad.QueryRatePerMs = 0
	if _, err := GenerateDSS(bad); err == nil {
		t.Error("zero rate accepted")
	}
	bad = DefaultDSS()
	bad.TransferPages = bad.ScanPages + 1
	if _, err := GenerateDSS(bad); err == nil {
		t.Error("oversized transfer unit accepted")
	}
	bad = DefaultDSS()
	bad.Frames = 10
	if _, err := GenerateDSS(bad); err == nil {
		t.Error("scan larger than memory accepted")
	}
	bad = DefaultDSS()
	bad.ResultFraction = 2
	if _, err := GenerateDSS(bad); err == nil {
		t.Error("bad result fraction accepted")
	}
}
