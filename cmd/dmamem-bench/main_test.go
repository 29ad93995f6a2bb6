package main

import (
	"strings"
	"testing"

	"dmamem/internal/experiments"
)

// TestValidateConcurrency pins the rejection of a non-positive
// -parallel and the wording the user sees: the flag name, the bad
// value, and what the minimum means.
func TestValidateConcurrency(t *testing.T) {
	cases := []struct {
		parallel int
		wantErr  string
	}{
		{1, ""},
		{8, ""},
		{0, "-parallel 0 must be at least 1"},
		{-3, "-parallel -3 must be at least 1"},
	}
	for _, tc := range cases {
		err := validateConcurrency(tc.parallel)
		if tc.wantErr == "" {
			if err != nil {
				t.Errorf("validateConcurrency(%d) = %v, want nil", tc.parallel, err)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("validateConcurrency(%d) = %v, want error containing %q",
				tc.parallel, err, tc.wantErr)
		}
	}
}

// TestTechFlagParsing pins the -tech flag path: the comma list routes
// through the shared experiments.ParseTechList helper, so entries are
// trimmed and case-folded, unknown names fail with the registry's
// enumeration, and duplicates (aliases included) are rejected.
func TestTechFlagParsing(t *testing.T) {
	got, err := experiments.ParseTechList(" DDR4-2400, lpddr4 ")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "ddr4-2400" || got[1] != "lpddr4" {
		t.Fatalf("got %v", got)
	}
	if got, err := experiments.ParseTechList(""); err != nil || got != nil {
		t.Fatalf("empty flag: %v, %v", got, err)
	}
	if _, err := experiments.ParseTechList("sram"); err == nil ||
		!strings.Contains(err.Error(), "unknown memory technology") {
		t.Fatalf("unknown tech error: %v", err)
	}
	if _, err := experiments.ParseTechList("rdram,rdram-1600"); err == nil ||
		!strings.Contains(err.Error(), "duplicates") {
		t.Fatalf("alias duplicate error: %v", err)
	}
}
