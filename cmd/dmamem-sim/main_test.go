package main

import (
	"strings"
	"testing"
)

// TestParseTech pins the -tech flag handling: values route through
// the shared tech-list parser (trimming, case folding, registry
// validation), the empty flag means the default technology, and lists
// are rejected with a pointer at dmamem-bench.
func TestParseTech(t *testing.T) {
	cases := []struct {
		in      string
		want    string
		wantErr string
	}{
		{"", "", ""},
		{"  ", "", ""},
		{"rdram", "rdram", ""},
		{" DDR4-2400 ", "ddr4-2400", ""},
		{"sram", "", "unknown memory technology"},
		{"ddr4-2400,lpddr4", "", "dmamem-sim runs one"},
	}
	for _, tc := range cases {
		got, err := parseTech(tc.in)
		if tc.wantErr == "" {
			if err != nil || got != tc.want {
				t.Errorf("parseTech(%q) = %q, %v; want %q", tc.in, got, err, tc.want)
			}
			continue
		}
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("parseTech(%q) = %v, want error containing %q", tc.in, err, tc.wantErr)
		}
	}
}
