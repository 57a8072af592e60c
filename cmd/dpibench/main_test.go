package main

import (
	"strings"
	"testing"

	"dpiservice/internal/bench"
)

func TestGateFailure(t *testing.T) {
	for _, tc := range []struct {
		name string
		cmp  []bench.Comparison
		want string // substring of the failure; "" = pass
	}{
		{"nothing compared", nil, "no overlapping records"},
		{"within bound", []bench.Comparison{{Name: "a", DeltaPct: -14}, {Name: "b", DeltaPct: 30}}, ""},
		{"one regressed", []bench.Comparison{{Name: "a", DeltaPct: -14}, {Name: "b", DeltaPct: -20}}, "1 record(s) regressed more than 15%"},
	} {
		got := gateFailure(tc.cmp, 15)
		if tc.want == "" && got != "" || tc.want != "" && !strings.Contains(got, tc.want) {
			t.Errorf("%s: gateFailure = %q, want %q", tc.name, got, tc.want)
		}
	}
}
