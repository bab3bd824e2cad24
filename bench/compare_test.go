package main

import "testing"

func TestJudge(t *testing.T) {
	for _, c := range []struct {
		name    string
		a, b    []float64
		better  string
		bound   float64
		verdict string
	}{
		{"unchanged", []float64{100, 101, 99}, []float64{100, 100, 101}, "lower", 0.10, verdictOK},
		{"worse within the bound", []float64{100, 101, 99}, []float64{108, 109, 107}, "lower", 0.10, verdictOK},
		{"better, lower is better", []float64{100, 101, 99}, []float64{50, 51, 49}, "lower", 0.10, verdictOK},
		{"worse beyond the bound", []float64{100, 101, 99}, []float64{120, 121, 119}, "lower", 0.10, verdictRegressed},
		{"throughput fell", []float64{100, 101, 99}, []float64{80, 81, 79}, "higher", 0.10, verdictRegressed},
		{"throughput rose", []float64{100, 101, 99}, []float64{130, 131, 129}, "higher", 0.10, verdictOK},
		{"noisy and overlapping", []float64{60, 100, 140, 100, 90}, []float64{70, 115, 150, 120, 112}, "lower", 0.10, verdictUnresolved},
		{"noisy but disjoint", []float64{60, 100, 140}, []float64{150, 200, 260}, "lower", 0.10, verdictRegressed},
		{"exact count changed", []float64{338.4264}, []float64{338.9}, "lower", 0.001, verdictRegressed},
		{"exact count equal", []float64{338.4264}, []float64{338.4264}, "lower", 0.001, verdictOK},
	} {
		if _, got := judge(c.a, c.b, c.better, c.bound); got != c.verdict {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.verdict)
		}
	}
	if change, _ := judge([]float64{200}, []float64{250}, "lower", 0.1); change != 0.25 {
		t.Errorf("change = %v, want +0.25 relative to A", change)
	}
}
