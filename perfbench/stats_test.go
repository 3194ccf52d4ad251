package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestHighestPercentileNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		ok   bool
		want float64
	}{
		{n: 19, ok: false},
		{n: 20, p: 50, ok: true, want: 10.5},
		{n: 99, p: 50, ok: true, want: 50},
		{n: 100, p: 90, ok: true, want: 90.1},
		{n: 999, p: 90, ok: true},
		{n: 1000, p: 99, ok: true},
	}
	for _, c := range cases {
		p, v, ok := highestPercentile(seq(c.n))
		if ok != c.ok || p != c.p {
			t.Errorf("n=%d: got p%v ok=%v, want p%v ok=%v", c.n, p, ok, c.p, c.ok)
			continue
		}
		if c.want != 0 && math.Abs(v-c.want) > 1e-9 {
			t.Errorf("n=%d: p%v = %v, want %v", c.n, p, v, c.want)
		}
		if ok && beyondCount(c.n, p) < 10 {
			t.Errorf("n=%d: p%v has only %d samples beyond it", c.n, p, beyondCount(c.n, p))
		}
	}
}

func TestQuantileAndGeomean(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if xs[0] != 4 {
		t.Error("median reordered its input")
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("max = %v, want 4", got)
	}
	if got := geomean([]float64{1, 100}); math.Abs(got-10) > 1e-9 {
		t.Errorf("geomean = %v, want 10", got)
	}
}

func TestLatencyIsPerProgram(t *testing.T) {
	// Two programs, one ten times slower. A plain median over the samples
	// would sit between them; the per-program median's geomean does not
	// depend on how many samples each program got.
	var s []sample
	for i := 0; i < 5; i++ {
		s = append(s, sample{item: 0, sec: 1}, sample{item: 1, sec: 10})
	}
	s = append(s, sample{item: 1, sec: 10})
	if got := latencyP50(s); math.Abs(got-math.Sqrt(10)) > 1e-9 {
		t.Errorf("latencyP50 = %v, want sqrt(10)", got)
	}
	slow := []sample{{item: 0, sec: 2}, {item: 1, sec: 20}, {item: 2, sec: 7}}
	if got := pairedRatio(slow, s); math.Abs(got-2) > 1e-9 {
		t.Errorf("pairedRatio = %v, want 2 over the shared items", got)
	}
}
