package main

import (
	"fmt"
	"testing"

	"repro/internal/noc"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{3}, 3},
		{[]float64{5, 1, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %v, want %v", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("median reordered its input: %v", in)
	}
}

func TestTail(t *testing.T) {
	// Too few samples for any percentile with ten beyond it: the
	// maximum, flagged as unsupported.
	if v, pct, beyond := tail([]float64{4, 9, 1}); v != 9 || pct != 100 || beyond != 0 {
		t.Errorf("tail of 3 samples = %v, %v, %v; want 9, 100, 0", v, pct, beyond)
	}
	if v, _, beyond := tail(make([]float64, 10)); v != 0 || beyond != 0 {
		t.Errorf("tail of 10 samples = %v with %d beyond; want the max with 0", v, beyond)
	}
	// 40 samples 1..40: the 30th value has exactly ten above it, at the
	// 75th percentile.
	xs := make([]float64, 40)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1)
	}
	v, pct, beyond := tail(xs)
	if v != 30 || pct != 75 || beyond != 10 {
		t.Errorf("tail of 1..40 = %v at p%v with %d beyond; want 30 at p75 with 10", v, pct, beyond)
	}
	above := 0
	for _, x := range xs {
		if x > v {
			above++
		}
	}
	if above != tailSamples {
		t.Errorf("%d samples lie above the tail, want %d", above, tailSamples)
	}
}

func TestTally(t *testing.T) {
	var tl tally
	tl.op()
	tl.op("wrong result", "missing summary")
	tl.op()
	if tl.attempted != 3 || tl.failed != 1 {
		t.Errorf("attempted %d failed %d, want 3 and 1: an operation fails once however many checks it breaks", tl.attempted, tl.failed)
	}
	if len(tl.violations) != 2 || tl.correct() {
		t.Errorf("violations %v, correct %v", tl.violations, tl.correct())
	}

	var clean tally
	clean.op()
	if !clean.correct() {
		t.Error("a run with no violations is not correct")
	}
	clean.note("ordering broken")
	if clean.correct() || clean.attempted != 1 || clean.failed != 0 {
		t.Errorf("a workload-level note must make the run incorrect without counting an operation: %+v", clean)
	}

	var many tally
	for i := 0; i < 3*maxViolations; i++ {
		many.op(fmt.Sprint("violation ", i))
	}
	if many.failed != 3*maxViolations || len(many.violations) != maxViolations+1 {
		t.Errorf("failed %d, kept %d violations; want every failure counted and the list capped", many.failed, len(many.violations))
	}
}

func TestDigestStability(t *testing.T) {
	s := noc.Stats{Cycles: 20054, PacketsInjected: 1234, FlitsEjected: 5678, MsgsByDistance: []int64{0, 3, 4}}
	// The stored pins are only comparable while this digest is. If noc.Stats
	// changes shape on purpose, regenerate pins.json with -update-pins and
	// update this value.
	const want = "ffda2bbd"
	if got := statsDigest(s); got != want {
		t.Errorf("statsDigest = %s, want %s", got, want)
	}
	copied := s
	copied.MsgsByDistance = append([]int64(nil), s.MsgsByDistance...)
	if statsDigest(copied) != statsDigest(s) {
		t.Error("equal Stats digest differently")
	}
	copied.HopSum++
	if statsDigest(copied) == statsDigest(s) {
		t.Error("a one-counter change leaves the digest unchanged")
	}

	a := combineDigests(map[string]string{"x": "1", "y": "2", "z": "3"})
	b := map[string]string{}
	for _, k := range []string{"z", "x", "y"} {
		b[k] = map[string]string{"x": "1", "y": "2", "z": "3"}[k]
	}
	if combineDigests(b) != a {
		t.Error("combined digest depends on insertion order")
	}
	if combineDigests(map[string]string{"x": "1", "y": "3", "z": "2"}) == a {
		t.Error("combined digest ignores which point has which digest")
	}
}
