package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"

	"repro/internal/noc"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tailSamples is how many samples must lie beyond a reported tail.
const tailSamples = 10

// tail returns the highest percentile of xs that has at least
// tailSamples samples above it: with n samples sorted ascending that is
// the (n-tailSamples)th, at percentile 100*(n-tailSamples)/n. With too
// few samples for any such percentile it returns the maximum, pct 100
// and beyond 0, so the caller can say the tail is unsupported.
func tail(xs []float64) (value, pct float64, beyond int) {
	if len(xs) == 0 {
		return 0, 0, 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n <= tailSamples {
		return s[n-1], 100, 0
	}
	return s[n-tailSamples-1], 100 * float64(n-tailSamples) / float64(n), tailSamples
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// tally counts operations attempted and failed. An operation fails when
// it errors, is refused, or returns a wrong output; every violation is
// kept (up to a cap) so the run can say what went wrong.
type tally struct {
	attempted  int64
	failed     int64
	violations []string
}

const maxViolations = 20

// op records one operation and the violations it showed; any violation
// fails the operation once, however many checks it broke.
func (t *tally) op(violations ...string) {
	t.attempted++
	if len(violations) == 0 {
		return
	}
	t.failed++
	for _, v := range violations {
		t.note(v)
	}
}

// note records a violation that is not tied to one operation (a
// workload-level check such as a figure ordering). It makes the run
// incorrect without changing the operation counts.
func (t *tally) note(v string) {
	if len(t.violations) < maxViolations {
		t.violations = append(t.violations, v)
	} else if len(t.violations) == maxViolations {
		t.violations = append(t.violations, "further violations omitted")
	}
}

func (t *tally) correct() bool { return len(t.violations) == 0 && t.failed == 0 }

// statsDigest is the behaviour pin of one simulation: a short hash of
// its canonical JSON Stats. JSON rather than the in-memory layout keeps
// it stable across processes and matches what the daemon streams.
func statsDigest(s noc.Stats) string {
	blob, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("perfbench: marshal stats: %v", err))
	}
	sum := sha256.Sum256(blob)
	return hex.EncodeToString(sum[:4])
}

// combineDigests folds per-point digests, keyed by point, into one
// digest that does not depend on the order the points completed in.
func combineDigests(byKey map[string]string) string {
	keys := make([]string, 0, len(byKey))
	for k := range byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		fmt.Fprintf(h, "%s=%s\n", k, byKey[k])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}
