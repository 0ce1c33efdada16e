package noc

import (
	"crypto/sha256"
	"flag"
	"fmt"
	"hash/fnv"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/shortcut"
	"repro/internal/tech"
	"repro/internal/topology"
)

var update = flag.Bool("update", false, "rewrite testdata/step.golden from the current simulator")

const stepGoldenPath = "testdata/step.golden"

// digestObserver folds every observed event into a running FNV-1a
// digest, giving a compact fingerprint of the full event stream (order
// included).
type digestObserver struct {
	BaseObserver
	h      uint64
	events int64
}

func newDigestObserver() *digestObserver { return &digestObserver{h: 14695981039346656037} }

func (d *digestObserver) note(format string, args ...any) {
	h := fnv.New64a()
	fmt.Fprintf(h, format, args...)
	d.h = (d.h ^ h.Sum64()) * 1099511628211
	d.events++
}

func (d *digestObserver) PacketInjected(m Message, now int64) { d.note("inj %v %d", m, now) }
func (d *digestObserver) FlitSent(r, p int, now int64)        { d.note("sent %d %d %d", r, p, now) }
func (d *digestObserver) FlitEjected(r int, lat int64)        { d.note("ej %d %d", r, lat) }
func (d *digestObserver) PacketDelivered(m Message, at int64, hops int) {
	d.note("del %v %d %d", m, at, hops)
}
func (d *digestObserver) MulticastDelivered(m Message, at int64) { d.note("mdel %v %d", m, at) }
func (d *digestObserver) FlitCorrupted(r, p int, now int64)      { d.note("corr %d %d %d", r, p, now) }
func (d *digestObserver) Retransmit(r, p, a int, now int64)      { d.note("retx %d %d %d %d", r, p, a, now) }
func (d *digestObserver) IntegrityRetransmit(s, t, a int, now int64) {
	d.note("iretx %d %d %d %d", s, t, a, now)
}
func (d *digestObserver) PacketLost(m Message, now int64)       { d.note("lost %v %d", m, now) }
func (d *digestObserver) WatchdogRecovery(st, a int, now int64) { d.note("wd %d %d %d", st, a, now) }
func (d *digestObserver) LinkFailed(r, p int, now int64)        { d.note("lf %d %d %d", r, p, now) }
func (d *digestObserver) DegradedReroute(r, p int, now int64)   { d.note("rr %d %d %d", r, p, now) }
func (d *digestObserver) DuplicateInjected(r int, now int64)    { d.note("dup %d %d", r, now) }
func (d *digestObserver) DuplicateDropped(r int, m Message, now int64) {
	d.note("dd %d %v %d", r, m, now)
}

// stepCase is one design point of the behaviour corpus: a config driven
// by a seeded workload of rate messages per cycle (the integer part every
// cycle, the fraction as a Bernoulli draw) for cycles cycles.
type stepCase struct {
	name   string
	cfg    Config
	rate   float64
	cycles int
}

// stepCorpus covers the arbitration paths: plain and shortcut meshes,
// adaptive VA, both multicast schemes, the fault and integrity layers
// with the watchdog, and the fault modes that draw during RC. The two
// heavy cases drive the network into saturation, reaching the
// escape-VC switch and (with stuck VCs and a short stall horizon) the
// watchdog's late-RC release path.
func stepCorpus() []stepCase {
	m := topology.New10x10()
	edges := shortcut.SelectMaxCost(m.Graph(), shortcut.Params{
		Budget: 16, Eligible: m.ShortcutEligible,
	})
	light := func(name string, cfg Config) stepCase { return stepCase{name, cfg, 0.7, 1200} }
	return []stepCase{
		light("baseline-mesh", Config{Mesh: m, Width: tech.Width16B}),
		light("shortcuts-4B", Config{Mesh: m, Width: tech.Width4B, Shortcuts: edges}),
		light("adaptive-shortcuts", Config{Mesh: m, Width: tech.Width4B, Shortcuts: edges, AdaptiveRouting: true}),
		light("rf-multicast", Config{Mesh: m, Width: tech.Width16B, Multicast: MulticastRF, RFEnabled: m.RFPlacement(50)}),
		light("vct-multicast", Config{Mesh: m, Width: tech.Width16B, Multicast: MulticastVCT}),
		light("faulty-integrity", Config{
			Mesh: m, Width: tech.Width16B, Shortcuts: edges,
			Integrity: true,
			Fault:     FaultConfig{MeshBER: 2e-4, RFBER: 1e-3, DuplicateRate: 2e-3, Seed: 7},
			Watchdog:  WatchdogConfig{Enabled: true},
		}),
		light("misroute-fallback", Config{
			Mesh: m, Width: tech.Width16B, Shortcuts: edges,
			Integrity: true,
			Fault:     FaultConfig{MisrouteRate: 2e-3, MisdeliverRate: 1e-3, Seed: 11},
		}),
		{"heavy-shortcuts-4B", Config{Mesh: m, Width: tech.Width4B, Shortcuts: edges}, 3, 1500},
		{"heavy-adaptive-stuck-watchdog", Config{
			Mesh: m, Width: tech.Width4B, Shortcuts: edges, AdaptiveRouting: true,
			Fault:    FaultConfig{StuckVCRate: 0.05, CreditLeakRate: 0.02, Seed: 5},
			Watchdog: WatchdogConfig{Enabled: true, CheckEvery: 64, StallHorizon: 256, Grace: 128},
		}, 3, 1500},
	}
}

// runSeeded drives c.cfg with its seeded workload and returns the final
// statistics, a checkpoint of the mid-run microarchitectural state (taken
// with wormholes, reservations, wheel entries and NI queues in flight),
// and the event-stream digest.
func runSeeded(t *testing.T, c stepCase, seed int64) (Stats, []byte, *digestObserver) {
	t.Helper()
	cfg := c.cfg
	n, err := NewChecked(cfg)
	if err != nil {
		t.Fatalf("NewChecked: %v", err)
	}
	obs := newDigestObserver()
	n.AttachObserver(obs)
	rng := rand.New(rand.NewSource(seed))
	classes := []Class{Request, Data, MemLine}
	inject := func() {
		src, dst := rng.Intn(cfg.Mesh.N()), rng.Intn(cfg.Mesh.N())
		if src != dst {
			n.Inject(Message{Src: src, Dst: dst, Class: classes[rng.Intn(len(classes))], Inject: n.Now()})
		}
	}
	whole := int(c.rate)
	frac := c.rate - float64(whole)
	for cyc := 0; cyc < c.cycles; cyc++ {
		for k := 0; k < whole; k++ {
			inject()
		}
		if rng.Float64() < frac {
			inject()
		}
		if (cfg.Multicast == MulticastRF || cfg.Multicast == MulticastVCT) && cyc%40 == 7 {
			banks := cfg.Mesh.Caches()
			n.Inject(Message{
				Src: banks[rng.Intn(len(banks))], Class: Invalidate, Multicast: true,
				DBV: rng.Uint64() | 1, Inject: n.Now(),
			})
		}
		n.Step()
	}
	snap, err := n.CheckpointState()
	if err != nil {
		t.Fatalf("CheckpointState: %v", err)
	}
	if !n.Drain(2_000_000) {
		t.Fatalf("drain failed (in flight %d)", n.InFlight())
	}
	return n.Stats(), snap, obs
}

// stepRecord renders one case's golden block.
func stepRecord(name string, st Stats, snap []byte, obs *digestObserver) string {
	return fmt.Sprintf("== %s\nstats %+v\ncheckpoint sha256:%x\nevents %d fnv:%016x\n",
		name, st, sha256.Sum256(snap), obs.events, obs.h)
}

// readStepGolden splits the golden file into per-case blocks by name.
func readStepGolden(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile(stepGoldenPath)
	if err != nil {
		t.Fatalf("%v (generate with -update)", err)
	}
	blocks := map[string]string{}
	for _, b := range strings.Split(string(raw), "== ")[1:] {
		name, _, _ := strings.Cut(b, "\n")
		blocks[name] = "== " + b
	}
	return blocks
}

// TestStepGolden pins the simulator's behaviour across commits: for each
// corpus config, the final Stats, the SHA-256 of a mid-run checkpoint and
// the observer event count and digest must match testdata/step.golden
// byte for byte. Regenerate only for an intended behaviour change, so the
// diff shows in review:
//
//	go test ./internal/noc -run TestStepGolden -update
func TestStepGolden(t *testing.T) {
	cases := stepCorpus()
	var want map[string]string
	if !*update {
		want = readStepGolden(t)
		if len(want) != len(cases) {
			t.Errorf("golden has %d cases, corpus has %d", len(want), len(cases))
		}
	}
	got := make([]string, len(cases))
	t.Cleanup(func() {
		if !*update || t.Failed() {
			return
		}
		if slices.Contains(got, "") {
			t.Fatal("-update needs the whole corpus; run without a subtest filter")
		}
		if err := os.MkdirAll(filepath.Dir(stepGoldenPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(stepGoldenPath, []byte(strings.Join(got, "")), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d cases)", stepGoldenPath, len(cases))
	})
	for i, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			st, snap, obs := runSeeded(t, c, 42)
			if obs.events == 0 {
				t.Fatal("run observed no events")
			}
			if strings.HasPrefix(c.name, "heavy-") && st.EscapeSwitches == 0 {
				t.Errorf("heavy case never reached the escape path: %+v", st)
			}
			got[i] = stepRecord(c.name, st, snap, obs)
			if *update {
				return
			}
			if w, ok := want[c.name]; !ok {
				t.Errorf("case missing from %s (generate with -update)", stepGoldenPath)
			} else if got[i] != w {
				t.Errorf("behaviour differs from golden:\n got: %s\nwant: %s", got[i], w)
			}
		})
	}
}
