package noc

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/shortcut"
	"repro/internal/tech"
	"repro/internal/topology"
)

// digestObserver folds every observed event into a running FNV-1a
// digest, giving a compact fingerprint of the full event stream (order
// included) for cross-worker-count comparison.
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

// runWorkers drives cfg with a fixed seeded workload at the given
// worker count and returns the final statistics, a checkpoint of the
// mid-run microarchitectural state, and the event-stream digest.
func runWorkers(t *testing.T, cfg Config, workers int, seed int64) (Stats, []byte, *digestObserver) {
	t.Helper()
	cfg.StepWorkers = workers
	n, err := NewChecked(cfg)
	if err != nil {
		t.Fatalf("NewChecked(workers=%d): %v", workers, err)
	}
	obs := newDigestObserver()
	n.AttachObserver(obs)
	rng := rand.New(rand.NewSource(seed))
	classes := []Class{Request, Data, MemLine}
	for cyc := 0; cyc < 1200; cyc++ {
		if rng.Float64() < 0.7 {
			src, dst := rng.Intn(cfg.Mesh.N()), rng.Intn(cfg.Mesh.N())
			if src != dst {
				n.Inject(Message{Src: src, Dst: dst, Class: classes[rng.Intn(len(classes))], Inject: n.Now()})
			}
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
	// Checkpoint mid-flight: in-flight wormholes, reservations, wheel
	// entries and NI queues must all be byte-identical across worker
	// counts, not just the drained end state.
	snap, err := n.CheckpointState()
	if err != nil {
		t.Fatalf("CheckpointState(workers=%d): %v", workers, err)
	}
	if !n.Drain(2_000_000) {
		t.Fatalf("drain failed (workers=%d, in flight %d)", workers, n.InFlight())
	}
	return n.Stats(), snap, obs
}

// Deterministic parallel stepping: the commit-phase audit reconstructs
// the serial schedule exactly, so every worker count must produce
// bit-identical statistics, checkpoints, and observer event streams.
func TestStepWorkersBitIdentical(t *testing.T) {
	m := topology.New10x10()
	edges := shortcut.SelectMaxCost(m.Graph(), shortcut.Params{
		Budget: 16, Eligible: m.ShortcutEligible,
	})
	cases := []struct {
		name string
		cfg  Config
	}{
		{"baseline-mesh", Config{Mesh: m, Width: tech.Width16B}},
		{"shortcuts-4B", Config{Mesh: m, Width: tech.Width4B, Shortcuts: edges}},
		{"adaptive-shortcuts", Config{Mesh: m, Width: tech.Width4B, Shortcuts: edges, AdaptiveRouting: true}},
		{"rf-multicast", Config{Mesh: m, Width: tech.Width16B, Multicast: MulticastRF, RFEnabled: m.RFPlacement(50)}},
		{"vct-multicast", Config{Mesh: m, Width: tech.Width16B, Multicast: MulticastVCT}},
		{"faulty-integrity", Config{
			Mesh: m, Width: tech.Width16B, Shortcuts: edges,
			Integrity: true,
			Fault:     FaultConfig{MeshBER: 2e-4, RFBER: 1e-3, DuplicateRate: 2e-3, Seed: 7},
			Watchdog:  WatchdogConfig{Enabled: true},
		}},
		// Misroute draws from the fault RNG during RC, which forces the
		// interleaved fallback schedule; worker counts must still agree.
		{"misroute-fallback", Config{
			Mesh: m, Width: tech.Width16B, Shortcuts: edges,
			Integrity: true,
			Fault:     FaultConfig{MisrouteRate: 2e-3, MisdeliverRate: 1e-3, Seed: 11},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			t.Parallel()
			refStats, refSnap, refObs := runWorkers(t, c.cfg, 1, 42)
			if refObs.events == 0 {
				t.Fatal("reference run observed no events")
			}
			for _, w := range []int{2, 4} {
				stats, snap, obs := runWorkers(t, c.cfg, w, 42)
				if !reflect.DeepEqual(stats, refStats) {
					t.Errorf("workers=%d: stats diverge from serial:\n got %+v\nwant %+v", w, stats, refStats)
				}
				if !bytes.Equal(snap, refSnap) {
					t.Errorf("workers=%d: mid-run checkpoint bytes diverge from serial (len %d vs %d)",
						w, len(snap), len(refSnap))
				}
				if obs.h != refObs.h || obs.events != refObs.events {
					t.Errorf("workers=%d: event stream diverges from serial (%d events, digest %x; want %d, %x)",
						w, obs.events, obs.h, refObs.events, refObs.h)
				}
			}
		})
	}
}

// shardRange must partition exactly: contiguous, covering, near-equal.
func TestShardRange(t *testing.T) {
	for total := 0; total <= 23; total++ {
		for shards := 1; shards <= 8; shards++ {
			next := 0
			for i := 0; i < shards; i++ {
				lo, hi := shardRange(total, shards, i)
				if lo != next || hi < lo {
					t.Fatalf("total=%d shards=%d: shard %d = [%d,%d), want lo=%d", total, shards, i, lo, hi, next)
				}
				if sz := hi - lo; sz < total/shards || sz > total/shards+1 {
					t.Fatalf("total=%d shards=%d: shard %d size %d unbalanced", total, shards, i, sz)
				}
				next = hi
			}
			if next != total {
				t.Fatalf("total=%d shards=%d: covered %d", total, shards, next)
			}
		}
	}
}
