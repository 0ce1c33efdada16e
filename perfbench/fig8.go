package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime/metrics"
	"strconv"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/noc"
	"repro/internal/power"
	"repro/internal/shortcut"
	"repro/internal/tech"
	"repro/internal/topology"
	"repro/internal/traffic"
)

// The fig8 workload times experiments.Fig8, the paper's Figure 8
// bandwidth-reduction study: 7 baseline points plus 9 designs x 7
// traces, with one adaptive shortcut selection per trace. 20000
// injection cycles (a third of the default) keep Step and traffic
// generation about half of the work, with selection most of the rest,
// while a call still fits three times in a run.
const (
	fig8Cycles  = 20000
	fig8Workers = 2
	fig8Points  = 7 + 9*7
)

// fig8Seeds is the pool of simulation seeds fig8 draws from. Every seed
// has stored digests, so every fig8 simulation is pinned; a run walks
// the pool from a workload-seed offset and never repeats a seed, so the
// process-wide adaptive-selection memo never hits, as in a fresh CLI run.
var fig8Seeds = []int64{1, 2, 3, 4, 5, 6, 7, 8}

func fig8SimSeed(seed int64, i int) int64 {
	n := uint64(len(fig8Seeds))
	return fig8Seeds[(uint64(seed)+uint64(i))%n]
}

func fig8Options(simSeed int64) experiments.Options {
	return experiments.Options{Cycles: fig8Cycles, Seed: simSeed}
}

func runFig8(b *bench) error {
	experiments.Workers = fig8Workers
	// Set-up is launching a process that loads the benchmark spec, the
	// stored digests and the mesh: what a user's CLI run pays before
	// Fig8 starts. A launch takes milliseconds, so it is timed on 15
	// fresh child processes.
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	var setups []float64
	for i := 0; i < 15; i++ {
		t0 := time.Now()
		cmd := exec.Command(exe, "-setup-probe")
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("set-up probe: %v: %s", err, out)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	b.set("setup_s", median(setups))
	m := topology.New10x10()

	rss := sampleRSS(os.Getpid())
	deadline := time.Now().Add(b.seconds)
	var walls, pointRates, cycleRates []float64
	var alloc, gcCPU, busyCPU float64
	var overheads []float64
	agg := &fig8Layers{}
	for i := 0; i < len(fig8Seeds) && (i == 0 || time.Now().Before(deadline)); i++ {
		if b.ctx.Err() != nil {
			return b.ctx.Err()
		}
		simSeed := fig8SimSeed(b.seed, i)
		pin, ok := b.pins.Fig8[strconv.FormatInt(simSeed, 10)]
		if !ok {
			return fmt.Errorf("no stored digest for simulation seed %d", simSeed)
		}
		before := readRuntime()
		t0 := time.Now()
		r := experiments.Fig8(m, fig8Options(simSeed))
		wall := time.Since(t0).Seconds()
		after := readRuntime()
		alloc += after.allocBytes - before.allocBytes
		gcCPU += after.gcCPU - before.gcCPU
		busyCPU += after.busyCPU - before.busyCPU

		var bad []string
		bad = append(bad, checkFig8Orderings(r)...)
		if got := normDigest(r); got != pin.Norm {
			bad = append(bad, fmt.Sprintf("seed %d: Fig8 digest %s, stored %s", simSeed, got, pin.Norm))
		}
		walls = append(walls, wall)
		pointRates = append(pointRates, fig8Points/wall)
		cycleRates = append(cycleRates, float64(pin.Cycles)/wall)

		if b.traced {
			t1 := time.Now()
			rp := replayFig8(m, fig8Options(simSeed), b.tr, fmt.Sprintf("fig8-s%d", simSeed))
			replayWall := time.Since(t1).Seconds()
			overheads = append(overheads, replayWall/wall-1)
			agg.add(rp)
			bad = append(bad, compareReplay(r, rp)...)
			if rp.undrained > 0 {
				bad = append(bad, fmt.Sprintf("seed %d: %d points did not drain", simSeed, rp.undrained))
			}
			if got := combineDigests(rp.digests); got != pin.Stats {
				bad = append(bad, fmt.Sprintf("seed %d: sim digest %s, stored %s", simSeed, got, pin.Stats))
			}
			if rp.cycles != pin.Cycles {
				bad = append(bad, fmt.Sprintf("seed %d: %d simulated cycles, stored %d", simSeed, rp.cycles, pin.Cycles))
			}
			b.info["sim_digest"] = combineDigests(rp.digests)
		}
		b.op(bad...)
	}

	b.set("points_per_s", median(pointRates))
	b.set("sim_cycles_per_s", median(cycleRates))
	b.set("sweep_p50_ms", 1000*median(walls))
	// Fig8 returns every point at once, so its first outcome arrives
	// when the whole figure does.
	b.set("first_outcome_p50_ms", 1000*median(walls))
	tailV, tailPct, beyond := tail(walls)
	b.set("sweep_tail_ms", 1000*tailV)
	rss.finish(b)
	b.info["sweeps"] = len(walls)
	b.info["sweep_tail_percentile"] = tailPct
	b.info["sweep_tail_samples_beyond"] = beyond
	b.info["sim_seeds"] = fig8SimSeeds(b.seed, len(walls))
	if !b.traced {
		b.info["sim_digest"] = "checked by the traced run; Fig8 returns only normalised points, each matched against its stored digest"
		return nil
	}

	points := float64(len(walls) * fig8Points)
	b.set("go.alloc_bytes_per_point", alloc/points)
	if busyCPU > 0 {
		b.set("go.gc_cpu_frac", gcCPU/busyCPU)
	}
	b.set("trace.overhead_frac", median(overheads))
	agg.addSpans(b.tr.all())
	agg.report(b)
	return nil
}

func fig8SimSeeds(seed int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = fig8SimSeed(seed, i)
	}
	return out
}

// checkFig8Orderings checks the EXPERIMENTS.md Figure 8 orderings on the
// geomean points: baseline power falls from 16 B to 8 B to 4 B, and
// adaptive at 4 B has lower latency than baseline and static at 4 B.
func checkFig8Orderings(r experiments.Fig7Result) []string {
	means := r.Means()
	at := map[string]experiments.NormPoint{}
	for i, d := range r.Designs {
		at[d] = means[i]
	}
	var bad []string
	if !(at["baseline-16B"].Power > at["baseline-8B"].Power && at["baseline-8B"].Power > at["baseline-4B"].Power) {
		bad = append(bad, fmt.Sprintf("baseline power does not fall 16B>8B>4B: %.4f %.4f %.4f",
			at["baseline-16B"].Power, at["baseline-8B"].Power, at["baseline-4B"].Power))
	}
	a4 := at["adaptive50-4B"].Latency
	if !(a4 < at["baseline-4B"].Latency && a4 < at["static-4B"].Latency) {
		bad = append(bad, fmt.Sprintf("adaptive@4B latency %.4f not below baseline@4B %.4f and static@4B %.4f",
			a4, at["baseline-4B"].Latency, at["static-4B"].Latency))
	}
	return bad
}

// normDigest hashes Fig8's normalised latency and power bit for bit.
func normDigest(r experiments.Fig7Result) string {
	h := sha256.New()
	var buf [8]byte
	for di, d := range r.Designs {
		for ti, t := range r.Traces {
			fmt.Fprintf(h, "%s/%s:", d, t)
			p := r.Points[di][ti]
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p.Latency))
			h.Write(buf[:])
			binary.LittleEndian.PutUint64(buf[:], math.Float64bits(p.Power))
			h.Write(buf[:])
		}
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

func compareReplay(r experiments.Fig7Result, rp fig8Replay) []string {
	var bad []string
	for di := range r.Designs {
		for ti := range r.Traces {
			a, b := r.Points[di][ti], rp.norm.Points[di][ti]
			if math.Float64bits(a.Latency) != math.Float64bits(b.Latency) || math.Float64bits(a.Power) != math.Float64bits(b.Power) {
				bad = append(bad, fmt.Sprintf("traced replay of %s/%s gives %v, Fig8 gave %v",
					r.Designs[di], r.Traces[ti], b, a))
			}
		}
	}
	return bad
}

// fig8Replay is one traced replay of Fig8's design points.
type fig8Replay struct {
	norm      experiments.Fig7Result
	digests   map[string]string // point key -> Stats digest
	cycles    int64
	undrained int
	points    []noc.Stats
	drain     []noc.DrainReport
}

// replayFig8 recomputes Fig8 through the layer entry points, in Fig8's
// order and with its worker count, recording one span per point with
// children for selection, profiling, construction, measurement, drain
// and power. Inside measurement only aggregate Tick and Step time is
// kept. The result must equal Fig8's bit for bit.
func replayFig8(m *topology.Mesh, opts experiments.Options, tr *tracer, traceID string) fig8Replay {
	opts = opts.WithDefaults()
	rp := &replayer{m: m, opts: opts, adaptive: map[traffic.Pattern]*adaptiveSel{}}
	pats := traffic.Patterns()
	designs := experiments.Fig8Designs()
	out := fig8Replay{digests: map[string]string{}}
	out.norm = experiments.Fig7Result{
		Traces:  make([]string, len(pats)),
		Designs: make([]string, len(designs)),
		Points:  make([][]experiments.NormPoint, len(designs)),
	}
	for di, d := range designs {
		out.norm.Designs[di] = d.Name()
		out.norm.Points[di] = make([]experiments.NormPoint, len(pats))
	}
	var mu sync.Mutex
	keep := func(key string, pr pointRun) {
		mu.Lock()
		defer mu.Unlock()
		out.digests[key] = statsDigest(pr.stats)
		out.cycles += pr.stats.Cycles
		if !pr.drain.Drained {
			out.undrained++
		}
		out.points = append(out.points, pr.stats)
		out.drain = append(out.drain, pr.drain)
	}

	base := make([]pointRun, len(pats))
	forEachN(len(pats), func(ti int) {
		out.norm.Traces[ti] = pats[ti].String()
		d := experiments.Design{Kind: experiments.Baseline, Width: tech.Width16B}
		base[ti] = rp.point(d, pats[ti], tr, fmt.Sprintf("%s/base/%s", traceID, pats[ti]))
		keep("base/"+pats[ti].String(), base[ti])
	})
	forEachN(len(designs)*len(pats), func(k int) {
		di, ti := k/len(pats), k%len(pats)
		pr := rp.point(designs[di], pats[ti], tr, fmt.Sprintf("%s/%s/%s", traceID, designs[di].Name(), pats[ti]))
		out.norm.Points[di][ti] = experiments.NormPoint{
			Latency: pr.lat / base[ti].lat,
			Power:   pr.pow / base[ti].pow,
		}
		keep(designs[di].Name()+"/"+pats[ti].String(), pr)
	})
	return out
}

// forEachN runs fn(0..n-1) on fig8Workers goroutines pulling indices in
// order, the way experiments' worker pool schedules Fig8's points.
func forEachN(n int, fn func(int)) {
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < fig8Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

type replayer struct {
	m    *topology.Mesh
	opts experiments.Options

	mu       sync.Mutex
	adaptive map[traffic.Pattern]*adaptiveSel
}

// adaptiveSel memoises one trace's adaptive shortcut set across widths,
// as Fig8 does: selection reads the profile and the access points, not
// the link width.
type adaptiveSel struct {
	once  sync.Once
	edges []shortcut.Edge
}

type pointRun struct {
	lat, pow float64
	stats    noc.Stats
	drain    noc.DrainReport
}

func (rp *replayer) point(d experiments.Design, pat traffic.Pattern, tr *tracer, traceID string) pointRun {
	var children []span
	child := func(name string, t0 time.Time, attrs map[string]int64) {
		children = append(children, span{Name: name, StartNS: tr.at(t0), EndNS: tr.at(time.Now()), Attrs: attrs})
	}
	start := time.Now()

	var cfg noc.Config
	switch d.Kind {
	case experiments.Adaptive:
		rp.mu.Lock()
		sel, ok := rp.adaptive[pat]
		if !ok {
			sel = &adaptiveSel{}
			rp.adaptive[pat] = sel
		}
		rp.mu.Unlock()
		sel.once.Do(func() {
			t := time.Now()
			profile := traffic.NewProbabilistic(rp.m, pat, rp.opts.Rate, rp.opts.Seed)
			freq := traffic.FrequencyMatrix(profile, rp.m.N(), rp.opts.ProfileCycles)
			child("traffic.profile", t, nil)
			t = time.Now()
			sel.edges = experiments.AdaptiveShortcuts(rp.m, rp.m.RFPlacement(d.RFRouters), freq, tech.ShortcutBudget)
			child("shortcut.select", t, nil)
		})
		cfg = noc.Config{Mesh: rp.m, Width: d.Width, Multicast: d.Multicast,
			RFEnabled: rp.m.RFPlacement(d.RFRouters), Shortcuts: sel.edges}
	case experiments.Static:
		t := time.Now()
		cfg = experiments.Build(rp.m, d, nil, 0)
		child("shortcut.select", t, nil)
	default:
		cfg = experiments.Build(rp.m, d, nil, 0)
	}
	gen := traffic.NewProbabilistic(rp.m, pat, rp.opts.Rate, rp.opts.Seed)

	t := time.Now()
	n, err := noc.NewChecked(cfg)
	if err != nil {
		panic(fmt.Sprintf("perfbench: Fig8 design %s does not validate: %v", d.Name(), err))
	}
	child("noc.construct", t, nil)

	t = time.Now()
	var tickNS, stepNS int64
	prev := t
	for now := int64(0); now < rp.opts.Cycles; now++ {
		gen.Tick(now, n.Inject)
		t1 := time.Now()
		n.Step()
		t2 := time.Now()
		tickNS += t1.Sub(prev).Nanoseconds()
		stepNS += t2.Sub(t1).Nanoseconds()
		prev = t2
	}
	child("experiments.measure", t, map[string]int64{"tick_ns": tickNS, "step_ns": stepNS, "cycles": rp.opts.Cycles})

	t = time.Now()
	rep := n.DrainWithReport(rp.opts.DrainCycles)
	child("noc.drain", t, map[string]int64{"cycles": rep.CyclesUsed})

	t = time.Now()
	s := n.Stats()
	bd := power.Compute(n.Config(), s)
	power.ComputeArea(n.Config())
	child("power.compute", t, nil)

	tr.record(span{Trace: traceID, Name: "experiments.point", StartNS: tr.at(start), EndNS: tr.at(time.Now())}, children)
	return pointRun{lat: s.AvgFlitLatency(), pow: bd.Total(), stats: s, drain: rep}
}

// fig8Layers sums the traced replays of a run into per-layer metrics.
type fig8Layers struct {
	self                 map[string]int64
	pointNS, constructMS []float64
	tickNS, stepNS       int64
	measureCycles        int64
	drainNS              int64
	selectCalls          int64
	stats                noc.Stats
	drainCycles          int64
}

func (a *fig8Layers) add(rp fig8Replay) {
	for i, st := range rp.points {
		a.stats.RouterTraversals += st.RouterTraversals
		a.stats.FlitsEjected += st.FlitsEjected
		a.stats.PacketsInjected += st.PacketsInjected
		a.stats.MulticastMessages += st.MulticastMessages
		a.stats.Cycles += st.Cycles
		a.drainCycles += rp.drain[i].CyclesUsed
	}
}

// addSpans folds the run's replay spans into per-layer times.
func (a *fig8Layers) addSpans(spans []span) {
	a.self = selfNS(spans)
	for _, s := range spans {
		switch s.Name {
		case "experiments.point":
			a.pointNS = append(a.pointNS, float64(s.durNS()))
		case "noc.construct":
			a.constructMS = append(a.constructMS, float64(s.durNS())/1e6)
		case "experiments.measure":
			a.tickNS += s.Attrs["tick_ns"]
			a.stepNS += s.Attrs["step_ns"]
			a.measureCycles += s.Attrs["cycles"]
		case "noc.drain":
			a.drainNS += s.durNS()
		case "shortcut.select":
			a.selectCalls++
		}
	}
}

func (a *fig8Layers) report(b *bench) {
	// Drain is Step run to quiescence, so Step's cost per cycle and per
	// router traversal counts both the measured window and the drain.
	allStepNS := float64(a.stepNS + a.drainNS)
	b.set("noc.step_ns_per_cycle", allStepNS/float64(a.stats.Cycles))
	b.set("noc.step_ns_per_router_traversal", allStepNS/float64(a.stats.RouterTraversals))
	b.set("noc.router_traversals", float64(a.stats.RouterTraversals))
	b.set("noc.flits_ejected", float64(a.stats.FlitsEjected))
	b.set("noc.construct_ms_p50", median(a.constructMS))
	b.set("noc.drain_s", float64(a.drainNS)/1e9)
	b.set("noc.drain_cycles", float64(a.drainCycles))
	b.set("traffic.tick_ns_per_cycle", float64(a.tickNS)/float64(a.measureCycles))
	b.set("traffic.messages", float64(a.stats.PacketsInjected+a.stats.MulticastMessages))
	b.set("traffic.profile_s", float64(a.self["traffic.profile"])/1e9)
	b.set("shortcut.select_s", float64(a.self["shortcut.select"])/1e9)
	b.set("shortcut.select_calls", float64(a.selectCalls))
	b.set("experiments.point_s_p50", median(a.pointNS)/1e9)
	maxNS := 0.0
	for _, ns := range a.pointNS {
		maxNS = math.Max(maxNS, ns)
	}
	b.set("experiments.point_s_max", maxNS/1e9)
	var busy float64
	for _, ns := range a.pointNS {
		busy += ns
	}
	// Worker-busy time is the sum of point spans; what no layer span
	// covers is the point span's own self time.
	unattributed := float64(a.self["experiments.point"]) / busy
	b.set("experiments.unattributed_frac", unattributed)
	if unattributed > 0.10 {
		b.note(fmt.Sprintf("layer spans cover only %.1f%% of worker-busy time", 100*(1-unattributed)))
	}
	layers := map[string]float64{
		"traffic.tick":    float64(a.tickNS) / busy,
		"noc.step":        float64(a.stepNS) / busy,
		"noc.drain":       float64(a.self["noc.drain"]) / busy,
		"noc.construct":   float64(a.self["noc.construct"]) / busy,
		"shortcut.select": float64(a.self["shortcut.select"]) / busy,
		"traffic.profile": float64(a.self["traffic.profile"]) / busy,
		"power.compute":   float64(a.self["power.compute"]) / busy,
		"measure_loop":    float64(a.self["experiments.measure"]-a.tickNS-a.stepNS) / busy,
	}
	b.info["layer_share_of_worker_busy"] = layers
	b.info["worker_busy_s"] = busy / 1e9
}

// runtimeSample is the Go runtime's allocation and CPU accounting at
// one instant.
type runtimeSample struct {
	allocBytes, gcCPU, busyCPU float64
}

func readRuntime() runtimeSample {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return 0
	}
	return runtimeSample{allocBytes: val(0), gcCPU: val(1), busyCPU: val(2) - val(3)}
}
