package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/experiments"
	"repro/internal/noc"
	"repro/internal/obs"
	"repro/internal/sweepcache"
)

// pointSpec is one point of a POST /v1/sweep body, in the daemon's wire
// format.
type pointSpec struct {
	Design            string `json:"design,omitempty"`
	WidthBytes        int    `json:"width_bytes,omitempty"`
	RFRouters         int    `json:"rf_routers,omitempty"`
	Multicast         string `json:"multicast,omitempty"`
	MulticastLocality int    `json:"multicast_locality,omitempty"`
	Workload          string `json:"workload,omitempty"`
	Seed              int64  `json:"seed,omitempty"`
	Cycles            int64  `json:"cycles,omitempty"`
}

// svcPoint is a point with the key its stored digest is filed under and
// the kind of shortcut selection compiling it costs.
type svcPoint struct {
	key  string
	kind string // "adaptive", "static" or "other"
	spec pointSpec
}

var svcWorkloads = []string{"uniform", "unidf", "bidf", "hotbidf", "1hotspot", "2hotspot", "4hotspot"}

type svcDesign struct {
	name, kind string
	spec       pointSpec
}

// figureDesigns are the distinct designs of the paper's Figures 7, 8
// and 9, as sweep specs.
var figureDesigns = []svcDesign{
	{"baseline-16B", "other", pointSpec{Design: "baseline", WidthBytes: 16}},
	{"baseline-8B", "other", pointSpec{Design: "baseline", WidthBytes: 8}},
	{"baseline-4B", "other", pointSpec{Design: "baseline", WidthBytes: 4}},
	{"static-16B", "static", pointSpec{Design: "static", WidthBytes: 16}},
	{"static-8B", "static", pointSpec{Design: "static", WidthBytes: 8}},
	{"static-4B", "static", pointSpec{Design: "static", WidthBytes: 4}},
	{"adaptive50-16B", "adaptive", pointSpec{Design: "adaptive", WidthBytes: 16, RFRouters: 50}},
	{"adaptive50-8B", "adaptive", pointSpec{Design: "adaptive", WidthBytes: 8, RFRouters: 50}},
	{"adaptive50-4B", "adaptive", pointSpec{Design: "adaptive", WidthBytes: 4, RFRouters: 50}},
	{"adaptive25-16B", "adaptive", pointSpec{Design: "adaptive", WidthBytes: 16, RFRouters: 25}},
	{"vct-loc20", "other", pointSpec{Design: "baseline", WidthBytes: 16, Multicast: "vct", MulticastLocality: 20}},
	{"vct-loc50", "other", pointSpec{Design: "baseline", WidthBytes: 16, Multicast: "vct", MulticastLocality: 50}},
	{"mc-loc20", "other", pointSpec{Design: "baseline", WidthBytes: 16, RFRouters: 50, Multicast: "rf", MulticastLocality: 20}},
	{"mc-loc50", "other", pointSpec{Design: "baseline", WidthBytes: 16, RFRouters: 50, Multicast: "rf", MulticastLocality: 50}},
	{"mcsc-loc20", "adaptive", pointSpec{Design: "adaptive", WidthBytes: 16, RFRouters: 50, Multicast: "rf", MulticastLocality: 20}},
	{"mcsc-loc50", "adaptive", pointSpec{Design: "adaptive", WidthBytes: 16, RFRouters: 50, Multicast: "rf", MulticastLocality: 50}},
}

func makePoint(d svcDesign, workload string, seed, cycles int64) svcPoint {
	s := d.spec
	s.Workload, s.Seed, s.Cycles = workload, seed, cycles
	return svcPoint{key: fmt.Sprintf("%s/%s/s%d/c%d", d.name, workload, seed, cycles), kind: d.kind, spec: s}
}

// hitAdaptiveDesign is svc-hit's one adaptive design. Compiling an
// adaptive point costs 0.4 to 1.2 s depending on the design and the
// trace, so sweeps with different adaptive points would put the latency
// median on a different cost level from run to run. One adaptive point
// gives every sweep the same compile work.
const hitAdaptiveDesign = "adaptive50-4B"

// universe is svc-hit's cached point set: every non-adaptive figure
// design on two traces and the hitAdaptiveDesign on one. 21 points:
// 1 adaptive, 6 static, 14 others.
func universe() []svcPoint {
	var out []svcPoint
	for di, d := range figureDesigns {
		traces := 2
		if d.kind == "adaptive" {
			if d.name != hitAdaptiveDesign {
				continue
			}
			traces = 1
		}
		for j := 0; j < traces; j++ {
			out = append(out, makePoint(d, svcWorkloads[(2*di+j)%len(svcWorkloads)], 1, 2000))
		}
	}
	return out
}

// poolSize bounds svc-mix's fresh points; each has a stored digest, and
// a run never uses one twice. poolDesigns are the designs fresh points
// cycle through: the cheap-to-compile figure designs, so the time goes
// to simulation rather than selection.
const (
	poolSize   = 4096
	poolCycles = 1500
)

var poolDesigns = []int{0, 1, 2, 3, 4, 5, 11, 13}

// poolPoint is svc-mix fresh point i. Its seed is unique in the pool, so
// no run has seen it before.
func poolPoint(i int) svcPoint {
	d := figureDesigns[poolDesigns[i%len(poolDesigns)]]
	w := svcWorkloads[(i/len(poolDesigns))%len(svcWorkloads)]
	return makePoint(d, w, 100000+int64(i), poolCycles)
}

// daemonArgs is README's crash-only configuration: durable state in
// -dir, the job journal, and every simulation in a worker process.
func daemonArgs(stateDir string) []string {
	return []string{
		"-addr", "127.0.0.1:0",
		"-dir", stateDir,
		"-journal", filepath.Join(stateDir, "journal.wal"),
		"-isolate", "-worker-mem", "268435456", "-worker-deadline", "2m",
	}
}

// daemon is one rfsimd process and its worker children, all in their
// own process group so stop can reach every one.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	done   chan struct{}
	stderr *capped
}

// capped keeps the first bytes a process writes, for error reports.
type capped struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (c *capped) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if room := 8192 - c.buf.Len(); room > 0 {
		c.buf.Write(p[:min(len(p), room)])
	}
	return len(p), nil
}

func (c *capped) String() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.buf.String()
}

// startDaemon boots rfsimd on a free loopback port and waits until
// /readyz answers 200.
func startDaemon(ctx context.Context, bin, stateDir string) (*daemon, error) {
	if err := os.MkdirAll(stateDir, 0o755); err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, daemonArgs(stateDir)...)
	// Pdeathsig takes the daemon down with the benchmark even if the
	// benchmark is killed before it can stop the group itself.
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
	d := &daemon{cmd: cmd, done: make(chan struct{}), stderr: &capped{}}
	cmd.Stderr = d.stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting rfsimd: %w", err)
	}
	addr := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "rfsimd listening on "); ok {
				if a, _, ok := strings.Cut(rest, " "); ok {
					addr <- a
				}
			}
		}
		io.Copy(io.Discard, stdout)
		cmd.Wait()
		close(d.done)
	}()
	fail := func(err error) (*daemon, error) {
		d.stop()
		return nil, fmt.Errorf("%w; rfsimd stderr: %s", err, d.stderr.String())
	}
	select {
	case a := <-addr:
		d.base = "http://" + a
	case <-d.done:
		return fail(errors.New("rfsimd exited before listening"))
	case <-time.After(30 * time.Second):
		return fail(errors.New("rfsimd did not listen within 30s"))
	case <-ctx.Done():
		return fail(ctx.Err())
	}
	probe := &http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	for deadline := time.Now().Add(30 * time.Second); ; {
		resp, err := probe.Get(d.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		if time.Now().After(deadline) || ctx.Err() != nil {
			return fail(errors.New("rfsimd not ready within 30s"))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// stop asks the daemon to drain, then kills its whole process group and
// waits until the daemon has exited and no group member is left.
func (d *daemon) stop() {
	pid := d.cmd.Process.Pid
	syscall.Kill(pid, syscall.SIGTERM)
	select {
	case <-d.done:
	case <-time.After(15 * time.Second):
	}
	syscall.Kill(-pid, syscall.SIGKILL)
	<-d.done
	for i := 0; i < 200 && syscall.Kill(-pid, 0) == nil; i++ {
		time.Sleep(25 * time.Millisecond)
	}
}

// svcMetrics is the part of GET /v1/metrics the benchmark reads.
type svcMetrics struct {
	Service obs.ServiceSnapshot          `json:"service"`
	Cache   sweepcache.Stats             `json:"cache"`
	Workers *experiments.WorkerPoolStats `json:"workers"`
}

func (s *svc) metrics() (svcMetrics, error) {
	var m svcMetrics
	resp, err := s.client.Get(s.d.base + "/v1/metrics")
	if err != nil {
		return m, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return m, fmt.Errorf("GET /v1/metrics: %s", resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
		return m, fmt.Errorf("decoding /v1/metrics: %w", err)
	}
	if m.Workers == nil {
		m.Workers = &experiments.WorkerPoolStats{}
	}
	return m, nil
}

// svc drives one daemon: it sends sweeps, checks every stream, and
// remembers each point's first result to compare repeats against.
type svc struct {
	d      *daemon
	client *http.Client
	tr     *tracer
	// pin returns a point's stored digest, or "" when digests are being
	// recorded rather than checked.
	pin func(key string) string

	mu      sync.Mutex
	first   map[string][]byte
	digests map[string]string
}

func newSvc(d *daemon, pin func(string) string) *svc {
	return &svc{
		d:       d,
		client:  &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 4, DisableCompression: true}},
		pin:     pin,
		first:   map[string][]byte{},
		digests: map[string]string{},
	}
}

// close drops the client's connections and stops the daemon.
func (s *svc) close() {
	s.client.CloseIdleConnections()
	s.d.stop()
}

// sweepRecord is what one POST /v1/sweep showed the client.
type sweepRecord struct {
	start         time.Time
	headers, last time.Duration
	firstOutcome  time.Duration
	outcome       int
	cached        int
	cycles        int64 // simulated cycles of the results served
	freshCycles   int64 // of the results computed for this sweep
	bad           []string
	events        []event
}

type streamLine struct {
	Type   string          `json:"type"`
	Index  int             `json:"index"`
	Cached bool            `json:"cached"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
	Points int             `json:"points"`
	Failed int             `json:"failed"`
}

type resultStats struct {
	Stats   noc.Stats
	Drained bool
}

// sweep POSTs one unkeyed sweep and checks its stream: a job line, one
// outcome per point with no error, and a clean summary last. Each result
// is checked against its stored digest, and a repeated point's result
// must be byte-identical to its first computation.
func (s *svc) sweep(ctx context.Context, pts []svcPoint, traced bool, label string) sweepRecord {
	rec := sweepRecord{start: time.Now()}
	specs := make([]pointSpec, len(pts))
	for i, p := range pts {
		specs[i] = p.spec
	}
	body, _ := json.Marshal(map[string]any{"points": specs})
	badf := func(format string, args ...any) {
		rec.bad = append(rec.bad, label+": "+fmt.Sprintf(format, args...))
	}
	ev := func(name string) time.Duration {
		at := time.Since(rec.start)
		if traced {
			rec.events = append(rec.events, event{Name: name, AtNS: s.tr.at(rec.start.Add(at))})
		}
		return at
	}
	defer func() {
		if traced {
			s.tr.record(span{Trace: label, Name: "rfsimd.sweep", StartNS: s.tr.at(rec.start),
				EndNS: s.tr.at(rec.start.Add(rec.last)), Events: rec.events,
				Attrs: map[string]int64{"points": int64(len(pts)), "cached": int64(rec.cached)}}, nil)
		}
	}()

	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.d.base+"/v1/sweep", bytes.NewReader(body))
	if err != nil {
		badf("%v", err)
		return rec
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		rec.last = time.Since(rec.start)
		badf("POST: %v", err)
		return rec
	}
	defer resp.Body.Close()
	rec.headers = ev("headers")
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		rec.last = time.Since(rec.start)
		badf("refused: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
		return rec
	}

	seen := make([]bool, len(pts))
	var summary *streamLine
	r := bufio.NewReader(resp.Body)
	for n := 0; ; n++ {
		raw, err := r.ReadBytes('\n')
		if len(bytes.TrimSpace(raw)) == 0 {
			if err != nil {
				break
			}
			continue
		}
		var ln streamLine
		if jerr := json.Unmarshal(raw, &ln); jerr != nil {
			badf("line %d is not JSON: %v", n, jerr)
			break
		}
		rec.last = ev(ln.Type)
		switch {
		case summary != nil:
			badf("line after the summary: %s", ln.Type)
		case n == 0 && ln.Type != "job":
			badf("stream opens with %q, not a job line", ln.Type)
		case ln.Type == "job":
			if n != 0 {
				badf("second job line")
			}
		case ln.Type == "outcome":
			if rec.outcome == 0 {
				rec.firstOutcome = rec.last
			}
			rec.outcome++
			s.checkOutcome(&rec, pts, seen, ln, badf)
		case ln.Type == "summary":
			l := ln
			summary = &l
		default:
			badf("unexpected line type %q", ln.Type)
		}
		if err != nil {
			break
		}
	}
	switch {
	case summary == nil:
		badf("stream ended without a summary")
	case summary.Points != len(pts) || summary.Failed != 0 || summary.Error != "":
		badf("summary reports %d points, %d failed, error %q", summary.Points, summary.Failed, summary.Error)
	}
	for i, ok := range seen {
		if !ok {
			badf("no outcome for point %d (%s)", i, pts[i].key)
		}
	}
	return rec
}

func (s *svc) checkOutcome(rec *sweepRecord, pts []svcPoint, seen []bool, ln streamLine, badf func(string, ...any)) {
	if ln.Index < 0 || ln.Index >= len(pts) {
		badf("outcome index %d out of range", ln.Index)
		return
	}
	if seen[ln.Index] {
		badf("second outcome for point %d", ln.Index)
		return
	}
	seen[ln.Index] = true
	key := pts[ln.Index].key
	if ln.Error != "" || len(ln.Result) == 0 {
		badf("point %s failed: %q", key, ln.Error)
		return
	}
	var res resultStats
	if err := json.Unmarshal(ln.Result, &res); err != nil {
		badf("point %s result: %v", key, err)
		return
	}
	if !res.Drained {
		badf("point %s did not drain", key)
	}
	rec.cycles += res.Stats.Cycles
	if ln.Cached {
		rec.cached++
	} else {
		rec.freshCycles += res.Stats.Cycles
	}
	dg := statsDigest(res.Stats)
	if want := s.pin(key); want != "" && dg != want {
		badf("point %s digest %s, stored %s", key, dg, want)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if prev, ok := s.first[key]; ok {
		if !bytes.Equal(prev, ln.Result) {
			badf("point %s repeated with a different result", key)
		}
		return
	}
	s.first[key] = append([]byte(nil), ln.Result...)
	s.digests[key] = dg
}

// closedLoop runs clients that each send their next sweep only when the
// previous one has finished, until d has passed. It returns every record
// and the time from the start to the last sweep's end.
func closedLoop(ctx context.Context, clients int, d time.Duration, next func(client int) ([]svcPoint, bool), do func(pts []svcPoint, label string) sweepRecord) ([]sweepRecord, time.Duration) {
	start := time.Now()
	end := start.Add(d)
	var mu sync.Mutex
	var recs []sweepRecord
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; time.Now().Before(end) && ctx.Err() == nil; k++ {
				pts, ok := next(c)
				if !ok {
					return
				}
				rec := do(pts, fmt.Sprintf("c%d-k%d", c, k))
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	return recs, time.Since(start)
}

// svcClients is the closed loop's client count: one per core of the
// 2-core reference box, so load never exceeds what it can run.
const svcClients = 2

// setUp boots a daemon and runs the workload's preparation on it three
// times, each on a fresh daemon and state directory, and keeps the last
// daemon running. Set-up time is the median of the three.
func setUp(b *bench, stateRoot string, prepare func(s *svc) error) (*svc, error) {
	var s *svc
	var times, boots []float64
	for i := 0; i < 3; i++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		d, err := startDaemon(b.ctx, b.rfsimd, filepath.Join(stateRoot, fmt.Sprintf("state%d", i)))
		if err != nil {
			return nil, err
		}
		boots = append(boots, time.Since(t0).Seconds())
		s = newSvc(d, b.svcPin)
		s.tr = b.tr
		if err := prepare(s); err != nil {
			s.close()
			return nil, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	b.set("setup_s", median(times))
	b.info["daemon_boot_s_median"] = median(boots)
	return s, nil
}

// svcPhase is one timed closed loop and the daemon counters around it.
type svcPhase struct {
	recs          []sweepRecord
	window        time.Duration
	before, after svcMetrics
}

func (s *svc) phase(b *bench, d time.Duration, traced bool, next func(client int) ([]svcPoint, bool)) (svcPhase, error) {
	var ph svcPhase
	var err error
	if ph.before, err = s.metrics(); err != nil {
		return ph, err
	}
	ph.recs, ph.window = closedLoop(b.ctx, svcClients, d, next, func(pts []svcPoint, label string) sweepRecord {
		return s.sweep(b.ctx, pts, traced, label)
	})
	if b.ctx.Err() != nil {
		return ph, b.ctx.Err()
	}
	if ph.after, err = s.metrics(); err != nil {
		return ph, err
	}
	for _, r := range ph.recs {
		b.op(r.bad...)
	}
	return ph, nil
}

func (ph svcPhase) pointsPerS() float64 {
	n := 0
	for _, r := range ph.recs {
		n += r.outcome
	}
	return float64(n) / ph.window.Seconds()
}

// reportEndToEnd sets the end-to-end metrics of an untraced phase.
// sim_cycles_per_s counts the simulated cycles of the points the phase
// paid to compute; a phase that computes none (svc-hit) counts the
// cycles of the cached results it served.
func (ph svcPhase) reportEndToEnd(b *bench, fresh bool) {
	var sweeps, firsts []float64
	var cycles int64
	for _, r := range ph.recs {
		sweeps = append(sweeps, float64(r.last)/1e6)
		firsts = append(firsts, float64(r.firstOutcome)/1e6)
		if fresh {
			cycles += r.freshCycles
		} else {
			cycles += r.cycles
		}
	}
	b.set("points_per_s", ph.pointsPerS())
	b.set("sim_cycles_per_s", float64(cycles)/ph.window.Seconds())
	b.set("sweep_p50_ms", median(sweeps))
	v, pct, beyond := tail(sweeps)
	b.set("sweep_tail_ms", v)
	b.set("first_outcome_p50_ms", median(firsts))
	b.info["sweeps"] = len(ph.recs)
	b.info["sweep_tail_percentile"] = pct
	b.info["sweep_tail_samples_beyond"] = beyond
}

// reportLayers sets the per-layer metrics of a traced phase from its
// request spans and the daemon's counters.
func (ph svcPhase) reportLayers(b *bench) {
	var headers, streams []float64
	for _, r := range ph.recs {
		headers = append(headers, float64(r.headers)/1e6)
		streams = append(streams, float64(r.last-r.headers)/1e6)
	}
	b.set("rfsimd.headers_ms_p50", median(headers))
	b.set("rfsimd.stream_ms_p50", median(streams))
	a, z := ph.before, ph.after
	b.set("rfsimd.result_frames", float64(z.Service.ResultFrames-a.Service.ResultFrames))
	b.set("rfsimd.journal_accepted", float64(z.Service.JournalAccepted-a.Service.JournalAccepted))
	b.set("rfsimd.queue_peak", float64(z.Service.QueuePeak))
	b.set("rfsimd.rejected", float64(z.Service.JobsRejected-a.Service.JobsRejected))
	b.set("rfsimd.point_latency_p50_us", float64(z.Service.PointLatencyUS.P50))
	hits, misses, joins := z.Cache.Hits-a.Cache.Hits, z.Cache.Misses-a.Cache.Misses, z.Cache.Joins-a.Cache.Joins
	b.set("sweepcache.hits", float64(hits))
	b.set("sweepcache.misses", float64(misses))
	b.set("sweepcache.joins", float64(joins))
	if lookups := hits + misses + joins; lookups > 0 {
		b.set("sweepcache.hit_ratio", float64(hits)/float64(lookups))
		b.info["sweepcache_lookups"] = lookups
	}
	b.set("workers.spawned", float64(z.Workers.Spawned-a.Workers.Spawned))
	b.set("workers.jobs_dispatched", float64(z.Workers.JobsDispatched-a.Workers.JobsDispatched))
	b.set("workers.crashed", float64(z.Workers.Crashed-a.Workers.Crashed))
}

// runSvc boots the daemon, runs the workload's set-up and its timed
// phase, and always stops the daemon and removes the state directory.
// An untraced run times one phase of --seconds; a traced run times an
// untraced and a traced phase of half that each, so the gap between
// them is the tracing overhead.
func runSvc(b *bench, prepare func(s *svc) error, next func(client int) ([]svcPoint, bool), check func(ph svcPhase), fresh bool) error {
	if err := os.MkdirAll(b.out, 0o755); err != nil {
		return err
	}
	stateRoot, err := os.MkdirTemp(b.out, "svc-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(stateRoot)
	s, err := setUp(b, stateRoot, prepare)
	if err != nil {
		return err
	}
	defer s.close()

	if !b.traced {
		rss := sampleRSS(s.d.cmd.Process.Pid)
		ph, err := s.phase(b, b.seconds, false, next)
		rss.finish(b)
		if err != nil {
			return err
		}
		check(ph)
		ph.reportEndToEnd(b, fresh)
		return nil
	}
	plain, err := s.phase(b, b.seconds/2, false, next)
	if err != nil {
		return err
	}
	check(plain)
	traced, err := s.phase(b, b.seconds/2, true, next)
	if err != nil {
		return err
	}
	check(traced)
	traced.reportLayers(b)
	b.set("trace.overhead_frac", plain.pointsPerS()/traced.pointsPerS()-1)
	return nil
}

// svcPin is the stored digest of a svc point.
func (b *bench) svcPin(key string) string {
	if d, ok := b.pins.Universe[key]; ok {
		return d
	}
	return b.pins.poolDigest(key)
}

func (p *pins) poolDigest(key string) string {
	i, ok := poolIndex[key]
	if !ok || i >= len(p.Pool) {
		return "unpinned"
	}
	return p.Pool[i]
}

var poolIndex = func() map[string]int {
	m := make(map[string]int, poolSize)
	for i := 0; i < poolSize; i++ {
		m[poolPoint(i).key] = i
	}
	return m
}()

// fillUniverse computes every universe point once, in two concurrent
// sweeps that split the adaptive points evenly, so that later sweeps
// over it are all cache hits.
func fillUniverse(ctx context.Context, s *svc, pts []svcPoint) []string {
	var mu sync.Mutex
	var bad []string
	var wg sync.WaitGroup
	chunks := make([][]svcPoint, 2)
	for i, p := range pts {
		chunks[i%2] = append(chunks[i%2], p)
	}
	for i, chunk := range chunks {
		wg.Add(1)
		go func(i int, chunk []svcPoint) {
			defer wg.Done()
			rec := s.sweep(ctx, chunk, false, fmt.Sprintf("fill%d", i))
			mu.Lock()
			bad = append(bad, rec.bad...)
			mu.Unlock()
		}(i, chunk)
	}
	wg.Wait()
	return bad
}

// svc-hit: every timed sweep is a new combination of cached universe
// points, 1 adaptive, 2 static and 5 others, so every request is a new
// job, nothing is simulated, and the time goes to decoding, compiling
// (shortcut selection included), journaling, cache lookups, result-log
// frames and streaming.
const (
	hitAdaptive = 1
	hitStatic   = 2
	hitOther    = 5
)

func runSvcHit(b *bench) error {
	uni := universe()
	byKind := map[string][]svcPoint{}
	for _, p := range uni {
		byKind[p.kind] = append(byKind[p.kind], p)
	}
	var mu sync.Mutex
	used := map[string]bool{}
	rngs := clientRNGs(b.seed)
	next := func(c int) ([]svcPoint, bool) {
		rng := rngs[c]
		for {
			var pts []svcPoint
			for _, part := range []struct {
				kind string
				n    int
			}{{"adaptive", hitAdaptive}, {"static", hitStatic}, {"other", hitOther}} {
				for _, i := range rng.Perm(len(byKind[part.kind]))[:part.n] {
					pts = append(pts, byKind[part.kind][i])
				}
			}
			rng.Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
			var id strings.Builder
			for _, p := range pts {
				id.WriteString(p.key + ";")
			}
			mu.Lock()
			fresh := !used[id.String()]
			used[id.String()] = true
			mu.Unlock()
			if fresh {
				return pts, true
			}
		}
	}
	check := func(ph svcPhase) {
		a, z := ph.before, ph.after
		if dm := z.Cache.Misses - a.Cache.Misses; dm != 0 {
			b.note(fmt.Sprintf("svc-hit timed phase missed the cache %d times", dm))
		}
		if dj := z.Workers.JobsDispatched - a.Workers.JobsDispatched; dj != 0 {
			b.note(fmt.Sprintf("svc-hit timed phase dispatched %d worker jobs", dj))
		}
		for _, r := range ph.recs {
			if r.cached != r.outcome {
				b.note(fmt.Sprintf("svc-hit sweep served %d of %d points uncached", r.outcome-r.cached, r.outcome))
				break
			}
		}
	}
	prepare := func(s *svc) error {
		for _, v := range fillUniverse(b.ctx, s, uni) {
			b.note("cache fill: " + v)
		}
		b.info["sim_digest"] = combineDigests(s.digests)
		if want := combineDigests(b.pins.Universe); combineDigests(s.digests) != want {
			b.note(fmt.Sprintf("universe sim digest %s, stored %s", combineDigests(s.digests), want))
		}
		return nil
	}
	n := float64(hitAdaptive + hitStatic + hitOther)
	b.info["sweep_points"] = int(n)
	b.info["adaptive_point_share"] = hitAdaptive / n
	b.info["static_point_share"] = hitStatic / n
	b.info["universe_points"] = len(uni)
	return runSvc(b, prepare, next, check, false)
}

func clientRNGs(seed int64) []*rand.Rand {
	out := make([]*rand.Rand, svcClients)
	for c := range out {
		out[c] = rand.New(rand.NewSource(seed*1000003 + int64(c)))
	}
	return out
}

// svc-mix: every timed sweep has mixFresh never-seen points, which
// simulate in the daemon's worker processes, and mixRepeat points the
// same client already received, which the cache serves. The designed
// cache-hit share is mixRepeat/(mixFresh+mixRepeat); repeats come only
// from completed points, so the daemon's measured hit ratio must equal
// it exactly.
const (
	mixFresh  = 4
	mixRepeat = 4
	mixWarm   = 8
)

func runSvcMix(b *bench) error {
	// The run walks the pool from a seed-chosen offset: the warm set
	// first, then client c takes every svcClients-th point after it.
	offset := int(uint64(b.seed*7919) % poolSize)
	at := func(j int) svcPoint { return poolPoint((offset + j) % poolSize) }
	warm := make([]svcPoint, mixWarm)
	for j := range warm {
		warm[j] = at(j)
	}
	rngs := clientRNGs(b.seed)
	history := make([][]svcPoint, svcClients)
	freshUsed := make([]int, svcClients)
	pending := make([][]svcPoint, svcClients)
	var fresh, repeats int64
	var mu sync.Mutex
	next := func(c int) ([]svcPoint, bool) {
		// The previous sweep of this client has completed, so its fresh
		// points join the points this client may repeat.
		history[c] = append(history[c], pending[c]...)
		pending[c] = nil
		var pts []svcPoint
		for j := 0; j < mixFresh; j++ {
			n := mixWarm + svcClients*freshUsed[c] + c
			if n >= poolSize {
				b.note("svc-mix ran out of fresh points; raise poolSize")
				return nil, false
			}
			freshUsed[c]++
			pts = append(pts, at(n))
		}
		pending[c] = append(pending[c], pts...)
		cands := append(append([]svcPoint(nil), warm...), history[c]...)
		for _, i := range rngs[c].Perm(len(cands))[:mixRepeat] {
			pts = append(pts, cands[i])
		}
		rngs[c].Shuffle(len(pts), func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
		mu.Lock()
		fresh += mixFresh
		repeats += mixRepeat
		mu.Unlock()
		return pts, true
	}
	check := func(ph svcPhase) {
		a, z := ph.before, ph.after
		var wantHits, wantMisses int64
		for _, r := range ph.recs {
			wantHits += mixRepeat
			wantMisses += mixFresh
			if r.cached != mixRepeat && len(r.bad) == 0 {
				b.note(fmt.Sprintf("svc-mix sweep served %d cached points, designed %d", r.cached, mixRepeat))
			}
		}
		hits, misses, joins := z.Cache.Hits-a.Cache.Hits, z.Cache.Misses-a.Cache.Misses, z.Cache.Joins-a.Cache.Joins
		if lookups := hits + misses + joins; lookups > 0 {
			b.info["measured_hit_share"] = float64(hits) / float64(lookups)
		}
		if hits != wantHits || misses != wantMisses || joins != 0 {
			b.note(fmt.Sprintf("svc-mix cache saw %d hits, %d misses, %d joins; the sweeps sent %d repeats and %d fresh points",
				hits, misses, joins, wantHits, wantMisses))
		}
		if dj := z.Workers.JobsDispatched - a.Workers.JobsDispatched; dj != misses {
			b.note(fmt.Sprintf("svc-mix dispatched %d worker jobs for %d cache misses", dj, misses))
		}
	}
	prepare := func(s *svc) error {
		rec := s.sweep(b.ctx, warm, false, "warm")
		for _, v := range rec.bad {
			b.note("warm-up: " + v)
		}
		return nil
	}
	s := &svc{}
	err := runSvc(b, func(sv *svc) error { s = sv; return prepare(sv) }, next, check, true)
	s.mu.Lock()
	b.info["sim_digest"] = combineDigests(s.digests)
	s.mu.Unlock()
	b.info["designed_hit_share"] = float64(mixRepeat) / float64(mixFresh+mixRepeat)
	b.info["fresh_points_sent"] = fresh
	b.info["repeat_points_sent"] = repeats
	b.info["pool_offset"] = offset
	return err
}
