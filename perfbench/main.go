// Command perfbench is the repository benchmark. It runs one named
// workload against this checkout's simulator (fig8) or sweep daemon
// (svc-hit, svc-mix), checks every output, and prints every metric that
// BENCHMARK.json declares, by name and unit, as the last line of
// standard output. README.md lists the workloads and metrics.
//
// Usage (from the repository root; run.sh builds and passes -rfsimd):
//
//	perfbench --workload fig8|svc-hit|svc-mix [--seed N] [--seconds S] [--trace 0|1]
//	perfbench -update-pins
//
// --trace 0 prints the end-to-end metrics of an untraced run; --trace 1
// prints the per-layer metrics of a traced run and the tracing overhead.
// The exit code is 0 when every check passed, 1 when one failed and 2
// for bad flags or a run that could not complete.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/internal/topology"
)

const (
	// defaultSeed is the workload seed used when none is given;
	// heldOutSeed is reserved for confirming a claimed gain on inputs
	// the change was not tuned on.
	defaultSeed = 1
	heldOutSeed = 7
)

// metricSpec is one metric declared in BENCHMARK.json.
type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchSpec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// bench is the state of one run: its flags, the checks it has made and
// the metrics it has measured.
type bench struct {
	ctx      context.Context
	workload string
	seed     int64
	seconds  time.Duration
	traced   bool
	rfsimd   string
	out      string
	pins     *pins

	tally
	metrics map[string]float64
	info    map[string]any
	tr      *tracer
}

func (b *bench) set(name string, v float64) { b.metrics[name] = v }

type measured struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                `json:"correct"`
	Attempted int64               `json:"attempted"`
	Failed    int64               `json:"failed"`
	Metrics   map[string]measured `json:"metrics"`
}

var workloads = map[string]func(*bench) error{
	"fig8":    runFig8,
	"svc-hit": runSvcHit,
	"svc-mix": runSvcMix,
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fset.SetOutput(stderr)
	workload := fset.String("workload", "", "workload: fig8, svc-hit or svc-mix")
	seed := fset.Int64("seed", defaultSeed, fmt.Sprintf("workload seed (default %d; %d is held out for confirming claims)", defaultSeed, heldOutSeed))
	seconds := fset.Int("seconds", 30, "length of the timed phase in seconds")
	traceFlag := fset.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics")
	rfsimd := fset.String("rfsimd", ".bench_build/rfsimd", "sweep daemon binary built from this checkout")
	out := fset.String("out", ".bench_build", "directory for temporary state and trace files")
	pinsPath := fset.String("pins", "perfbench/pins.json", "stored behaviour digests")
	update := fset.Bool("update-pins", false, "recompute every stored digest and rewrite -pins")
	setupProbe := fset.Bool("setup-probe", false, "load the spec, digests and mesh, then exit (fig8 times this as its set-up)")
	if err := fset.Parse(args); err != nil {
		return 2
	}
	if *setupProbe {
		if _, err := loadSpec("BENCHMARK.json"); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		if _, err := loadPins(*pinsPath); err != nil {
			fmt.Fprintln(stderr, err)
			return 2
		}
		topology.New10x10()
		return 0
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if *update {
		if err := updatePins(ctx, *pinsPath, *rfsimd, *out); err != nil {
			fmt.Fprintf(stderr, "perfbench: update pins: %v\n", err)
			return 2
		}
		return 0
	}

	fn, ok := workloads[*workload]
	if !ok || *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: need --workload fig8|svc-hit|svc-mix, --seconds >= 1 and --trace 0|1")
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	p, err := loadPins(*pinsPath)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 2
	}
	b := &bench{
		ctx:      ctx,
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds) * time.Second,
		traced:   *traceFlag == 1,
		rfsimd:   *rfsimd,
		out:      *out,
		pins:     p,
		metrics:  map[string]float64{},
		info:     map[string]any{},
	}
	if b.traced {
		b.tr = newTracer()
	}
	if err := fn(b); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", b.workload, err)
		return 2
	}
	if ctx.Err() != nil {
		fmt.Fprintln(stderr, "perfbench: interrupted")
		return 2
	}
	if b.traced {
		path := filepath.Join(b.out, "traces", fmt.Sprintf("%s-seed%d.json", b.workload, b.seed))
		if err := b.tr.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: writing trace: %v\n", err)
			return 2
		}
		b.info["trace_file"] = path
	}

	want := spec.EndToEnd
	if b.traced {
		want = spec.PerLayer
	}
	res := resultLine{Metrics: map[string]measured{}}
	var unobserved []string
	for _, m := range want {
		v, ok := b.metrics[m.Name]
		if !ok {
			if !b.traced {
				// Every end-to-end metric is measured on every workload;
				// a missing one is a benchmark bug, not a zero.
				b.note("end-to-end metric " + m.Name + " was not measured")
			}
			unobserved = append(unobserved, m.Name)
		}
		res.Metrics[m.Name] = measured{Value: v, Unit: m.Unit}
	}
	declared := map[string]bool{}
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		declared[m.Name] = true
	}
	for name := range b.metrics {
		if !declared[name] {
			b.note("metric " + name + " is not declared in BENCHMARK.json")
		}
	}
	if len(unobserved) > 0 {
		b.info["unobserved_on_this_workload"] = unobserved
	}
	res.Correct = b.correct()
	res.Attempted = b.attempted
	res.Failed = b.failed
	if res.Attempted > 0 {
		b.info["error_rate"] = float64(res.Failed) / float64(res.Attempted)
	}

	enc := json.NewEncoder(stdout)
	enc.Encode(map[string]any{
		"provenance": provenance(b.workload, b.seed, b.traced),
		"info":       b.info,
		"violations": b.violations,
	})
	enc.Encode(res)
	if !res.Correct {
		return 1
	}
	return 0
}

func loadSpec(path string) (benchSpec, error) {
	var s benchSpec
	blob, err := os.ReadFile(path)
	if err != nil {
		return s, fmt.Errorf("reading benchmark spec: %w", err)
	}
	if err := json.Unmarshal(blob, &s); err != nil {
		return s, fmt.Errorf("parsing %s: %w", path, err)
	}
	return s, nil
}

// provenance names the box and code a result came from. Numbers from
// different boxes are never compared.
func provenance(workload string, seed int64, traced bool) map[string]any {
	return map[string]any{
		"workload":      workload,
		"seed":          seed,
		"traced":        traced,
		"cpu_model":     cpuModel(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go_version":    runtime.Version(),
		"git_revision":  gitRevision(),
		"source_sha256": sourceDigest("."),
	}
}

func cpuModel() string {
	blob, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(blob), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitRevision is HEAD when the run is in a git checkout; an exported
// tree has none, and source_sha256 identifies the code instead.
func gitRevision() string {
	if _, err := os.Stat(".git"); err != nil {
		return "unavailable (not a git checkout)"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unavailable"
	}
	return strings.TrimSpace(string(out))
}

// sourceDigest hashes every Go source and module file under root,
// skipping hidden directories such as the build output.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		blob, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(f), len(blob))
		h.Write(blob)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pins are the stored behaviour digests every run compares against.
type pins struct {
	// Fig8 is keyed by simulation seed.
	Fig8 map[string]fig8Pin `json:"fig8"`
	// Universe maps each svc-hit point key to its Stats digest.
	Universe map[string]string `json:"svc_universe"`
	// Pool holds the Stats digest of svc-mix fresh point i at index i.
	Pool []string `json:"svc_pool"`
}

type fig8Pin struct {
	Norm   string `json:"norm"`   // digest of Fig8's normalised latency and power
	Stats  string `json:"stats"`  // digest of every simulated point's Stats
	Cycles int64  `json:"cycles"` // simulated cycles summed over the 70 points
}

func loadPins(path string) (*pins, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading pins: %w", err)
	}
	var p pins
	if err := json.Unmarshal(blob, &p); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	if len(p.Fig8) == 0 || len(p.Universe) == 0 || len(p.Pool) == 0 {
		return nil, errors.New("pins file is incomplete; regenerate it with -update-pins")
	}
	return &p, nil
}

func writePins(path string, p *pins) error {
	blob, err := json.MarshalIndent(p, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(blob, '\n'), 0o644)
}
