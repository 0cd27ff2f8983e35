// Command perfbench is pgxsort's benchmark: it generates seeded inputs,
// drives one workload through the public entry points (pgxsort.Cluster /
// core.Engine, Engine.SortSpooled, serve.New behind a loopback listener),
// checks every output against a slices.Sort reference, and prints the
// metrics BENCHMARK.json names as the last line of standard output.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload resident-uniform --seed 1 --seconds 20 --trace 0
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the same loop
// with spans recorded around every call into a layer, replays one node's
// share of the input through the layers' exported functions, and prints
// the per-layer metrics. METRICS.md lists every metric with its layer and
// the end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Load shape shared by every workload: a simulated cluster of four
// processors with one worker each, under the default GOMAXPROCS.
const (
	procs   = 4
	workers = 1
)

// outDir holds everything a run writes: spill files, spooled inputs and
// the span file. It sits under the build directory the wrapper uses.
const outDir = ".bench_build/perfbench/run"

// bench carries one run's settings and shared state.
type bench struct {
	workload string
	seed     uint64
	window   time.Duration
	traced   bool
	dir      string // scratch directory for this run's files
	tr       *tracer
	probe    *probe
	m        metrics
	attempts int

	mu       sync.Mutex // guards failures; replays fail from goroutines
	failures int
}

// fail records one failed, refused or mis-verified op.
func (b *bench) fail(format string, args ...any) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.failures++
	fmt.Fprintf(os.Stderr, "perfbench: FAILED: "+format+"\n", args...)
}

var workloads = map[string]func(*bench) error{
	"resident-uniform":   runResidentUniform,
	"skewed-records-tcp": runSkewedRecordsTCP,
	"outofcore":          runOutOfCore,
	"service-mix":        runServiceMix,
}

func main() { os.Exit(run()) }

func run() int {
	name := flag.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Int("seconds", 20, "measured window per run")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	flag.Parse()

	fn, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>; workloads: %v\n", workloadNames())
		return 2
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir := filepath.Join(outDir, fmt.Sprintf("%s-seed%d-trace%d", *name, *seed, *trace))
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	env := collectEnv(*seed)
	envLine, _ := json.Marshal(map[string]any{"workload": *name, "trace": *trace, "env": env})
	fmt.Println(string(envLine))

	if err := selfTest(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: verifier self-test:", err)
		return 1
	}

	b := &bench{
		workload: *name,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		traced:   *trace == 1,
		dir:      dir,
		tr:       newTracer(*trace == 1),
		m:        metrics{},
	}
	b.probe = startProbe()
	runErr := fn(b)
	b.probe.stop()
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", runErr)
		return 1
	}
	if b.traced {
		b.m.set("runtime.goroutines_max", float64(b.probe.goroutinesMax()))
		b.m.set("spill.open_fds_max", float64(b.probe.fdsMax()))
		b.m.set("failed_frac", float64(b.failures)/float64(max(b.attempts, 1)))
		path := filepath.Join(filepath.Dir(outDir), fmt.Sprintf("trace-%s-seed%d.json", *name, *seed))
		if err := b.tr.write(path, *name, env); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		fmt.Printf("spans: %d written to %s\n", b.tr.len(), path)
	} else {
		b.m.set("peak_rss_mb", peakRSSMB())
	}

	want := spec.EndToEnd
	if b.traced {
		want = spec.PerLayer
	}
	out, missing := b.m.pick(want)
	if len(missing) > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: workload %s measured no value for %v\n", *name, missing)
		return 1
	}
	keys := make([]string, 0, len(out))
	for k := range out {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Printf("%-36s %14.6g %s\n", k, out[k].Value, out[k].Unit)
	}
	correct := b.failures == 0 && b.attempts > 0
	line, err := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{correct, max(b.attempts, 1), b.failures, out})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
