// Command abwbench is the repository's end-to-end benchmark. It drives
// three workloads through the module's packages, checks their outputs,
// and prints one JSON result line:
//
//	abwbench --workload paper-quick   --seed 1 --seconds 20 --trace 0
//	abwbench --workload monitor-fleet --seed 1 --seconds 20 --trace 1
//	abwbench --workload all           --seed 1 --seconds 20
//
// With --trace 0 the result carries the end-to-end metrics listed in
// BENCHMARK.json; with --trace 1 it carries the per-layer metrics,
// measured by timing calls into each layer from this package, and the
// spans are written to --spans. --workload all runs the three
// workloads in turn and prints every named end-to-end metric: the
// twelve of README.md and each workload's CPU time per operation.
// run.sh builds and runs it from the root of a checkout; README.md
// explains the workloads and which metric each layer should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the command prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// options configure one workload run.
type options struct {
	seed    uint64
	seconds float64
	// corrupt perturbs one output after it is produced, so tests can
	// show that the output checks catch a wrong result.
	corrupt bool
	// log receives the human-readable report lines.
	log io.Writer
}

// outcome is what a workload run hands back to main.
type outcome struct {
	attempted, failed int
	// problems lists failed output checks; empty means correct.
	problems []string
	// named holds the workload's end-to-end metrics under the names
	// README.md gives them (paper_regen_s, monitor_scrape_p50_ms, ...).
	named map[string]metric
	// generic holds the same measurements under the workload-neutral
	// keys BENCHMARK.json gates on (see endToEnd).
	generic map[string]float64
	// layers holds the per-layer metrics of a traced run.
	layers map[string]float64
	// host holds facts about the host the workload observed
	// (granted receive buffer, kernel stamps).
	host map[string]any
}

func newOutcome() *outcome {
	return &outcome{
		named:   map[string]metric{},
		generic: map[string]float64{},
		layers:  map[string]float64{},
		host:    map[string]any{},
	}
}

func (o *outcome) check(ok bool, format string, args ...any) {
	if !ok {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// workload is one benchmark workload: set it up, measure it for a
// while, and report. A nil tracer means an untraced run.
type workload struct {
	name, why string
	run       func(opts options, tr *tracer) (*outcome, error)
}

var workloads = []workload{
	{"paper-quick", "regenerating EXPERIMENTS.md at quick scale is the repo's main user workload; it loads scenario, sim and tools", runPaper},
	{"monitor-fleet", "1000 simulated targets with store writes beside /metrics scrapes; bypasses the kNN tool and livenet", runFleet},
	{"live-loopback", "real UDP trains over 127.0.0.1 through livenet and ingest; the only workload that touches sockets, and it runs no sim", runLive},
}

// endToEnd are the gated metrics every workload reports, with the
// named metric each one carries per workload (see README.md).
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"peak_mem_mb", "MB"},
	{"cpu_ms_per_op", "ms"},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, false))
}

// run parses the command line, runs the workload and prints the
// result; it returns the exit code. corrupt is the test hook of
// options.corrupt.
func run(args []string, stdout io.Writer, corrupt bool) int {
	fs := flag.NewFlagSet("abwbench", flag.ContinueOnError)
	fs.SetOutput(os.Stderr)
	name := fs.String("workload", "", "paper-quick, monitor-fleet, live-loopback or all")
	seed := fs.Uint64("seed", 1, "seed every workload input is drawn from")
	seconds := fs.Float64("seconds", 20, "measured seconds per workload")
	trace := fs.Int("trace", 0, "1 reports per-layer metrics from a traced run")
	spans := fs.String("spans", filepath.Join(".bench_build", "spans"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "abwbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	opts := options{seed: *seed, seconds: *seconds, corrupt: corrupt, log: stdout}
	fmt.Fprintf(stdout, "host %s\n", mustJSON(hostRecord(nil)))
	if *name == "all" {
		return runAll(opts, stdout)
	}
	w, ok := lookup(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "abwbench: unknown workload %q (have %s, all)\n", *name, strings.Join(names(), ", "))
		return 2
	}
	var tr *tracer
	if *trace == 1 {
		tr = newTracer()
	}
	steal0, total0 := cpuTicks()
	out, err := w.run(opts, tr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "abwbench: %s: %v\n", w.name, err)
		return 1
	}
	// The share of the host's CPU the hypervisor took during the run:
	// wall-clock metrics move with it.
	out.host["steal_frac"] = stealFrac(steal0, total0)
	res := result{Correct: len(out.problems) == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]metric{}}
	if tr != nil {
		if err := completeLayers(out.layers); err != nil {
			fmt.Fprintf(os.Stderr, "abwbench: %v\n", err)
			return 1
		}
		for k, v := range out.layers {
			res.Metrics[k] = metric{v, layerUnit(k)}
		}
		path := filepath.Join(*spans, w.name+".json")
		if err := tr.write(path, hostRecord(out.host)); err != nil {
			fmt.Fprintf(os.Stderr, "abwbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans written to %s\n", path)
	} else {
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{out.generic[m.name], m.unit}
		}
	}
	report(stdout, w.name, out)
	fmt.Fprintln(stdout, mustJSON(res))
	if !res.Correct {
		return 1
	}
	return 0
}

// runAll runs every workload untraced and prints every named
// end-to-end metric, failures summed over the workloads.
func runAll(opts options, stdout io.Writer) int {
	res := result{Correct: true, Metrics: map[string]metric{}}
	var setup, rss, mem []float64
	for _, w := range workloads {
		out, err := w.run(opts, nil)
		if err != nil {
			fmt.Fprintf(os.Stderr, "abwbench: %s: %v\n", w.name, err)
			return 1
		}
		report(stdout, w.name, out)
		res.Correct = res.Correct && len(out.problems) == 0
		res.Attempted += out.attempted
		res.Failed += out.failed
		for k, v := range out.named {
			res.Metrics[k] = v
		}
		setup = append(setup, out.generic["setup_s"])
		rss = append(rss, out.named["peak_rss_mb"].Value)
		mem = append(mem, out.generic["peak_mem_mb"])
	}
	// Set-up and memory are per workload; the summary carries their
	// sum and maximum, and failures as a share of what was attempted.
	sum := 0.0
	for _, s := range setup {
		sum += s
	}
	res.Metrics["setup_s"] = metric{sum, "s"}
	res.Metrics["peak_rss_mb"] = metric{quantile(rss, 1), "MB"}
	res.Metrics["peak_mem_mb"] = metric{quantile(mem, 1), "MB"}
	res.Metrics["failed_frac"] = metric{float64(res.Failed) / float64(max(res.Attempted, 1)), "1"}
	fmt.Fprintln(stdout, mustJSON(res))
	if !res.Correct {
		return 1
	}
	return 0
}

// report prints a workload's checks and named metrics, one per line.
func report(w io.Writer, name string, out *outcome) {
	fmt.Fprintf(w, "workload %s: attempted %d, failed %d\n", name, out.attempted, out.failed)
	for _, p := range out.problems {
		fmt.Fprintf(w, "  CHECK FAILED: %s\n", p)
	}
	keys := make([]string, 0, len(out.named))
	for k := range out.named {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  %-28s %14.6g %s\n", k, out.named[k].Value, out.named[k].Unit)
	}
	if len(out.host) > 0 {
		fmt.Fprintf(w, "  host %s\n", mustJSON(out.host))
	}
}

func lookup(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

func names() []string {
	var ns []string
	for _, w := range workloads {
		ns = append(ns, w.name)
	}
	return ns
}

// finishCommon fills the metrics every workload shares: set-up time,
// peak memory and the failed share. memMB is the workload's measured
// peak memory (see memPeak), gated as peak_mem_mb; the process's peak
// RSS is printed beside it.
func finishCommon(out *outcome, setupS, memMB float64) {
	out.generic["setup_s"] = setupS
	out.generic["peak_mem_mb"] = memMB
	out.named["setup_s"] = metric{setupS, "s"}
	out.named["peak_mem_mb"] = metric{memMB, "MB"}
	out.named["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	out.named["failed_frac"] = metric{float64(out.failed) / float64(max(out.attempted, 1)), "1"}
}

// A run sets its workload up at least minSetupRuns times, and more
// while the set-ups so far took less than setupBudget, up to
// maxSetupRuns; setup_s is the median. Cheap set-ups (a socket and two
// dials) thus get enough samples for a steady median, and costly ones
// (compiling a thousand targets) stay within a few seconds.
const (
	minSetupRuns = 5
	maxSetupRuns = 101
	setupBudget  = time.Second
)

// timeSetup runs setup repeatedly and returns the last set-up's value
// and the median wall time of one set-up in seconds; earlier values are
// released with release.
func timeSetup[T any](setup func() (T, error), release func(T)) (T, float64, error) {
	var last T
	var samples []float64
	var spent time.Duration
	for i := 0; i < minSetupRuns || (spent < setupBudget && i < maxSetupRuns); i++ {
		if i > 0 {
			release(last)
			// Return the released set-up's memory, so peak_rss_mb
			// reflects one set-up, not the sum of several.
			debug.FreeOSMemory()
		}
		start := time.Now()
		v, err := setup()
		if err != nil {
			return last, 0, err
		}
		d := time.Since(start)
		spent += d
		samples = append(samples, d.Seconds())
		last = v
	}
	// Start the measured phase without the set-ups' garbage. Otherwise
	// the heap goal after the collection that last ran during set-up,
	// which may have found one set-up live or two, sets the first peak
	// of the measured phase: live-loopback's peak_mem_mb read 14.7 or
	// 21.2 MB with that.
	debug.FreeOSMemory()
	return last, median(samples), nil
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain maps and structs of numbers are marshalled
	}
	return string(b)
}

// hostRecord describes the host a result was measured on, merged with
// facts a workload observed.
func hostRecord(extra map[string]any) map[string]any {
	h := map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"kernel":     kernelRelease(),
	}
	for k, v := range extra {
		h[k] = v
	}
	return h
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

func kernelRelease() string {
	b, err := os.ReadFile("/proc/sys/kernel/osrelease")
	if err != nil {
		return runtime.GOOS
	}
	return strings.TrimSpace(string(b))
}
