// Command benchbaseline runs the repository's benchmarks once each
// (-benchtime 1x) and writes the parsed results as a JSON baseline.
// BENCH.json is the one living baseline and the default output (the
// README keeps a frozen table of the earlier trajectory points).
// Regenerate with:
//
//	go run ./scripts/benchbaseline            # rewrites BENCH.json
//
// With -compare, the fresh run is checked against a committed baseline
// instead of (or in addition to) being written: any benchmark that got
// an order of magnitude slower fails the run. CI runs the compare on
// every push, so a perf regression is caught where it lands:
//
//	go run ./scripts/benchbaseline -compare BENCH.json
//	go run ./scripts/benchbaseline -compare BENCH.json -out fresh.json
//
// The threshold is deliberately coarse (10x): single-iteration numbers
// on shared CI hardware are noisy, but an order of magnitude is a real
// regression, not noise. -benchtime passes through to `go test` for
// steadier numbers on sub-µs benchmarks (1x remains the default), and
// -budget asserts absolute wall-clock ceilings on named benchmarks:
//
//	go run ./scripts/benchbaseline -benchtime 10ms -out BENCH.json
//	go run ./scripts/benchbaseline -budget 'BenchmarkMatrix=600ms'
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// regressionFactor is the ns/op ratio over the baseline that fails a
// -compare run.
const regressionFactor = 10.0

// Benchmark is one parsed benchmark result line.
type Benchmark struct {
	Package     string  `json:"package"`
	Name        string  `json:"name"`
	Iterations  int64   `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"b_per_op,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op,omitempty"`
}

// Baseline is the file shape.
type Baseline struct {
	Schema     string      `json:"schema"`
	Command    string      `json:"command"`
	GoVersion  string      `json:"go_version"`
	GOOS       string      `json:"goos"`
	GOARCH     string      `json:"goarch"`
	CPUs       int         `json:"cpus"`
	Note       string      `json:"note"`
	Benchmarks []Benchmark `json:"benchmarks"`
}

func main() {
	out := flag.String("out", "", "output file (default BENCH.json, the living baseline; with -compare, omit to skip writing)")
	compare := flag.String("compare", "", "comma-separated committed baseline(s) to compare against; exits 1 on order-of-magnitude regressions")
	benchtime := flag.String("benchtime", "1x", "passed to go test -benchtime; raise it (e.g. 10ms) for steadier sub-µs numbers")
	budget := flag.String("budget", "", "comma-separated absolute ceilings, e.g. 'BenchmarkMatrix=600ms'; exits 1 when a named benchmark exceeds its duration")
	flag.Parse()
	if *out == "" && *compare == "" && *budget == "" {
		*out = "BENCH.json"
	}

	args := []string{"test", "-bench", ".", "-benchtime", *benchtime, "-run", "^$", "./..."}
	cmd := exec.Command("go", args...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		fmt.Fprintf(os.Stderr, "benchbaseline: go %s: %v\n", strings.Join(args, " "), err)
		os.Exit(1)
	}

	base := Baseline{
		Schema:    "abw-bench-baseline/1",
		Command:   "go " + strings.Join(args, " "),
		GoVersion: runtime.Version(),
		GOOS:      runtime.GOOS,
		GOARCH:    runtime.GOARCH,
		CPUs:      runtime.NumCPU(),
		Note: fmt.Sprintf("recorded at -benchtime %s: good for spotting order-of-magnitude "+
			"regressions and keeping benchmarks compiling, not for micro-comparisons", *benchtime),
		Benchmarks: parse(&buf),
	}
	if *out != "" {
		b, err := json.MarshalIndent(base, "", "  ")
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchbaseline: %v\n", err)
			os.Exit(1)
		}
		if err := os.WriteFile(*out, append(b, '\n'), 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchbaseline: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("benchbaseline: wrote %d benchmarks to %s\n", len(base.Benchmarks), *out)
	}
	if *compare != "" {
		ok := true
		for _, path := range strings.Split(*compare, ",") {
			if path = strings.TrimSpace(path); path != "" && !compareAgainst(path, base.Benchmarks) {
				ok = false
			}
		}
		if !ok {
			os.Exit(1)
		}
	}
	if *budget != "" && !checkBudgets(*budget, base.Benchmarks) {
		os.Exit(1)
	}
}

// checkBudgets enforces absolute per-iteration ceilings on named
// benchmarks ("Name=duration", comma-separated). Unlike the relative
// -compare gate, a budget is a commitment: the named benchmark must
// exist in the fresh run and come in under its ceiling.
func checkBudgets(spec string, fresh []Benchmark) bool {
	ok := true
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			continue
		}
		name, limit, found := strings.Cut(entry, "=")
		if !found {
			fmt.Fprintf(os.Stderr, "benchbaseline: bad -budget entry %q (want Name=duration)\n", entry)
			ok = false
			continue
		}
		max, err := time.ParseDuration(limit)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchbaseline: bad -budget duration %q: %v\n", limit, err)
			ok = false
			continue
		}
		matched := false
		for _, b := range fresh {
			if b.Name != name {
				continue
			}
			matched = true
			got := time.Duration(b.NsPerOp)
			if got > max {
				ok = false
				fmt.Fprintf(os.Stderr, "benchbaseline: BUDGET EXCEEDED %s.%s: %v per op, budget %v\n",
					b.Package, b.Name, got.Round(time.Millisecond), max)
			} else {
				fmt.Printf("benchbaseline: %s.%s within budget: %v <= %v\n",
					b.Package, b.Name, got.Round(time.Millisecond), max)
			}
		}
		if !matched {
			ok = false
			fmt.Fprintf(os.Stderr, "benchbaseline: -budget %s: no such benchmark in the fresh run\n", name)
		}
	}
	return ok
}

// compareAgainst checks the fresh results against the stored baseline,
// reporting per-benchmark ratios. Benchmarks present on only one side
// (added or retired since the baseline) are skipped. Returns false when
// any shared benchmark regressed by regressionFactor or more.
func compareAgainst(path string, fresh []Benchmark) bool {
	raw, err := os.ReadFile(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchbaseline: %v\n", err)
		return false
	}
	var stored Baseline
	if err := json.Unmarshal(raw, &stored); err != nil {
		fmt.Fprintf(os.Stderr, "benchbaseline: %s: %v\n", path, err)
		return false
	}
	// Stored names were normalized at write time (parse strips the
	// GOMAXPROCS suffix), so they are compared as-is: trimming again
	// would mangle legitimate trailing "-<n>" sub-benchmark names.
	old := make(map[string]Benchmark, len(stored.Benchmarks))
	for _, b := range stored.Benchmarks {
		old[b.Package+"."+b.Name] = b
	}
	ok, compared := true, 0
	for _, b := range fresh {
		ref, found := old[b.Package+"."+b.Name]
		if !found || ref.NsPerOp <= 0 || b.NsPerOp <= 0 {
			continue
		}
		compared++
		ratio := b.NsPerOp / ref.NsPerOp
		if ratio >= regressionFactor {
			ok = false
			fmt.Fprintf(os.Stderr, "benchbaseline: REGRESSION %s.%s: %.0f ns/op vs baseline %.0f (%.1fx)\n",
				b.Package, b.Name, b.NsPerOp, ref.NsPerOp, ratio)
		}
	}
	if compared == 0 {
		fmt.Fprintf(os.Stderr, "benchbaseline: no benchmarks in common with %s\n", path)
		return false
	}
	if ok {
		fmt.Printf("benchbaseline: %d benchmarks within %gx of %s\n", compared, regressionFactor, path)
	}
	return ok
}

// trimProcsSuffix drops the "-<procs>" suffix `go test -bench` appends
// to benchmark names when GOMAXPROCS > 1, so baselines taken on
// machines with different core counts compare by the same keys.
func trimProcsSuffix(name string, procs int) string {
	if procs > 1 {
		return strings.TrimSuffix(name, fmt.Sprintf("-%d", procs))
	}
	return name
}

// parse extracts benchmark lines from `go test -bench` output,
// tracking the current package from the interleaved "pkg:" headers.
// Names are normalized with the running process's GOMAXPROCS (the test
// child inherits the same environment).
func parse(r *bytes.Buffer) []Benchmark {
	var out []Benchmark
	pkg := ""
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if strings.HasPrefix(line, "pkg: ") {
			pkg = strings.TrimPrefix(line, "pkg: ")
			continue
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		f := strings.Fields(line)
		if len(f) < 4 {
			continue
		}
		iters, err := strconv.ParseInt(f[1], 10, 64)
		if err != nil {
			continue
		}
		b := Benchmark{
			Package:    pkg,
			Name:       trimProcsSuffix(f[0], runtime.GOMAXPROCS(0)),
			Iterations: iters,
		}
		for i := 2; i+1 < len(f); i += 2 {
			v, err := strconv.ParseFloat(f[i], 64)
			if err != nil {
				continue
			}
			switch f[i+1] {
			case "ns/op":
				b.NsPerOp = v
			case "B/op":
				b.BytesPerOp = int64(v)
			case "allocs/op":
				b.AllocsPerOp = int64(v)
			}
		}
		out = append(out, b)
	}
	return out
}
