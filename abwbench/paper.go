package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"runtime"
	"time"

	"abw/internal/core"
	"abw/internal/exp"
	"abw/internal/probe"
	"abw/internal/rng"
	"abw/internal/scenario"
	"abw/internal/tools/registry"
)

// tabler is the part of every experiment result the digest covers.
type tabler interface{ Table() *exp.Table }

// experiment is one entry of the quick pass: the configuration
// `abwsim -exp all -quick` runs, in its order.
type experiment struct {
	name string
	run  func(seed uint64) (tabler, error)
}

var quickExperiments = []experiment{
	{"fig1", func(s uint64) (tabler, error) {
		return exp.Figure1(exp.Figure1Config{Seed: s, Trials: 120, TraceSpan: 10 * time.Second})
	}},
	{"fig2", func(s uint64) (tabler, error) {
		return exp.Figure2(exp.Figure2Config{Seed: s, Streams: 40})
	}},
	{"table1", func(s uint64) (tabler, error) {
		return exp.Table1(exp.Table1Config{Seed: s, Trials: 8})
	}},
	{"fig3", func(s uint64) (tabler, error) {
		return exp.Figure3(exp.Figure3Config{Seed: s, Streams: 80})
	}},
	{"fig4", func(s uint64) (tabler, error) {
		return exp.Figure4(exp.Figure4Config{Seed: s, Streams: 60})
	}},
	{"fig5", func(s uint64) (tabler, error) {
		return exp.Figure5(exp.Figure5Config{Seed: s})
	}},
	{"fig6", func(s uint64) (tabler, error) {
		return exp.Figure6(exp.Figure6Config{Seed: s})
	}},
	{"fig7", func(s uint64) (tabler, error) {
		return exp.Figure7(exp.Figure7Config{Seed: s, Windows: []int{2, 8, 32, 128, 512}, Duration: 12 * time.Second})
	}},
	{"latency", func(s uint64) (tabler, error) {
		return exp.LatencyAccuracy(exp.LatencyAccuracyConfig{Seed: s, Trials: 8})
	}},
	{"narrowtight", func(s uint64) (tabler, error) {
		return exp.NarrowVsTight(exp.NarrowVsTightConfig{Seed: s})
	}},
	{"vartime", func(s uint64) (tabler, error) {
		return exp.VarianceTimescale(exp.VarTimeConfig{Seed: s, TraceSpan: 15 * time.Second})
	}},
	{"compare", func(s uint64) (tabler, error) {
		return exp.CompareTools(exp.CompareConfig{Seed: s})
	}},
	{"matrix", func(s uint64) (tabler, error) {
		return exp.Matrix(exp.MatrixConfig{Quick: true, Seed: s})
	}},
	{"dataset", func(s uint64) (tabler, error) {
		return exp.Dataset(exp.DatasetConfig{Seed: s, Scalings: []float64{1.0}, Trials: 1})
	}},
	{"learnedeval", func(s uint64) (tabler, error) {
		return exp.LearnedEval(exp.LearnedEvalConfig{Quick: true, Seed: s,
			Dataset: exp.DatasetConfig{Scalings: []float64{1.0}, Trials: 2}})
	}},
}

// matrixRecorderEpoch mirrors the matrix experiment's recorder
// granularity, so the replay compiles exactly what a pass compiles.
const matrixRecorderEpoch = 100 * time.Millisecond

// pass is one timed run over every quick experiment.
type pass struct {
	wall    time.Duration
	allocMB float64
	memMB   float64 // peak memory held during the pass
	digest  string
	// per and cpu hold each experiment's wall time and the process
	// CPU time it used.
	per, cpu map[string]time.Duration
	xcells   int // matrix cells whose estimate failed ('x' in the table)
	errs     int // experiments that returned an error
}

// runPaper is the paper-quick workload: repeated in-process passes over
// the fifteen quick experiments at one seed.
func runPaper(opts options, tr *tracer) (*outcome, error) {
	out := newOutcome()
	_, setupS, err := timeSetup(func() (struct{}, error) {
		return struct{}{}, compileCatalog(opts.seed)
	}, func(struct{}) {})
	if err != nil {
		return nil, err
	}

	measure := opts.seconds
	if tr != nil {
		measure /= 2 // half untraced, half traced, for the overhead
	}
	mem := startMemPeak()
	defer mem.close()
	passes := paperPasses(opts.seed, nil, measure, mem)
	if tr != nil {
		traced := paperPasses(opts.seed, tr, measure, mem)
		passLayerMetrics(out.layers, passes, traced)
		if err := replayMatrix(opts.seed, tr, out.layers); err != nil {
			return nil, err
		}
		tr.layerMetrics(out.layers, "paper-quick", "replay")
		passes = append(passes, traced...)
	}
	if opts.corrupt {
		passes[len(passes)-1].digest += "-corrupted"
	}

	var walls, mems []float64
	for i, p := range passes {
		out.attempted += len(quickExperiments)
		out.failed += p.errs
		out.check(p.errs == 0, "pass %d: %d experiments returned an error", i, p.errs)
		out.check(p.digest == passes[0].digest, "pass %d digest %s differs from pass 0 digest %s", i, p.digest, passes[0].digest)
		walls = append(walls, p.wall.Seconds())
		mems = append(mems, p.memMB)
	}
	fmt.Fprintf(opts.log, "paper-quick: %d passes at seed %d, result digest %s\n", len(passes), opts.seed, passes[0].digest)
	// The typical pass is the sum of each experiment's median time, so a
	// stall on a shared host that hits one experiment of one pass does
	// not move it.
	regen, cpu := 0.0, 0.0
	for _, e := range quickExperiments {
		var xs, cs []float64
		for _, p := range passes {
			xs = append(xs, p.per[e.name].Seconds())
			cs = append(cs, ms(p.cpu[e.name]))
		}
		regen += median(xs)
		cpu += median(cs)
	}
	out.named["paper_regen_s"] = metric{regen, "s"}
	out.named["paper_cpu_ms_per_pass"] = metric{cpu, "ms"}
	out.generic["cpu_ms_per_op"] = cpu
	out.named["paper_slowest_pass_s"] = metric{quantile(walls, 1), "s"}
	// An 'x' cell is a tool failing on a scenario: a result the digest
	// covers, not a failed operation of the workload.
	out.named["paper_matrix_x_cells"] = metric{float64(passes[0].xcells), "count"}
	// Peak memory moves with when the collector happens to run; the
	// median of the passes' peaks is steadier than the process's.
	finishCommon(out, setupS, median(mems))
	return out, nil
}

// compileCatalog compiles every cataloged scenario once at the seed,
// the ground-truth pass the matrix experiment opens with.
func compileCatalog(seed uint64) error {
	sh := scenario.NewShard()
	for _, d := range scenario.Catalog() {
		cpl, err := sh.CompileSeededAggregate(d, seed, matrixRecorderEpoch)
		if err != nil {
			return fmt.Errorf("compiling %s: %w", d.Name, err)
		}
		sh.Recycle(d.Name, cpl)
	}
	return nil
}

// paperPasses runs passes until seconds have been measured; the pass in
// progress at the deadline is completed.
func paperPasses(seed uint64, tr *tracer, seconds float64, mem *memPeak) []pass {
	root := tr.begin("paper-quick", 0)
	defer tr.end(root)
	var passes []pass
	start := time.Now()
	for len(passes) == 0 || time.Since(start).Seconds() < seconds {
		passes = append(passes, paperPass(seed, tr, root, mem))
	}
	return passes
}

func paperPass(seed uint64, tr *tracer, root int, mem *memPeak) pass {
	p := pass{per: map[string]time.Duration{}, cpu: map[string]time.Duration{}}
	h := sha256.New()
	alloc := totalAllocMB()
	mem.take()
	start := time.Now()
	for _, e := range quickExperiments {
		id := tr.begin("exp."+e.name, root)
		c0, t0 := cpuTime(), time.Now()
		res, err := e.run(seed)
		p.per[e.name] = time.Since(t0)
		p.cpu[e.name] = cpuTime() - c0
		tr.end(id)
		if err != nil {
			p.errs++
			fmt.Fprintf(h, "%s: error %v\n", e.name, err)
			continue
		}
		if m, ok := res.(*exp.MatrixResult); ok {
			for _, c := range m.Cells {
				if c.Err != nil {
					p.xcells++
				}
			}
		}
		res.Table().Markdown(h)
	}
	p.wall = time.Since(start)
	p.memMB = mem.take()
	p.allocMB = totalAllocMB() - alloc
	p.digest = hex.EncodeToString(h.Sum(nil))[:16]
	return p
}

// passLayerMetrics reports per-experiment times, allocation per pass,
// and the tracing overhead: traced minus untraced pass time, as a share
// of the untraced.
func passLayerMetrics(into map[string]float64, untraced, traced []pass) {
	for _, e := range quickExperiments {
		var xs []float64
		for _, p := range traced {
			xs = append(xs, ms(p.per[e.name]))
		}
		into["exp."+e.name+"_ms"] = median(xs)
	}
	var allocs, u, t []float64
	for _, p := range traced {
		allocs = append(allocs, p.allocMB)
		t = append(t, p.wall.Seconds())
	}
	for _, p := range untraced {
		u = append(u, p.wall.Seconds())
	}
	into["exp.alloc_mb"] = median(allocs)
	into["trace.overhead_frac"] = overhead(t, u)
}

// timedTransport wraps a transport to time every Probe (the sim layer,
// up to the transport seam) and the feature extraction of its record.
type timedTransport struct {
	t      core.Transport
	tr     *tracer
	parent int

	probe, features time.Duration
	streams         int
}

func (tt *timedTransport) Now() time.Duration { return tt.t.Now() }

func (tt *timedTransport) Probe(spec probe.StreamSpec) (*probe.Record, error) {
	id := tt.tr.begin("sim.probe", tt.parent)
	t0 := time.Now()
	rec, err := tt.t.Probe(spec)
	tt.probe += time.Since(t0)
	tt.tr.end(id)
	if err != nil {
		return nil, err
	}
	tt.streams++
	// The span bookkeeping is inside the timed block, so the replay
	// can subtract everything this benchmark adds to a probe.
	t0 = time.Now()
	id = tt.tr.begin("probe.features", tt.parent)
	_ = probe.ExtractFeatures(rec)
	tt.tr.end(id)
	tt.features += time.Since(t0)
	return rec, nil
}

// estimateTimed runs one registry estimate over a timed transport
// under a "tools.<tool>" span; the tool's self time is the span minus
// its probe and feature children. The estimate's outcome is not used:
// a failed estimate (an 'x' cell of the matrix) spent its time like any
// other, and the replay only times it.
func estimateTimed(tr *tracer, parent int, tool string, params registry.Params, t core.Transport) *timedTransport {
	id := tr.begin("tools."+tool, parent)
	tt := &timedTransport{t: t, tr: tr, parent: id}
	_, _ = registry.Estimate(context.Background(), tool, params, tt)
	tr.end(id)
	return tt
}

// replayMatrix replays the quick matrix's cells serially — compile on a
// shard, estimate through a timed transport, recycle — and reports the
// scenario, sim, tools and probe layers, plus the runner's parallel
// efficiency against the traced passes' matrix time.
func replayMatrix(seed uint64, tr *tracer, into map[string]float64) error {
	root := tr.begin("replay", 0)
	defer tr.end(root)
	var tools []string
	for _, d := range registry.Tools() {
		if !d.SimOnly {
			tools = append(tools, d.Name)
		}
	}
	sh := scenario.NewShard()
	var compile, lrd, recycle, probeT, featT time.Duration
	var compileAlloc float64
	streams := 0
	self := map[string]time.Duration{}
	start := time.Now()
	for _, d := range scenario.Catalog() {
		for _, tool := range tools {
			id := tr.begin("scenario.compile", root)
			a0 := totalAllocMB()
			t0 := time.Now()
			cpl, err := sh.CompileSeededAggregate(d, seed, matrixRecorderEpoch)
			dt := time.Since(t0)
			tr.end(id)
			if err != nil {
				return fmt.Errorf("replay: compiling %s: %w", d.Name, err)
			}
			compile += dt
			compileAlloc += totalAllocMB() - a0
			if hasLRD(d.Spec) {
				lrd += dt
			}
			params := registry.Params{Capacity: cpl.Capacity, Rand: rng.New(seed + 1), Repeat: 6, MaxRounds: 6}
			if tool == "learned" {
				params.Repeat = 2 // the matrix's quick setting for the learned tool
			}
			t0 = time.Now()
			tt := estimateTimed(tr, root, tool, params, cpl.Transport)
			self[tool] += time.Since(t0) - tt.probe - tt.features
			probeT += tt.probe
			featT += tt.features
			streams += tt.streams

			id = tr.begin("scenario.recycle", root)
			t0 = time.Now()
			sh.Recycle(d.Name, cpl)
			recycle += time.Since(t0)
			tr.end(id)
		}
	}
	replay := time.Since(start)
	into["scenario.compile_ms"] = ms(compile)
	into["scenario.compile_alloc_mb"] = compileAlloc
	into["scenario.compile_lrd_ms"] = ms(lrd)
	into["scenario.recycle_ms"] = ms(recycle)
	into["sim.probe_ms"] = ms(probeT)
	into["sim.streams"] = float64(streams)
	into["sim.probe_us_per_stream"] = 0
	into["probe.features_us_per_stream"] = 0
	if streams > 0 {
		into["sim.probe_us_per_stream"] = float64(probeT.Microseconds()) / float64(streams)
		into["probe.features_us_per_stream"] = float64(featT.Nanoseconds()) / 1e3 / float64(streams)
	}
	for _, d := range registry.Tools() {
		into["tools."+d.Name+".self_ms"] = ms(self[d.Name])
	}
	// The matrix does not extract features; the replay's serial time
	// leaves out the extraction this benchmark adds.
	into["runner.parallel_eff"] = 0
	if m := into["exp.matrix_ms"]; m > 0 {
		into["runner.parallel_eff"] = ms(replay-featT) / (m * float64(runtime.GOMAXPROCS(0)))
	}
	return nil
}

func hasLRD(sp scenario.Spec) bool {
	for _, h := range sp.Hops {
		for _, s := range h.Traffic {
			if s.Kind == scenario.LRD {
				return true
			}
		}
	}
	return false
}
