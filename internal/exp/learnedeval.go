package exp

import (
	"context"
	"fmt"
	"math"
	"sort"

	"abw/internal/rng"
	"abw/internal/runner"
	"abw/internal/scenario"
	"abw/internal/stats"
	"abw/internal/tools/learned"
	"abw/internal/tools/registry"
)

// LearnedEvalConfig parameterizes the held-out evaluation of the
// learned estimator: the committed weights against the classical tools
// on the dataset experiment's seed-held-out test configurations.
type LearnedEvalConfig struct {
	// Dataset is the sweep to draw test configurations from (zero value:
	// the dataset defaults — whole catalog, scalings ×0.5/1.0/1.5,
	// three trials). Its Seed is overridden by Seed below.
	Dataset DatasetConfig
	// Weights is the model under evaluation (default: the committed
	// embedded weights).
	Weights *learned.Weights
	// Quick is accepted for CLI symmetry; the classical tools always run
	// with reduced (quick-matrix) effort here, since each test
	// configuration multiplies seven full tool runs.
	Quick bool
	Seed  uint64
}

// LearnedEvalScenario is one scenario's held-out comparison.
type LearnedEvalScenario struct {
	Name string
	// Configs counts the (scaling, trial) test configurations evaluated.
	Configs int
	// LearnedMAE is the learned estimator's mean absolute error in Mbps
	// over the scenario's test configurations; BestMAE is the smallest
	// classical-tool MAE over the same configurations, from BestTool.
	LearnedMAE float64
	BestTool   string
	BestMAE    float64
	// Win marks scenarios where the learned model is no worse than the
	// best classical tool.
	Win bool
}

// LearnedEvalResult is the evaluation outcome.
type LearnedEvalResult struct {
	Config    LearnedEvalConfig
	Tools     []string // classical tools compared against
	Scenarios []LearnedEvalScenario
	Wins      int
}

// evalConfig is one held-out (scenario, scaling, trial) configuration.
type evalConfig struct {
	scen    string
	scaling float64
	trial   int
	simSeed uint64
	// capacityMbps and trueMbps are the configuration's ground truth;
	// learnedErr is |prediction − truth| in Mbps.
	capacityMbps float64
	trueMbps     float64
	learnedErr   float64
}

// LearnedEval answers the question the eighth tool exists to pose: once
// the mapping from probe features to avail-bw is learned rather than
// derived, how does it compare on held-out conditions against the seven
// analytic mappings? The learned error comes from the dataset rows
// (mean per-stream prediction per configuration); each classical tool
// then runs on a fresh compilation of the same scaled scenario at the
// same seed, with quick-matrix effort. One runner job per
// (configuration, tool) — bit-identical at any worker count.
func LearnedEval(cfg LearnedEvalConfig) (*LearnedEvalResult, error) {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Weights == nil {
		w, err := learned.Default()
		if err != nil {
			return nil, fmt.Errorf("exp: learnedeval: %w", err)
		}
		cfg.Weights = w
	}
	dcfg := cfg.Dataset
	dcfg.Seed = cfg.Seed
	if len(dcfg.Plan.RateFracs) == 0 {
		dcfg.Plan = cfg.Weights.Plan
	}
	ds, err := Dataset(dcfg)
	if err != nil {
		return nil, err
	}
	res := &LearnedEvalResult{Config: cfg}
	for _, d := range registry.Tools() {
		if !d.SimOnly && d.Name != "learned" {
			res.Tools = append(res.Tools, d.Name)
		}
	}

	// Fold the test rows into configurations; the learned prediction for
	// a configuration is the median of its per-stream predictions,
	// exactly how the online estimator aggregates streams.
	_, test := ds.SplitRows()
	var configs []evalConfig
	index := map[string]int{}
	preds := map[string][]float64{}
	for _, r := range test {
		key := datasetKey(r.Scenario, r.Scaling, r.Trial)
		if _, ok := index[key]; !ok {
			index[key] = len(configs)
			configs = append(configs, evalConfig{
				scen: r.Scenario, scaling: r.Scaling, trial: r.Trial,
				simSeed: r.SimSeed, capacityMbps: r.CapacityMbps, trueMbps: r.TrueAvailBwMbps,
			})
		}
		pred, err := cfg.Weights.Predict(r.ModelInput())
		if err != nil {
			return nil, fmt.Errorf("exp: learnedeval: %w", err)
		}
		preds[key] = append(preds[key], pred)
	}
	for key, i := range index {
		c := &configs[i]
		c.learnedErr = math.Abs(stats.Median(preds[key])*c.capacityMbps - c.trueMbps)
	}

	// Classical tools on the same configurations: fresh compilation of
	// the scaled scenario at the configuration's seed per tool, as in
	// the matrix experiment.
	type toolErr struct {
		config, tool int
		errMbps      float64
		failed       bool
	}
	errs, err := runner.All(len(configs)*len(res.Tools), func(job int) (toolErr, error) {
		ci, ti := job/len(res.Tools), job%len(res.Tools)
		c, tool := configs[ci], res.Tools[ti]
		d, _ := scenario.Lookup(c.scen)
		sp := scenario.ScaleTraffic(d.Spec, c.scaling)
		sp.Seed = scenario.Seed(c.simSeed)
		sp.RecorderEpoch = matrixRecorderEpoch
		cpl, err := scenario.Compile(sp)
		if err != nil {
			return toolErr{}, fmt.Errorf("exp: learnedeval: %s ×%g: %w", c.scen, c.scaling, err)
		}
		params := registry.Params{
			Capacity: cpl.Capacity,
			Rand:     rng.New(cfg.Seed + 1),
			Repeat:   6, MaxRounds: 6, // quick-matrix effort
		}
		rep, estErr := registry.Estimate(context.Background(), tool, params, cpl.Transport)
		if estErr != nil {
			return toolErr{config: ci, tool: ti, failed: true}, nil
		}
		return toolErr{config: ci, tool: ti, errMbps: math.Abs(rep.Point.MbpsOf() - cpl.TrueAvailBw.MbpsOf())}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("exp: learnedeval: %w", err)
	}

	// Aggregate per scenario. A tool that failed on any of a scenario's
	// configurations is scored on the ones it completed; a tool that
	// completed none is out of that scenario's contest.
	type agg struct {
		sum float64
		n   int
	}
	learnedAgg := map[string]*agg{}
	classical := map[string]map[string]*agg{} // scenario → tool → agg
	for _, c := range configs {
		if learnedAgg[c.scen] == nil {
			learnedAgg[c.scen] = &agg{}
			classical[c.scen] = map[string]*agg{}
		}
		learnedAgg[c.scen].sum += c.learnedErr
		learnedAgg[c.scen].n++
	}
	for _, e := range errs {
		if e.failed {
			continue
		}
		scen := configs[e.config].scen
		tool := res.Tools[e.tool]
		if classical[scen][tool] == nil {
			classical[scen][tool] = &agg{}
		}
		classical[scen][tool].sum += e.errMbps
		classical[scen][tool].n++
	}
	var names []string
	for scen := range learnedAgg {
		names = append(names, scen)
	}
	sort.Strings(names)
	// Keep catalog order for the table.
	ordered := make([]string, 0, len(names))
	for _, d := range scenario.Catalog() {
		for _, n := range names {
			if n == d.Name {
				ordered = append(ordered, n)
			}
		}
	}
	for _, scen := range ordered {
		la := learnedAgg[scen]
		s := LearnedEvalScenario{
			Name:       scen,
			Configs:    la.n,
			LearnedMAE: la.sum / float64(la.n),
			BestMAE:    math.Inf(1),
		}
		for _, tool := range res.Tools {
			a := classical[scen][tool]
			if a == nil || a.n == 0 {
				continue
			}
			if mae := a.sum / float64(a.n); mae < s.BestMAE {
				s.BestMAE, s.BestTool = mae, tool
			}
		}
		s.Win = s.BestTool == "" || s.LearnedMAE <= s.BestMAE
		if s.Win {
			res.Wins++
		}
		res.Scenarios = append(res.Scenarios, s)
	}
	return res, nil
}

// Table renders the comparison: per scenario, the learned model's
// held-out error against the best classical tool on the same
// configurations.
func (r *LearnedEvalResult) Table() *Table {
	t := &Table{
		Title:  "Learned estimator vs best classical tool on seed-held-out test configurations (MAE in Mbps)",
		Header: []string{"scenario", "test cfgs", "learned", "best classical", "best tool", "learned wins"},
		Notes: []string{
			"paper: every estimator is an ad-hoc mapping from probe timing signatures to avail-bw; " +
				"here that mapping is learned once over shared features and held to the analytic tools' standard",
			"classical tools run with quick-matrix effort on fresh compilations of the same scaled, same-seed scenarios",
			fmt.Sprintf("learned is no worse than the best classical tool on %d of %d scenarios", r.Wins, len(r.Scenarios)),
		},
	}
	for _, s := range r.Scenarios {
		win := ""
		if s.Win {
			win = "yes"
		}
		best := "x"
		bestTool := s.BestTool
		if bestTool == "" {
			bestTool = "-"
		} else {
			best = f2(s.BestMAE)
		}
		t.Rows = append(t.Rows, []string{
			s.Name, fmt.Sprintf("%d", s.Configs), f2(s.LearnedMAE), best, bestTool, win,
		})
	}
	return t
}
