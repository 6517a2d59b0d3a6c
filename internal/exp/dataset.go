package exp

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"abw/internal/core"
	"abw/internal/probe"
	"abw/internal/rng"
	"abw/internal/runner"
	"abw/internal/scenario"
	"abw/internal/tools/learned"
	"abw/internal/unit"
)

// DatasetConfig parameterizes the dataset experiment: the sweep of the
// scenario catalog × cross-traffic scalings × seeds that produces the
// (features, ground-truth) rows the learned estimator trains on — the
// dataset-generation loop of the UDP_ML approach, pointed at the whole
// catalog instead of one fixed topology.
type DatasetConfig struct {
	// Scenarios are catalog names (default: the whole catalog).
	Scenarios []string
	// Scalings multiply every cross-traffic source's rate (default
	// 0.5, 1.0, 1.5: light, nominal, heavy — heavy pushes several
	// scenarios toward zero avail-bw, which the model must learn too).
	Scalings []float64
	// Trials is the number of independent seeds per (scenario, scaling)
	// (default 3).
	Trials int
	// Plan is the probing schedule per compiled scenario (default
	// learned.DefaultPlan, the plan the committed weights use).
	Plan learned.ProbePlan
	// TestFrac is the held-out fraction of (scenario, scaling, trial)
	// configurations (default 0.25). The split is derived purely from
	// Seed via rng.Derive, stratified so every (scenario, scaling) keeps
	// at least one test trial.
	TestFrac float64
	// Seed drives trial seeds and the split.
	Seed uint64
}

func (c DatasetConfig) withDefaults() DatasetConfig {
	if len(c.Scenarios) == 0 {
		c.Scenarios = scenario.Names()
	}
	if len(c.Scalings) == 0 {
		c.Scalings = []float64{0.5, 1.0, 1.5}
	}
	if c.Trials == 0 {
		c.Trials = 3
	}
	if len(c.Plan.RateFracs) == 0 {
		c.Plan = learned.DefaultPlan()
	}
	if c.TestFrac == 0 {
		c.TestFrac = 0.25
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// DatasetRow is one probe stream reduced to its features plus the
// scenario's analytic ground truth — one training (or test) example.
type DatasetRow struct {
	Scenario string  `json:"scenario"`
	Scaling  float64 `json:"scaling"`
	Trial    int     `json:"trial"`
	// SimSeed is the seed the scenario was compiled with, derived from
	// the config seed and the (scenario, scaling, trial) label.
	SimSeed uint64 `json:"sim_seed"`
	// Split is "train" or "test"; all rows of one (scenario, scaling,
	// trial) configuration share it, so no configuration leaks across.
	Split string `json:"split"`
	// RateFrac is the probing rate as a fraction of capacity; Stream
	// indexes the repetition at that rate.
	RateFrac float64 `json:"rate_frac"`
	Stream   int     `json:"stream"`
	// CapacityMbps and TrueAvailBwMbps are the analytic tight-link
	// ground truth; Target is the dimensionless label A/C the model
	// fits.
	CapacityMbps    float64 `json:"capacity_mbps"`
	TrueAvailBwMbps float64 `json:"true_abw_mbps"`
	Target          float64 `json:"target"`
	// Features is the canonical per-stream feature vector.
	Features probe.FeatureVector `json:"features"`
}

// ModelInput flattens the row into the learned model's raw input:
// feature values plus the derived inputs — the same vector
// learned.ModelInput assembles online.
func (r DatasetRow) ModelInput() []float64 {
	return learned.ModelInput(r.Features, r.RateFrac, r.CapacityMbps)
}

// ModelInputNames returns the input column names, matching ModelInput.
func ModelInputNames() []string {
	return learned.ModelInputNames(probe.FeatureNames())
}

// DatasetResult is the sweep outcome: rows in deterministic order
// (scenario-major, scaling, trial, rate fraction, stream).
type DatasetResult struct {
	Config DatasetConfig
	Rows   []DatasetRow
}

// datasetKey labels one (scenario, scaling, trial) configuration; it is
// both the rng derivation label for the trial's sim seed and the unit
// of the train/test split.
func datasetKey(scen string, scaling float64, trial int) string {
	return fmt.Sprintf("dataset/%s/%s/%d", scen, strconv.FormatFloat(scaling, 'g', -1, 64), trial)
}

// datasetSplit assigns each (scenario, scaling, trial) configuration to
// train or test purely from the seed: a configuration is a test one
// when its derived uniform draw falls under TestFrac, stratified so
// every (scenario, scaling) cell keeps at least one test trial (the
// trial with the cell's minimum draw). Pure function of the config —
// identical at any worker count.
func datasetSplit(c DatasetConfig) map[string]string {
	split := make(map[string]string, len(c.Scenarios)*len(c.Scalings)*c.Trials)
	for _, scen := range c.Scenarios {
		for _, sc := range c.Scalings {
			minKey := ""
			minDraw := 2.0
			anyTest := false
			for tr := 0; tr < c.Trials; tr++ {
				key := datasetKey(scen, sc, tr)
				draw := rng.Derive(c.Seed, "split/"+key).Float64()
				if draw < c.TestFrac {
					split[key] = "test"
					anyTest = true
				} else {
					split[key] = "train"
				}
				if draw < minDraw {
					minDraw, minKey = draw, key
				}
			}
			if !anyTest && minKey != "" {
				split[minKey] = "test"
			}
		}
	}
	return split
}

// Dataset sweeps the catalog × scalings × seeds and reduces every probe
// stream to one row. Each (scenario, scaling, trial) configuration is
// one runner job compiling its own scenario, so rows are bit-identical
// at any -parallel and pooling setting.
func Dataset(cfg DatasetConfig) (*DatasetResult, error) {
	c := cfg.withDefaults()
	for _, name := range c.Scenarios {
		if _, ok := scenario.Lookup(name); !ok {
			return nil, fmt.Errorf("exp: dataset: unknown scenario %q (have %v)", name, scenario.Names())
		}
	}
	for _, sc := range c.Scalings {
		if sc <= 0 {
			return nil, fmt.Errorf("exp: dataset: scaling %g must be positive", sc)
		}
	}
	split := datasetSplit(c)

	type job struct {
		scen    string
		scaling float64
		trial   int
	}
	var jobs []job
	for _, scen := range c.Scenarios {
		for _, sc := range c.Scalings {
			for tr := 0; tr < c.Trials; tr++ {
				jobs = append(jobs, job{scen, sc, tr})
			}
		}
	}

	perJob, err := runner.All(len(jobs), func(i int) ([]DatasetRow, error) {
		j := jobs[i]
		key := datasetKey(j.scen, j.scaling, j.trial)
		simSeed := rng.Derive(c.Seed, key).Uint64()

		d, _ := scenario.Lookup(j.scen)
		sp := scenario.ScaleTraffic(d.Spec, j.scaling)
		sp.Seed = scenario.Seed(simSeed)
		sp.RecorderEpoch = matrixRecorderEpoch
		cpl, err := scenario.Compile(sp)
		if err != nil {
			return nil, fmt.Errorf("exp: dataset: %s ×%g: %w", j.scen, j.scaling, err)
		}
		target := 0.0
		if cpl.Capacity > 0 {
			target = float64(cpl.TrueAvailBw) / float64(cpl.Capacity)
		}
		rows := make([]DatasetRow, 0, len(c.Plan.RateFracs)*c.Plan.StreamsPerFrac)
		for _, frac := range c.Plan.RateFracs {
			rate := unit.Rate(float64(cpl.Capacity) * frac)
			if rate <= 0 {
				continue
			}
			spec := probe.Periodic(rate, c.Plan.PktSize, c.Plan.StreamLen)
			for s := 0; s < c.Plan.StreamsPerFrac; s++ {
				rec, err := core.Probe(context.Background(), cpl.Transport, spec)
				if err != nil {
					return nil, fmt.Errorf("exp: dataset: %s ×%g probe: %w", j.scen, j.scaling, err)
				}
				rows = append(rows, DatasetRow{
					Scenario:        j.scen,
					Scaling:         j.scaling,
					Trial:           j.trial,
					SimSeed:         simSeed,
					Split:           split[key],
					RateFrac:        frac,
					Stream:          s,
					CapacityMbps:    cpl.Capacity.MbpsOf(),
					TrueAvailBwMbps: cpl.TrueAvailBw.MbpsOf(),
					Target:          target,
					Features:        probe.ExtractFeatures(rec),
				})
			}
		}
		return rows, nil
	})
	if err != nil {
		return nil, fmt.Errorf("exp: dataset: %w", err)
	}
	res := &DatasetResult{Config: c}
	for _, rows := range perJob {
		res.Rows = append(res.Rows, rows...)
	}
	return res, nil
}

// SplitRows partitions the rows by their split tag.
func (r *DatasetResult) SplitRows() (train, test []DatasetRow) {
	for _, row := range r.Rows {
		if row.Split == "test" {
			test = append(test, row)
		} else {
			train = append(train, row)
		}
	}
	return train, test
}

// CSVHeader returns the dataset's CSV column names: row identity, the
// ground truth, then the model input columns.
func CSVHeader() []string {
	head := []string{"scenario", "scaling", "trial", "sim_seed", "split", "stream",
		"capacity_mbps", "true_abw_mbps", "target"}
	return append(head, ModelInputNames()...)
}

// WriteCSV writes the rows in deterministic textual form: floats in
// Go's shortest round-trip formatting, so the same dataset is
// byte-identical regardless of worker count or platform.
func (r *DatasetResult) WriteCSV(w io.Writer) error {
	row := make([]byte, 0, 256)
	appendField := func(s string) {
		if len(row) > 0 {
			row = append(row, ',')
		}
		row = append(row, s...)
	}
	flush := func() error {
		row = append(row, '\n')
		_, err := w.Write(row)
		row = row[:0]
		return err
	}
	for _, h := range CSVHeader() {
		appendField(h)
	}
	if err := flush(); err != nil {
		return err
	}
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, d := range r.Rows {
		appendField(d.Scenario)
		appendField(g(d.Scaling))
		appendField(strconv.Itoa(d.Trial))
		appendField(strconv.FormatUint(d.SimSeed, 10))
		appendField(d.Split)
		appendField(strconv.Itoa(d.Stream))
		appendField(g(d.CapacityMbps))
		appendField(g(d.TrueAvailBwMbps))
		appendField(g(d.Target))
		for _, v := range d.ModelInput() {
			appendField(g(v))
		}
		if err := flush(); err != nil {
			return err
		}
	}
	return nil
}

// WriteJSON writes the rows as one JSON document with the resolved
// sweep parameters alongside.
func (r *DatasetResult) WriteJSON(w io.Writer) error {
	doc := struct {
		Schema    string            `json:"schema"`
		Scenarios []string          `json:"scenarios"`
		Scalings  []float64         `json:"scalings"`
		Trials    int               `json:"trials"`
		Seed      uint64            `json:"seed"`
		Plan      learned.ProbePlan `json:"plan"`
		Columns   []string          `json:"input_columns"`
		Rows      []DatasetRow      `json:"rows"`
	}{
		Schema:    "abw-dataset/1",
		Scenarios: r.Config.Scenarios,
		Scalings:  r.Config.Scalings,
		Trials:    r.Config.Trials,
		Seed:      r.Config.Seed,
		Plan:      r.Config.Plan,
		Columns:   ModelInputNames(),
		Rows:      r.Rows,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// Table summarizes the sweep for EXPERIMENTS.md: per-scenario row
// counts, split sizes, and the ground-truth range the scalings induce.
func (r *DatasetResult) Table() *Table {
	t := &Table{
		Title:  "Dataset: probe-feature rows swept over catalog × cross-traffic scalings × seeds",
		Header: []string{"scenario", "rows", "train", "test", "min A/C", "max A/C"},
		Notes: []string{
			"one row per probe stream: the canonical FeatureVector plus the analytic ground truth",
			"split derived purely from the seed per (scenario, scaling, trial); at least one test configuration per (scenario, scaling)",
		},
	}
	for _, scen := range r.Config.Scenarios {
		var rows, train, test int
		minT, maxT := 2.0, -1.0
		for _, d := range r.Rows {
			if d.Scenario != scen {
				continue
			}
			rows++
			if d.Split == "test" {
				test++
			} else {
				train++
			}
			if d.Target < minT {
				minT = d.Target
			}
			if d.Target > maxT {
				maxT = d.Target
			}
		}
		if rows == 0 {
			continue
		}
		t.Rows = append(t.Rows, []string{
			scen, fmt.Sprintf("%d", rows), fmt.Sprintf("%d", train), fmt.Sprintf("%d", test),
			f2(minT), f2(maxT),
		})
	}
	return t
}
