package exp

import (
	"context"
	"fmt"
	"time"

	"abw/internal/core"
	"abw/internal/rng"
	"abw/internal/runner"
	"abw/internal/scenario"
	"abw/internal/tools/registry"
)

// matrixRecorderEpoch is the aggregate ground-truth granularity of the
// matrix runs. The matrix only consumes the analytic (spec-derived)
// truth, so the recorders exist purely as bounded diagnostics: per-epoch
// counters keep the many long-horizon compilations from holding one
// Arrival row per cross-traffic packet each.
//
// The same holds for every experiment that scores against analytic
// truth and never queries a recorder — CompareTools, LatencyAccuracy,
// NarrowVsTight, Figures 3, 4, 5 and 7, and Table 1 — so they compile
// with it too. A recorder only observes the links, so its mode cannot
// change their output. Figure 2 keeps full recorders: it reads
// ArrivalRate over windows that do not align with an epoch.
const matrixRecorderEpoch = 100 * time.Millisecond

// MatrixConfig parameterizes the tools×scenarios matrix: every
// registered end-to-end estimator against every cataloged scenario.
// This is the experiment the paper's summary asks for — "compare and
// evaluate the existing estimation techniques under reproducible and
// controllable conditions" — with the conditions drawn from the
// scenario catalog instead of a single canonical path.
type MatrixConfig struct {
	// Tools are registry names (default: every tool that runs over a
	// plain Transport; SimOnly tools need hop visibility the matrix
	// does not model fairly).
	Tools []string
	// Scenarios are catalog names (default: the whole catalog).
	Scenarios []string
	// Quick reduces per-tool probing effort for a fast pass.
	Quick bool
	// Budget, if non-zero, caps every run uniformly.
	Budget core.Budget
	Seed   uint64
}

func (c MatrixConfig) withDefaults() MatrixConfig {
	if len(c.Tools) == 0 {
		for _, d := range registry.Tools() {
			if !d.SimOnly {
				c.Tools = append(c.Tools, d.Name)
			}
		}
	}
	if len(c.Scenarios) == 0 {
		c.Scenarios = scenario.Names()
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// MatrixScenarioInfo is one scenario row's ground truth.
type MatrixScenarioInfo struct {
	Name    string
	Summary string
	Hops    int
	// TrueAvailBwMbps is the analytic long-run avail-bw of the tight
	// link.
	TrueAvailBwMbps float64
	// CapacityMbps is the tight-link capacity handed to the tools.
	CapacityMbps float64
	// TightLink and NarrowLink are hop indices; where they differ the
	// scenario exercises the paper's fifth pitfall.
	TightLink, NarrowLink int
}

// MatrixCell is one (scenario, tool) outcome.
type MatrixCell struct {
	Scenario string `json:"scenario"`
	core.Outcome
	Err error `json:"-"`
}

// MatrixResult is the matrix outcome: scenario rows × tool columns.
type MatrixResult struct {
	Config    MatrixConfig
	Tools     []string
	Scenarios []MatrixScenarioInfo
	// Cells is scenario-major, tool-minor.
	Cells []MatrixCell
}

// Cell returns the outcome for a scenario/tool pair.
func (r *MatrixResult) Cell(scenarioName, tool string) (MatrixCell, bool) {
	for _, c := range r.Cells {
		if c.Scenario == scenarioName && c.Tool == tool {
			return c, true
		}
	}
	return MatrixCell{}, false
}

// Matrix runs every selected tool against every selected scenario.
// Each (scenario, tool) pair is one runner job: the tool probes a
// fresh compilation of the scenario (same seed, so every tool sees
// statistically identical conditions), with the tight-link capacity as
// its Capacity parameter — the best case the paper grants direct
// probing. Results are bit-identical at every worker count.
func Matrix(cfg MatrixConfig) (*MatrixResult, error) {
	c := cfg.withDefaults()
	res := &MatrixResult{Config: c, Tools: c.Tools}

	for _, name := range c.Scenarios {
		d, ok := scenario.Lookup(name)
		if !ok {
			return nil, fmt.Errorf("exp: matrix: unknown scenario %q (have %v)", name, scenario.Names())
		}
		cpl, err := d.CompileSeededAggregate(c.Seed, matrixRecorderEpoch)
		if err != nil {
			return nil, fmt.Errorf("exp: matrix: %s: %w", name, err)
		}
		res.Scenarios = append(res.Scenarios, MatrixScenarioInfo{
			Name:            d.Name,
			Summary:         d.Summary,
			Hops:            len(d.Spec.Hops),
			TrueAvailBwMbps: cpl.TrueAvailBw.MbpsOf(),
			CapacityMbps:    cpl.Capacity.MbpsOf(),
			TightLink:       cpl.TightLink,
			NarrowLink:      cpl.NarrowLink,
		})
	}

	cells, err := runner.All(len(c.Scenarios)*len(c.Tools), func(job int) (MatrixCell, error) {
		si, ti := job/len(c.Tools), job%len(c.Tools)
		name, tool := c.Scenarios[si], c.Tools[ti]
		d, _ := scenario.Lookup(name)
		cpl, err := d.CompileSeededAggregate(c.Seed, matrixRecorderEpoch)
		if err != nil {
			return MatrixCell{}, fmt.Errorf("exp: matrix: %s: %w", name, err)
		}
		params := registry.Params{
			Capacity: cpl.Capacity,
			Rand:     rng.New(c.Seed + 1),
			Budget:   c.Budget,
		}
		if c.Quick {
			params.Repeat = 6
			params.MaxRounds = 6
			if tool == "learned" {
				// Repeat maps onto streams-per-rate-fraction for the
				// learned tool, where 6 would *raise* effort above its
				// plan default of 4; 2 keeps quick a reduced-effort
				// pass there too (8 streams instead of 16).
				params.Repeat = 2
			}
		}
		rep, err := registry.Estimate(context.Background(), tool, params, cpl.Transport)
		return MatrixCell{Scenario: d.Name, Outcome: core.NewOutcome(tool, rep, err), Err: err}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("exp: matrix: %w", err)
	}
	res.Cells = cells
	return res, nil
}

// Table renders the matrix: one row per scenario, one estimate column
// per tool, with the ground truth alongside.
func (r *MatrixResult) Table() *Table {
	t := &Table{
		Title:  "Matrix: every registered tool × every cataloged scenario (estimates in Mbps)",
		Header: []string{"scenario", "hops", "true A", "tight=narrow"},
		Notes: []string{
			"paper: which conditions break which estimator — burstiness, multiple bottlenecks, " +
				"responsive cross traffic and avail-bw variability each defeat a different technique",
			"each tool receives the tight-link capacity (the best case for direct probing); " +
				"'x' marks a failed run",
		},
	}
	t.Header = append(t.Header, r.Tools...)
	for _, sc := range r.Scenarios {
		eq := "yes"
		if sc.TightLink != sc.NarrowLink {
			eq = "NO"
		}
		row := []string{sc.Name, fmt.Sprintf("%d", sc.Hops), f2(sc.TrueAvailBwMbps), eq}
		for _, tool := range r.Tools {
			cell, ok := r.Cell(sc.Name, tool)
			switch {
			case !ok || cell.Err != nil:
				row = append(row, "x")
			default:
				row = append(row, f2(cell.Report.Point.MbpsOf()))
			}
		}
		t.Rows = append(t.Rows, row)
	}
	return t
}
