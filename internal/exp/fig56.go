package exp

import (
	"fmt"
	"time"

	"abw/internal/probe"
	"abw/internal/rng"
	"abw/internal/runner"
	"abw/internal/scenario"
	"abw/internal/sim"
	"abw/internal/stats"
	"abw/internal/trace"
	"abw/internal/unit"
)

// Figure5Config parameterizes the OWD-trend demonstration. Zero fields
// take the paper's values: two 160-packet streams at 27 and 19 Mbps over
// a path with A = 25 Mbps.
type Figure5Config struct {
	Capacity  unit.Rate  // default 50 Mbps
	CrossRate unit.Rate  // default 25 Mbps
	AboveRate unit.Rate  // default 27 Mbps (> A)
	BelowRate unit.Rate  // default 19 Mbps (< A)
	StreamLen int        // default 160
	PktSize   unit.Bytes // default 1500
	// BurstPackets is the size of the cross-traffic burst injected near
	// the end of the below-A stream, recreating the paper's lower time
	// series where Ro < Ri despite Ri < A (default 120 packets).
	BurstPackets int
	Seed         uint64
}

func (c Figure5Config) withDefaults() Figure5Config {
	if c.Capacity == 0 {
		c.Capacity = 50 * unit.Mbps
	}
	if c.CrossRate == 0 {
		c.CrossRate = 25 * unit.Mbps
	}
	if c.AboveRate == 0 {
		c.AboveRate = 27 * unit.Mbps
	}
	if c.BelowRate == 0 {
		c.BelowRate = 19 * unit.Mbps
	}
	if c.StreamLen == 0 {
		c.StreamLen = 160
	}
	if c.PktSize == 0 {
		c.PktSize = 1500
	}
	if c.BurstPackets == 0 {
		c.BurstPackets = 120
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Figure5Stream is one probing stream's analysis.
type Figure5Stream struct {
	Label      string
	InputMbps  float64
	OutputMbps float64
	RelOWDsMs  []float64
	Trend      stats.TrendResult
}

// Figure5Result is the experiment outcome.
type Figure5Result struct {
	Config Figure5Config
	Above  Figure5Stream // Ri > A: increasing OWDs AND Ro < Ri
	Below  Figure5Stream // Ri < A with a late burst: Ro < Ri but NO trend
	TrueA  float64
}

// Figure5 regenerates the paper's Figure 5: the OWD time series carries
// more information than the single Ro/Ri number. The above-A stream
// shows a clear increasing trend; the below-A stream suffers a late
// cross-traffic burst that depresses its output rate without creating a
// trend — so rate comparison misclassifies it and trend analysis does
// not.
func Figure5(cfg Figure5Config) (*Figure5Result, error) {
	c := cfg.withDefaults()
	res := &Figure5Result{Config: c, TrueA: (c.Capacity - c.CrossRate).MbpsOf()}

	run := func(ri unit.Rate, burst bool, label string) (Figure5Stream, error) {
		spec := probe.Periodic(ri, c.PktSize, c.StreamLen)
		start := 200 * time.Millisecond
		horizon := start + spec.Duration() + 2*time.Second
		// Smooth baseline cross traffic (small packets so it is nearly
		// fluid; the burst below provides the bursty event).
		cpl, err := scenario.Compile(scenario.Spec{
			Horizon:       horizon,
			RecorderEpoch: matrixRecorderEpoch,
			Hops: []scenario.Hop{{
				Capacity: c.Capacity,
				Traffic:  []scenario.Source{{Kind: scenario.CBR, Rate: c.CrossRate, PktSize: 300}},
			}},
		})
		if err != nil {
			return Figure5Stream{}, fmt.Errorf("exp: figure5: %w", err)
		}
		s, path := cpl.Sim, cpl.Path
		if burst {
			// A dense burst arriving during the last ~10% of the stream.
			burstStart := start + spec.Duration()*9/10
			for i := 0; i < c.BurstPackets; i++ {
				s.Inject(&sim.Packet{
					Size:  1500,
					Kind:  sim.KindCross,
					Flow:  9999,
					Route: path.Route(),
				}, burstStart+time.Duration(i)*20*time.Microsecond)
			}
		}
		rec, err := probe.SendOverSim(s, path.Route(), spec, start, 1)
		if err != nil {
			return Figure5Stream{}, err
		}
		s.RunUntil(horizon)
		owds := rec.OWDs()
		vals := make([]float64, len(owds))
		for i, d := range owds {
			vals[i] = d.Seconds()
		}
		return Figure5Stream{
			Label:      label,
			InputMbps:  rec.InputRate().MbpsOf(),
			OutputMbps: rec.OutputRate().MbpsOf(),
			RelOWDsMs:  rec.RelativeOWDsMs(),
			Trend:      stats.OWDTrend(vals, stats.TrendConfig{}),
		}, nil
	}

	// The two streams run in separate simulators, so they are two
	// runner jobs (both fully deterministic: the baseline cross traffic
	// is CBR and the burst is injected at fixed instants).
	streams, err := runner.All(2, func(i int) (Figure5Stream, error) {
		if i == 0 {
			return run(c.AboveRate, false, "Ri > A")
		}
		return run(c.BelowRate, true, "Ri < A, late burst")
	})
	if err != nil {
		return nil, fmt.Errorf("exp: figure5: %w", err)
	}
	res.Above, res.Below = streams[0], streams[1]
	return res, nil
}

// Table renders both streams' verdicts.
func (r *Figure5Result) Table() *Table {
	t := &Table{
		Title:  "Figure 5: OWD trend analysis vs the Ro/Ri ratio (A = 25 Mbps)",
		Header: []string{"stream", "Ri (Mbps)", "Ro (Mbps)", "Ro<Ri?", "PCT", "PDT", "trend verdict"},
		Notes: []string{
			"paper: the lower stream has Ro < Ri from a late burst, yet no increasing OWD trend",
		},
	}
	for _, s := range []Figure5Stream{r.Above, r.Below} {
		t.Rows = append(t.Rows, []string{
			s.Label, f2(s.InputMbps), f2(s.OutputMbps),
			fmt.Sprintf("%v", s.OutputMbps < s.InputMbps-0.01),
			f2(s.Trend.PCT), f2(s.Trend.PDT), s.Trend.Verdict.String(),
		})
	}
	return t
}

// Figure6Config parameterizes the variation-range sample path. Zero
// fields take the paper's values: τ = 10 ms over 20 s.
type Figure6Config struct {
	Tau       time.Duration // default 10 ms
	Span      time.Duration // default 20 s
	TraceSpan time.Duration // default = Span
	Seed      uint64
}

func (c Figure6Config) withDefaults() Figure6Config {
	if c.Tau == 0 {
		c.Tau = 10 * time.Millisecond
	}
	if c.Span == 0 {
		c.Span = 20 * time.Second
	}
	if c.TraceSpan == 0 {
		c.TraceSpan = c.Span
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// Figure6Result is the experiment outcome.
type Figure6Result struct {
	Config Figure6Config
	// SeriesMbps is the avail-bw sample path at timescale Tau.
	SeriesMbps []float64
	MeanMbps   float64
	Q05, Q95   float64
	Min, Max   float64
}

// Figure6 regenerates the paper's Figure 6: a sample path of the
// avail-bw process at τ = 10 ms, whose variation range — roughly 60 to
// 110 Mbps on the paper's trace — is what iterative probing converges
// to, rather than any single number.
func Figure6(cfg Figure6Config) (*Figure6Result, error) {
	c := cfg.withDefaults()
	tr, err := trace.SynthesizeFGN(trace.FGNConfig{Span: c.TraceSpan}, rng.New(c.Seed))
	if err != nil {
		return nil, fmt.Errorf("exp: figure6: %w", err)
	}
	series := tr.AvailBwSeries(0, c.Span, c.Tau)
	vals := make([]float64, len(series))
	for i, a := range series {
		vals[i] = a.MbpsOf()
	}
	cdf := stats.NewCDF(vals)
	min, max := stats.MinMax(vals)
	return &Figure6Result{
		Config:     c,
		SeriesMbps: vals,
		MeanMbps:   stats.Mean(vals),
		Q05:        cdf.Quantile(0.05),
		Q95:        cdf.Quantile(0.95),
		Min:        min,
		Max:        max,
	}, nil
}

// Table summarizes the sample path.
func (r *Figure6Result) Table() *Table {
	return &Table{
		Title:  "Figure 6: variation range of an avail-bw sample path (tau = 10 ms)",
		Header: []string{"windows", "mean", "q05", "q95", "min", "max"},
		Rows: [][]string{{
			fmt.Sprintf("%d", len(r.SeriesMbps)),
			f2(r.MeanMbps), f2(r.Q05), f2(r.Q95), f2(r.Min), f2(r.Max),
		}},
		Notes: []string{
			"paper: the 10ms avail-bw varies roughly between 60 and 110 Mbps — a range, not a point",
		},
	}
}
