package main

import (
	"fmt"
	"math"
	"time"

	"abw/internal/livenet"
	"abw/internal/probe"
	"abw/internal/unit"
)

const (
	// Zero-gap trains of minimum-size packets: per-packet cost dominates.
	trainPkts = 1024
	trainSize = 64
	// Paced trains of full-size packets at pacedRates.
	pacedPkts = 100
	pacedSize = 1500
	// liveRcvBuf and liveDrainWait are set explicitly: with the
	// default receive buffer the kernel drops paced packets at a few
	// hundred Mbps, and every lossy stream then waits out the drain.
	liveRcvBuf    = 4 << 20
	liveDrainWait = 200 * time.Millisecond
)

var pacedRates = []unit.Rate{100 * unit.Mbps, 250 * unit.Mbps, 500 * unit.Mbps}

// zeroGap has a rate so high that every departure gap rounds to 0 ns,
// so the transport sends the train as back-to-back batches.
var zeroGap = probe.Periodic(unit.Rate(1e15), trainSize, trainPkts)

// liveRig is one receiver on loopback and two sessions to it: session 0
// sends the zero-gap trains, session 1 the paced ones.
type liveRig struct {
	rcv  *livenet.Receiver
	trs  [2]*livenet.Transport
	dial [2]time.Duration
}

func newLiveRig() (*liveRig, error) {
	rcv, err := livenet.ListenReceiverConfig("127.0.0.1:0", livenet.Config{RcvBuf: liveRcvBuf})
	if err != nil {
		return nil, err
	}
	r := &liveRig{rcv: rcv}
	for i := range r.trs {
		t0 := time.Now()
		tr, err := livenet.Dial(rcv.Addr())
		if err != nil {
			r.close()
			return nil, err
		}
		r.dial[i] = time.Since(t0)
		tr.DrainWait = liveDrainWait
		r.trs[i] = tr
	}
	return r, nil
}

func (r *liveRig) close() {
	for _, tr := range r.trs {
		if tr != nil {
			tr.Close()
		}
	}
	r.rcv.Close()
}

// liveProbe is one timed stream. Records are not kept, so memory does
// not grow with the number of streams a run sends.
type liveProbe struct {
	// rtt is the Probe call's wall time, cpu the process CPU time it
	// used.
	rtt, cpu time.Duration
	spec     probe.StreamSpec
	// delivered counts received packets.
	delivered int
}

// liveRun is one measured phase.
type liveRun struct {
	train, paced []liveProbe
	before       livenet.Stats
	after        livenet.Stats
	allocMB      float64
	problems     []string
	// sendErr and rxNoise hold the paced trains' per-gap timing errors
	// in µs, collected in traced runs only: sent gaps against intended,
	// and receive gaps against sent.
	sendErr, rxNoise []float64
}

func (r *liveRig) probe(tr *tracer, parent, session int, name string, spec probe.StreamSpec, run *liveRun) (liveProbe, error) {
	id := tr.begin(name, parent)
	c0, t0 := cpuTime(), time.Now()
	rec, err := r.trs[session].Probe(spec)
	p := liveProbe{rtt: time.Since(t0), cpu: cpuTime() - c0, spec: spec}
	tr.end(id)
	if err != nil {
		return p, fmt.Errorf("%s: %w", name, err)
	}
	if len(rec.Recv) != spec.Count || len(rec.Sent) != spec.Count {
		run.problems = append(run.problems, fmt.Sprintf("%s returned %d stamps for %d packets", name, len(rec.Recv), spec.Count))
		return p, nil
	}
	p.delivered = spec.Count - rec.LossCount()
	if gap := unit.GapFor(spec.PktSize, spec.Rate); tr != nil && gap > 0 {
		for k := 1; k < spec.Count; k++ {
			sg := rec.Sent[k] - rec.Sent[k-1]
			run.sendErr = append(run.sendErr, math.Abs(float64(sg-gap))/1e3)
			if rec.Recv[k] != probe.Lost && rec.Recv[k-1] != probe.Lost {
				rg := rec.Recv[k] - rec.Recv[k-1]
				run.rxNoise = append(run.rxNoise, math.Abs(float64(rg-sg))/1e3)
			}
		}
	}
	return p, nil
}

// measure alternates a zero-gap train and a paced train, one stream in
// flight at a time, until seconds have passed.
func (r *liveRig) measure(tr *tracer, seconds float64) (liveRun, error) {
	root := tr.begin("live-loopback", 0)
	defer tr.end(root)
	run := liveRun{before: r.rcv.Stats()}
	alloc := totalAllocMB()
	start := time.Now()
	for i := 0; time.Since(start).Seconds() < seconds; i++ {
		p, err := r.probe(tr, root, 0, "livenet.train", zeroGap, &run)
		if err != nil {
			return run, err
		}
		run.train = append(run.train, p)
		rate := pacedRates[i%len(pacedRates)]
		p, err = r.probe(tr, root, 1, "livenet.paced."+rateName(rate), probe.Periodic(rate, pacedSize, pacedPkts), &run)
		if err != nil {
			return run, err
		}
		run.paced = append(run.paced, p)
	}
	run.after = r.rcv.Stats()
	run.allocMB = totalAllocMB() - alloc
	return run, nil
}

func rateName(r unit.Rate) string { return fmt.Sprintf("%.0fmbps", r.MbpsOf()) }

// runLive is the live-loopback workload.
func runLive(opts options, tr *tracer) (*outcome, error) {
	out := newOutcome()
	var dials []float64
	rig, setupS, err := timeSetup(func() (*liveRig, error) {
		r, err := newLiveRig()
		if err == nil {
			dials = append(dials, ms(r.dial[0]), ms(r.dial[1]))
		}
		return r, err
	}, func(r *liveRig) { r.close() })
	if err != nil {
		return nil, err
	}
	defer rig.close()

	measure := opts.seconds
	if tr != nil {
		measure /= 2
	}
	mem := startMemPeak()
	defer mem.close()
	run, err := rig.measure(nil, measure)
	if err != nil {
		return nil, err
	}
	runs := []liveRun{run}
	if tr != nil {
		if run, err = rig.measure(tr, measure); err != nil {
			return nil, err
		}
		runs = append(runs, run)
	}
	memMB := mem.take()
	if opts.corrupt {
		runs[0].train[0].delivered++
	}

	var rtts, rates, cpu, overhead []float64
	sent, delivered := 0, 0
	for _, run := range runs {
		out.problems = append(out.problems, run.problems...)
		got := run.after.Packets - run.before.Packets
		want := 0
		for _, p := range run.train {
			rtts = append(rtts, ms(p.rtt))
			rates = append(rates, float64(p.delivered)/p.rtt.Seconds())
			cpu = append(cpu, ratio(ms(p.cpu), float64(p.delivered)))
			want += p.delivered
			sent += p.spec.Count
		}
		for _, p := range run.paced {
			overhead = append(overhead, ms(p.rtt-p.spec.Duration()))
			want += p.delivered
			sent += p.spec.Count
		}
		delivered += want
		out.attempted += len(run.train) + len(run.paced)
		out.check(uint64(want) == got, "probes delivered %d stamps, receiver stamped %d packets", want, got)
	}
	fmt.Fprintf(opts.log, "live-loopback: %d zero-gap and %d paced trains (p99 over %d samples)\n",
		len(rtts), len(overhead), len(rtts))
	// The median train's rate, so a stall on a shared host moves a few
	// trains rather than the run's figure.
	pps := median(rates)
	p50, p99 := median(rtts), quantile(rtts, 0.99)
	loss := float64(sent-delivered) / float64(sent)
	out.named["live_pkts_per_s"] = metric{pps, "1/s"}
	out.named["live_train_p50_ms"] = metric{p50, "ms"}
	out.named["live_train_p99_ms"] = metric{p99, "ms"}
	out.named["live_paced_overhead_p50_ms"] = metric{median(overhead), "ms"}
	out.named["live_loss_frac"] = metric{loss, "1"}
	out.named["live_cpu_ms_per_pkt"] = metric{median(cpu), "ms"}
	out.generic["cpu_ms_per_op"] = median(cpu)

	st := rig.rcv.Stats()
	out.host["rcvbuf_bytes"] = st.RcvBufBytes
	out.host["kernel_stamps"] = st.KernelTimestamps
	if tr != nil {
		liveLayers(runs[0], runs[1], st, dials, tr, out.layers)
	}
	finishCommon(out, setupS, memMB)
	return out, nil
}

// liveLayers reports the livenet and ingest layers from the traced
// phase.
func liveLayers(untraced, traced liveRun, st livenet.Stats, dials []float64, tr *tracer, into map[string]float64) {
	into["livenet.dial_ms"] = median(dials)
	var rtt, u []float64
	pkts := 0
	for _, p := range traced.train {
		rtt = append(rtt, ms(p.rtt))
		pkts += p.spec.Count
	}
	for _, p := range untraced.train {
		u = append(u, ms(p.rtt))
	}
	into["livenet.train_probe_ms"] = median(rtt)
	into["trace.overhead_frac"] = overhead(rtt, u)
	for _, rate := range pacedRates {
		var xs []float64
		for _, p := range traced.paced {
			if p.spec.Rate == rate {
				xs = append(xs, ms(p.rtt))
			}
		}
		into["livenet.paced_probe_ms."+rateName(rate)] = median(xs)
	}
	for _, p := range traced.paced {
		pkts += p.spec.Count
	}
	into["livenet.send_gap_err_us_p50"] = median(traced.sendErr)
	into["livenet.send_gap_err_us_p99"] = quantile(traced.sendErr, 0.99)
	into["livenet.rx_gap_noise_us_p50"] = median(traced.rxNoise)
	into["livenet.rx_gap_noise_us_p99"] = quantile(traced.rxNoise, 0.99)
	into["livenet.alloc_bytes_per_pkt"] = ratio(traced.allocMB*(1<<20), float64(pkts))
	b, a := traced.before, traced.after
	into["livenet.ingest.pkts_per_batch"] = float64(a.Packets-b.Packets) / float64(max(a.Batches-b.Batches, 1))
	b = untraced.before
	into["livenet.ingest.drops"] = float64(a.Drops - b.Drops)
	into["livenet.ingest.size_mismatches"] = float64(a.SizeMismatches - b.SizeMismatches)
	into["livenet.ingest.source_mismatches"] = float64(a.SourceMismatches - b.SourceMismatches)
	into["livenet.ingest.kernel_stamps"] = 0
	if st.KernelTimestamps {
		into["livenet.ingest.kernel_stamps"] = 1
	}
	into["livenet.rcvbuf_bytes"] = float64(st.RcvBufBytes)
	tr.layerMetrics(into, "live-loopback")
}
