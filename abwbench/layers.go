package main

import (
	"fmt"
	"sort"

	"abw/internal/tools/registry"
)

// perLayerNames lists every per-layer metric a traced run reports, in
// the order BENCHMARK.json lists them. A workload that does not
// exercise a layer reports 0 for its metrics: that is the bypass
// prediction README.md makes for it.
func perLayerNames() []string {
	var ns []string
	for _, e := range quickExperiments {
		ns = append(ns, "exp."+e.name+"_ms")
	}
	ns = append(ns, "exp.alloc_mb",
		"scenario.compile_ms", "scenario.compile_alloc_mb", "scenario.compile_lrd_ms", "scenario.recycle_ms",
		"sim.probe_ms", "sim.streams", "sim.probe_us_per_stream")
	for _, name := range registry.Names() {
		ns = append(ns, "tools."+name+".self_ms")
	}
	ns = append(ns, "probe.features_us_per_stream", "runner.parallel_eff",
		"monitor.cycle_ms", "monitor.estimate_ms_per_run",
		"monitor.store.append_ns", "monitor.ledger.admit_commit_ns", "monitor.alloc_mb_per_krun",
		"monitor.http.metrics_ms", "monitor.http.series_ms", "monitor.http.status_ms", "monitor.http.metrics_bytes",
		"monitor.runs_ok", "monitor.runs_err", "monitor.deferred", "monitor.refused",
		"monitor.overruns", "monitor.recompiles", "monitor.points",
		"livenet.dial_ms", "livenet.train_probe_ms")
	for _, r := range pacedRates {
		ns = append(ns, "livenet.paced_probe_ms."+rateName(r))
	}
	ns = append(ns, "livenet.alloc_bytes_per_pkt", "livenet.ingest.pkts_per_batch",
		"livenet.ingest.drops", "livenet.ingest.size_mismatches", "livenet.ingest.source_mismatches",
		"livenet.ingest.kernel_stamps", "livenet.rcvbuf_bytes",
		"livenet.send_gap_err_us_p50", "livenet.send_gap_err_us_p99",
		"livenet.rx_gap_noise_us_p50", "livenet.rx_gap_noise_us_p99")
	for _, l := range []string{"exp", "scenario", "sim", "tools", "probe", "monitor", "livenet"} {
		ns = append(ns, "layer."+l+".self_ms")
	}
	return append(ns, "trace.coverage_frac", "trace.overhead_frac")
}

// completeLayers fills every per-layer metric the workload did not
// report with 0, and rejects a name that is not in perLayerNames.
func completeLayers(layers map[string]float64) error {
	known := map[string]bool{}
	for _, n := range perLayerNames() {
		known[n] = true
		if _, ok := layers[n]; !ok {
			layers[n] = 0
		}
	}
	var unknown []string
	for n := range layers {
		if !known[n] {
			unknown = append(unknown, n)
		}
	}
	sort.Strings(unknown)
	if len(unknown) > 0 {
		return fmt.Errorf("per-layer metrics missing from perLayerNames: %v", unknown)
	}
	return nil
}
