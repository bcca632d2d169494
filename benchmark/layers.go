package main

import (
	"fmt"
	"runtime"
	"strconv"
)

// perLayer are the metrics of single layers, measured by the traced run.
// A workload that does not exercise a layer reports 0 for its metrics
// (live.* on the simulated workloads; sim.*, network.*, rate.* and
// metrics.* on live_churn; the sharded ratios everywhere but
// internet_burst). README.md says which end-to-end metric, on which
// workload, each of them should move.
var perLayer = []metricDef{
	{name: "topology.generate_ms", unit: "ms", better: "lower"},
	{name: "topology.addhosts_ms", unit: "ms", better: "lower"},
	{name: "graph.hostpath_us", unit: "us", better: "lower"},
	{name: "graph.hostpath_sorted_us", unit: "us", better: "lower"},
	{name: "graph.hostpath_cold_us", unit: "us", better: "lower"},
	{name: "sim.replay_ns_per_event", unit: "ns", better: "lower"},
	{name: "sim.replay_events", unit: "count", better: "lower"},
	{name: "sim.queue_depth_max", unit: "count", better: "lower"},
	{name: "sim.share", unit: "ratio", better: "lower"},
	{name: "sim.sharded1_ratio", unit: "ratio", better: "higher"},
	{name: "sim.sharded_nproc_ratio", unit: "ratio", better: "higher"},
	{name: "network.run_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "network.self_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "network.allocs_per_pkt", unit: "count", better: "lower"},
	{name: "network.alloc_bytes_per_pkt", unit: "B", better: "lower"},
	{name: "network.gc_cycles", unit: "count", better: "lower"},
	{name: "network.validate_self_ms", unit: "ms", better: "lower"},
	{name: "network.packets", unit: "count", better: "lower"},
	{name: "network.pkts_per_session", unit: "count", better: "lower"},
	{name: "network.virt_quiescence_us", unit: "us", better: "lower"},
	{name: "network.pkts.join", unit: "count", better: "lower"},
	{name: "network.pkts.probe", unit: "count", better: "lower"},
	{name: "network.pkts.response", unit: "count", better: "lower"},
	{name: "network.pkts.update", unit: "count", better: "lower"},
	{name: "network.pkts.bottleneck", unit: "count", better: "lower"},
	{name: "network.pkts.setbottleneck", unit: "count", better: "lower"},
	{name: "network.pkts.leave", unit: "count", better: "lower"},
	{name: "network.migrations", unit: "count", better: "lower"},
	{name: "network.stranded", unit: "count", better: "lower"},
	{name: "network.reconfig_pkts", unit: "count", better: "lower"},
	{name: "core.pump_ns_per_pkt", unit: "ns", better: "lower"},
	{name: "core.pump_packets", unit: "count", better: "lower"},
	{name: "core.pump_allocs_per_pkt", unit: "count", better: "lower"},
	{name: "core.share", unit: "ratio", better: "lower"},
	{name: "core.link_tasks", unit: "count", better: "lower"},
	{name: "core.sessions_per_link_mean", unit: "count", better: "lower"},
	{name: "core.sessions_per_link_max", unit: "count", better: "lower"},
	{name: "rate.replay_ns_per_op", unit: "ns", better: "lower"},
	{name: "rate.replay_allocs_per_op", unit: "count", better: "lower"},
	{name: "rate.wide_operand_share", unit: "ratio", better: "lower"},
	{name: "waterfill.solve_ms", unit: "ms", better: "lower"},
	{name: "waterfill.instance_sessions", unit: "count", better: "lower"},
	{name: "waterfill.instance_links", unit: "count", better: "lower"},
	{name: "waterfill.incremental_flush_ms", unit: "ms", better: "lower"},
	{name: "live.join_call_us", unit: "us", better: "lower"},
	{name: "live.topology_call_ms", unit: "ms", better: "lower"},
	{name: "live.wait_quiescent_ms", unit: "ms", better: "lower"},
	{name: "live.rates_read_us", unit: "us", better: "lower"},
	{name: "live.packets", unit: "count", better: "lower"},
	{name: "live.goroutines", unit: "count", better: "lower"},
	{name: "live.incarnations", unit: "count", better: "lower"},
	{name: "live.migrations", unit: "count", better: "lower"},
	{name: "metrics.record_ns", unit: "ns", better: "lower"},
	{name: "trace.overhead_share", unit: "ratio", better: "lower"},
}

// runTraced is the separate traced run. Per workload it makes one untraced
// repetition (the reference for the tracing overhead and for the packet
// count and digest the traced one must reproduce) and one traced
// repetition, which records spans and packets and runs the layer probes.
// End-to-end metrics are never taken from here.
func runTraced(o options, sc scale, names []string) int {
	set := &setResult{Machine: thisMachine(o.seed), Scale: sc.name}
	for _, name := range names {
		w := &workloadResult{Name: name, Layer: map[string]float64{}}
		set.Workloads = append(set.Workloads, w)
		plain, err := runRep(o, sc, name, nil)
		w.add(plain, err)
		if err == nil {
			pps := float64(plain.Packets) / plain.RunS
			traced, err := runRep(o, sc, name, []string{"-trace", "-out", o.outDir,
				"-expect-packets", strconv.FormatUint(plain.Packets, 10), "-expect-digest", plain.Digest})
			w.add(traced, err)
			if err == nil {
				w.Layer = traced.Layer
				w.Layer["trace.overhead_share"] = 1 - float64(traced.Packets)/traced.RunS/pps
			}
			if name == wlInternet {
				// ROADMAP's keep-or-delete evidence for the sharded engine.
				// Dropping the engine later means dropping these lines.
				for _, probe := range []struct {
					metric string
					shards int
				}{{"sim.sharded1_ratio", 1}, {"sim.sharded_nproc_ratio", runtime.NumCPU()}} {
					sh, err := runRep(o, sc, name, []string{"-shards", strconv.Itoa(probe.shards)})
					w.add(sh, err)
					if err == nil {
						w.Layer[probe.metric] = float64(sh.Packets) / sh.RunS / pps
					}
				}
			}
		}
		// All of these repetitions simulate the same seed, sharded or not,
		// traced or not: finish checks that their digests agree.
		w.finish(o.seed, sc)
		w.Metrics = nil // end-to-end metrics are never taken from a traced run
		fmt.Printf("\n%s — traced run (failed %d of %d checks)\n", name, w.Failed, w.Attempted)
		for _, d := range perLayer {
			fmt.Printf("  %-32s %-6s %16.4f\n", d.name, d.unit, w.Layer[d.name])
		}
		for _, f := range w.Failures {
			fmt.Printf("  FAILED: %s\n", f)
		}
	}
	fmt.Printf("\ntrace files: %s/trace-<workload>.json (Chrome trace-event format)\n", o.outDir)
	return set.conclude(o, perLayer)
}
