package main

// metricDef names one metric of the ledger. The names are the contract:
// BENCHMARK.json lists exactly these, and every later performance or
// simplicity issue argues in them.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which an end-to-end
	// metric may get worse before a change is rejected (0 for per-layer
	// metrics, which carry no bound).
	Bound float64
}

// endToEnd are the run-level metrics, reported on every workload as the
// best of the timed repetitions. error_share is the sixth: the
// acceptance contract carries it as attempted/failed/correct rather
// than as a metric, because a metric there must never read 0.
var endToEnd = []metricDef{
	{"hops_per_s", "1/s", "higher", 0.25},
	{"time_to_solution_s", "s", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
	{"cpu_s_per_khop", "s", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

const errorShare = "error_share"

// perLayer are the per-layer metrics of the traced repetition and the
// probes, `layer.metric` with layer a package under internal/. The
// driver's --trace 1 object must carry every one of them on every
// workload; a metric whose layer is not on the workload's path reads 0
// there.
var perLayer = []metricDef{
	{"kmc.step_us_p50", "us", "lower", 0},
	{"kmc.step_us_p99", "us", "lower", 0},
	{"kmc.self_us_per_hop", "us", "lower", 0},
	{"kmc.self_share", "ratio", "lower", 0},
	{"kmc.refreshes_per_hop", "count", "lower", 0},
	{"kmc.refills_per_hop", "count", "lower", 0},
	{"kmc.patches_per_hop", "count", "lower", 0},

	{"encoding.fill_vet_ns", "ns", "lower", 0},
	{"encoding.fingerprint_ns", "ns", "lower", 0},
	{"encoding.encode_env_ns", "ns", "lower", 0},

	{"eam.us_per_call", "us", "lower", 0},
	{"eam.share", "ratio", "lower", 0},
	{"eam.fast_vs_ref_max_rel_err", "ratio", "lower", 0},

	{"nnp.us_per_call", "us", "lower", 0},
	{"nnp.share", "ratio", "lower", 0},
	{"nnp.region_us", "us", "lower", 0},
	{"nnp.forward_us_per_region", "us", "lower", 0},

	{"feature.region_us", "us", "lower", 0},
	{"feature.share_of_region", "ratio", "lower", 0},

	{"fusion.rows_per_system", "count", "lower", 0},
	{"fusion.wide_ns_per_row", "ns", "lower", 0},
	{"fusion.gflops_computed", "GFLOP/s", "higher", 0},

	{"evalserve.hit_rate", "ratio", "higher", 0},
	{"evalserve.batch_occupancy_mean", "count", "higher", 0},
	{"evalserve.hit_us_p50", "us", "lower", 0},
	{"evalserve.hit_us_p99", "us", "lower", 0},
	{"evalserve.miss_us_p50", "us", "lower", 0},
	{"evalserve.miss_overhead_us", "us", "lower", 0},
	{"evalserve.backend_us_per_system", "us", "lower", 0},
	{"evalserve.backend_share", "ratio", "lower", 0},
	{"evalserve.hit_path_share", "ratio", "lower", 0},
	{"evalserve.oracle_mismatches", "count", "lower", 0},

	{"wire.requests_per_hop", "count", "lower", 0},
	{"wire.bytes_per_request", "B", "lower", 0},
	{"wire.rtt_us_p50", "us", "lower", 0},
	{"wire.rtt_us_p99", "us", "lower", 0},
	{"wire.overhead_us_per_request", "us", "lower", 0},
	{"wire.share", "ratio", "lower", 0},
	{"fleet.server_hit_rate", "ratio", "higher", 0},

	{"sublattice.imbalance", "ratio", "lower", 0},
	{"sublattice.discard_ratio", "ratio", "lower", 0},
	{"sublattice.sent_per_hop", "count", "lower", 0},
	{"sublattice.model_share", "ratio", "lower", 0},
	{"sublattice.non_model_share", "ratio", "lower", 0},
	{"sublattice.efficiency_vs_serial", "ratio", "higher", 0},

	{"core.checkpoint_ms_p50", "ms", "lower", 0},
	{"core.checkpoint_bytes", "B", "lower", 0},
	{"core.checkpoints", "count", "lower", 0},
	{"core.checkpoint_share", "ratio", "lower", 0},
	{"core.replay_hops_per_s", "1/s", "higher", 0},
	{"traj.bytes_per_event", "B", "lower", 0},
	{"traj.events", "count", "lower", 0},
	{"traj.hop_record_ns", "ns", "lower", 0},

	{"core.new_ms", "ms", "lower", 0},
	{"core.close_ms", "ms", "lower", 0},
	{"core.fleet_warmup_s", "s", "lower", 0},
	{"core.alloc_kb_per_hop", "KB", "lower", 0},
	{"core.gc_cycles", "count", "lower", 0},

	{"trace.overhead_share", "ratio", "lower", 0},
	{"trace.unattributed_share", "ratio", "lower", 0},
}

// cleanCounters are the fleet client's recovery counters. The suite
// prints them by name like any per-layer metric, but they must read 0 on
// a healthy loopback fleet, so they are gated by the fleet_clean check
// and not listed in BENCHMARK.json.
var cleanCounters = []metricDef{
	{"fleet.retries", "count", "lower", 0},
	{"fleet.failovers", "count", "lower", 0},
	{"fleet.fallbacks", "count", "lower", 0},
}
