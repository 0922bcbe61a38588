package main

// metricSpec names one metric. Bound is the share of the parent's median by
// which an end-to-end metric may get worse before a change counts as a
// regression; per-layer metrics explain and have none. BENCHMARK.json at
// the repository root repeats these tables for the driver; the smoke test
// fails if the two disagree.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// "msg" everywhere is one guaranteed application message delivered for the
// first time to its destination's Handle. vms and vs are virtual
// milliseconds and seconds.
var endToEnd = []metricSpec{
	// Host axis: what people who run sweeps, chaos searches and figures pay.
	// The two wall-clock bounds are the widest the driver allows: this host's
	// speed drifts ±10 % over minutes (README, "Measured on this host"), and
	// smaller differences need the interleaved A/B recipe, not this gate.
	{"setup_s", "s", "lower", 0.25},
	{"msgs_per_s", "msgs/s", "higher", 0.25},
	{"allocs_per_msg", "count", "lower", 0.02},
	{"alloc_bytes_per_msg", "B", "lower", 0.03},
	{"retained_heap_mb", "MB", "lower", 0.05},
	// Protocol axis: virtual time and counts. For one seed these repeat
	// exactly; the bounds are three times what another seed's inputs move
	// them by, since the driver compares runs across seeds.
	{"deliver_p50_vms", "vms", "lower", 0.01},
	{"deliver_p99_vms", "vms", "lower", 0.06},
	{"vmsgs_per_vs", "msgs/vs", "higher", 0.02},
	{"wire_frames_per_msg", "count", "lower", 0.02},
}

// source of a per-layer metric.
const (
	fromAnyPass = iota // counts and virtual times: exact, same in every pass
	fromTraced         // host ns of the drives, span stages, monitor counts
	fromParent         // needs both the untraced and the traced passes
)

type layerSpec struct {
	metricSpec
	from int
}

func layer(name, unit, better string, from int) layerSpec {
	return layerSpec{metricSpec{Name: name, Unit: unit, Better: better}, from}
}

var perLayer = []layerSpec{
	layer("simtime.events_per_msg", "count", "lower", fromAnyPass),
	layer("simtime.ns_per_event", "ns", "lower", fromTraced),
	layer("simtime.pending_max", "count", "lower", fromAnyPass),

	layer("lan.ns_per_frame", "ns", "lower", fromTraced),
	layer("lan.bytes_per_msg", "B", "lower", fromAnyPass),
	layer("lan.busy_us_per_msg", "us", "lower", fromAnyPass),
	layer("lan.util", "ratio", "lower", fromAnyPass),
	layer("lan.collisions_per_frame", "count", "lower", fromAnyPass),
	layer("lan.lost_frac", "ratio", "lower", fromAnyPass),
	layer("lan.tap_misses_per_msg", "count", "lower", fromAnyPass),
	layer("lan.recorder_blocks_per_msg", "count", "lower", fromAnyPass),

	layer("transport.sends_per_msg", "count", "lower", fromAnyPass),
	layer("transport.coalesced_frac", "ratio", "higher", fromAnyPass),
	layer("transport.piggyback_frac", "ratio", "higher", fromAnyPass),
	layer("transport.ack_frames_per_msg", "count", "lower", fromAnyPass),
	layer("transport.retransmits_per_msg", "count", "lower", fromAnyPass),
	layer("transport.dups_suppressed_per_msg", "count", "lower", fromAnyPass),
	layer("transport.gave_up", "count", "lower", fromAnyPass),
	layer("transport.ns_per_msg", "ns", "lower", fromTraced),

	layer("demos.kernel_calls_per_msg", "count", "lower", fromAnyPass),
	layer("demos.ns_per_msg", "ns", "lower", fromTraced),
	layer("demos.suppressed_per_recovery", "count", "lower", fromAnyPass),
	layer("demos.replay_dups_dropped", "count", "lower", fromAnyPass),

	layer("recorder.observed_per_msg", "count", "lower", fromAnyPass),
	layer("recorder.observe_ns_per_frame", "ns", "lower", fromTraced),
	layer("recorder.observe_allocs_per_frame", "count", "lower", fromTraced),
	layer("recorder.bytes_stored_per_msg", "B", "lower", fromAnyPass),
	layer("recorder.acks_sent_per_msg", "count", "lower", fromAnyPass),
	layer("recorder.publish_cpu_vms_per_msg", "vms", "lower", fromAnyPass),
	layer("recorder.stable_p50_vms", "vms", "lower", fromTraced),
	layer("recorder.missed_arrivals_per_msg", "count", "lower", fromAnyPass),
	layer("recorder.follower_promotions", "count", "lower", fromAnyPass),
	layer("recorder.replayed_per_recovery", "count", "lower", fromAnyPass),
	layer("recorder.replay_batches_per_recovery", "count", "lower", fromAnyPass),

	layer("stablestore.appends_per_msg", "count", "lower", fromAnyPass),
	layer("stablestore.page_writes_per_msg", "count", "lower", fromAnyPass),
	layer("stablestore.checkpoints_per_msg", "count", "lower", fromAnyPass),
	layer("stablestore.append_ns_per_rec", "ns", "lower", fromTraced),
	layer("stablestore.truncate_ns_per_ckpt", "ns", "lower", fromTraced),
	layer("stablestore.readkey_ns_per_rec", "ns", "lower", fromTraced),
	layer("stablestore.bytes_live_mb", "MB", "lower", fromAnyPass),

	layer("frame.clone_ns", "ns", "lower", fromTraced),
	layer("frame.bundle_ns_per_rec", "ns", "lower", fromTraced),
	layer("frame.codec_ns_per_frame", "ns", "lower", fromTraced),

	layer("stage.send_deliver_p50_vms", "vms", "lower", fromTraced),
	layer("stage.deliver_handle_p50_vms", "vms", "lower", fromTraced),
	layer("stage.deliver_stable_p50_vms", "vms", "lower", fromTraced),
	layer("stage.send_acked_p50_vms", "vms", "lower", fromTraced),

	// The crash→caught-up cycle, from CrashProcess to the recorder's
	// RecoveriesCompleted increment. Zero on workloads that inject no crash.
	layer("recovery.cycles", "count", "higher", fromAnyPass),
	layer("recovery.p50_vms", "vms", "lower", fromAnyPass),
	layer("recovery.max_vms", "vms", "lower", fromAnyPass),
	layer("recovery.wall_ms", "ms", "lower", fromAnyPass),
	layer("recovery.vms_per_replayed_msg", "vms", "lower", fromAnyPass),
	layer("recovery.detect_vms", "vms", "lower", fromTraced),
	layer("recovery.restart_vms", "vms", "lower", fromTraced),
	layer("recovery.first_replay_vms", "vms", "lower", fromTraced),
	layer("recovery.replay_vms", "vms", "lower", fromTraced),

	layer("trace.overhead_frac", "ratio", "lower", fromParent),
	layer("monitor.events_per_msg", "count", "lower", fromTraced),
	layer("monitor.violations", "count", "lower", fromTraced),

	layer("load.gen_lag_p99_vms", "vms", "lower", fromAnyPass),

	layer("ledger.simtime_ns_per_msg", "ns", "lower", fromTraced),
	layer("ledger.frame_ns_per_msg", "ns", "lower", fromTraced),
	layer("ledger.lan_ns_per_msg", "ns", "lower", fromTraced),
	layer("ledger.transport_ns_per_msg", "ns", "lower", fromTraced),
	layer("ledger.demos_ns_per_msg", "ns", "lower", fromTraced),
	layer("ledger.recorder_ns_per_msg", "ns", "lower", fromTraced),
	layer("ledger.stablestore_ns_per_msg", "ns", "lower", fromTraced),
	layer("ledger.e2e_ns_per_msg", "ns", "lower", fromParent),
	layer("ledger.unattributed_ns_per_msg", "ns", "lower", fromParent),
	layer("ledger.attributed_frac", "ratio", "higher", fromParent),
}
