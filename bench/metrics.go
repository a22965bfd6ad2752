package main

import (
	"sort"
	"time"
)

// metricDef names one reported metric. Bounds live in BENCHMARK.json
// only; the test checks that the names and units here match it.
type metricDef struct{ name, unit string }

// endToEnd is what a caller of the system sees; the same seven names
// on every workload.
var endToEnd = []metricDef{
	{"jobs_per_s", "1/s"},
	{"job_latency_p50_ms", "ms"},
	{"job_latency_tail10_ms", "ms"},
	{"makespan_vs_ref", "ratio"},
	{"alloc_kb_per_job", "KB"},
	{"retained_heap_mb", "MB"},
	{"setup_s", "s"},
}

// perLayer is the traced pass: layer.metric, layers are package
// names. A metric a workload does not exercise reads 0 there. The
// README table says which end-to-end metric each should move, and on
// which workload.
var perLayer = []metricDef{
	{"schedd.submit_rtt_ms", "ms"},
	{"schedd.queue_wait_ms", "ms"},
	{"schedd.run_ms", "ms"},
	{"schedd.status_rtt_ms", "ms"},
	{"schedd.status_bytes", "B"},
	{"schedd.polls_per_job", "count"},
	{"schedd.cache_hit_share", "ratio"},
	{"schedd.job_latency_p90_ms", "ms"},
	{"schedd.job_latency_p99_ms", "ms"},
	{"schedd.scrape_ms", "ms"},
	{"schedd.scrape_bytes", "B"},
	{"schedd.list_ms", "ms"},
	{"schedd.list_bytes", "B"},
	{"api.decode_ms", "ms"},
	{"api.build_workflow_ms", "ms"},
	{"api.build_fleet_ms", "ms"},
	{"api.signature_ms", "ms"},
	{"api.encode_status_ms", "ms"},
	{"rl.table_copy_ms", "ms"},
	{"rl.table_entries", "count"},
	{"core.new_learner_ms", "ms"},
	{"core.learn_ms", "ms"},
	{"core.episodes_per_s", "1/s"},
	{"core.act_episodes_per_s", "1/s"},
	{"core.plan_validate_ms", "ms"},
	{"sim.replay_ms", "ms"},
	{"sim.events_per_s", "1/s"},
	{"sim.pool_reuse_share", "ratio"},
	{"des.events_per_episode", "count"},
	{"des.freelist_hit_rate", "ratio"},
	{"market.generate_ms", "ms"},
	{"market.playback_ms", "ms"},
	{"market.events_per_trace", "count"},
	{"market.cost_usd_per_job", "usd"},
	{"exec.new_ms", "ms"},
	{"exec.run_ms", "ms"},
	{"exec.tasks_per_s", "1/s"},
	{"exec.preempted_per_job", "count"},
	{"exec.remediated_per_job", "count"},
	{"exec.tcp_join_ms", "ms"},
	{"exec.master_run_ms", "ms"},
	{"exec.teardown_ms", "ms"},
	{"exec.wire_bytes_per_task", "B"},
	{"exec.syscalls_per_task", "count"},
	{"exec.tcp_over_inproc", "ratio"},
	{"provenance.all_ms", "ms"},
	{"provenance.records_per_job", "count"},
	{"telemetry.emit_ns", "ns"},
	{"telemetry.snapshot_ms", "ms"},
	{"telemetry.events_per_job", "count"},
	{"mirror.unattributed_ms", "ms"},
	{"trace.overhead_share", "ratio"},
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile returns the q-quantile (nearest rank) of xs, which it
// sorts in place; 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(q*float64(len(xs))+0.5) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// tailMean is the mean of the slowest share of xs (at least one
// sample), which it sorts in place; 0 for an empty slice. Unlike a
// quantile it does not jump when the knee of a two-regime distribution
// (jobs that met a collection and jobs that did not) crosses its rank.
func tailMean(xs []float64, share float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	k := max(1, int(share*float64(len(xs))))
	return mean(xs[len(xs)-k:])
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
