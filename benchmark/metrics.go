package main

// metricDef declares one ledger metric.  BENCHMARK.json is generated from
// these tables (`-manifest`) and a test keeps the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only: tolerated worsening, as a share of the parent's median
}

type workloadDef struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

const runSeconds = 15

var workloadDefs = []workloadDef{
	{"interactive", "closed loop, 2 connections to kamel serve, /v1/impute corrections of <=3 gaps cut at 350 m, warm cache: the only place HTTP/JSON, admission and cross-request batching are on the critical path"},
	{"bulk", "closed loop, an in-process ImputeContext worker per core, pieces of <=3 gaps cut at 900 m (deep beam frontiers): bert/tensor/impute do all the work, cmd/kamel none; a serving change must not show here"},
	{"cold", "closed loop, one in-process worker, model cache sized for one model, single 250 m gaps ordered so each needs another model: page-in (read, verify, decode) dominates and predict is a minority"},
	{"ingest", "the interactive mix and connections while one /v1/train batch rebuilds every model in the same server: training and inference share the cores, the tensor pool, the store and the repository"},
}

// endToEndDefs are what a user of the system sees.  Every workload reports
// every one of them, from its untraced run.
var endToEndDefs = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"impute_p50_ms", "ms", "lower", 0.20},
	{"impute_p90_ms", "ms", "lower", 0.20},
	{"gaps_per_s", "1/s", "higher", 0.20},
	{"cpu_ms_per_gap", "ms", "lower", 0.20},
	{"train_visible_s", "s", "lower", 0.25}, // as setup_s: on three workloads it is the set-up's ~1 s train step
	{"recall", "ratio", "higher", 0.02},
	{"filled_share", "ratio", "higher", 0.03},
	{"rss_mb", "MB", "lower", 0.10},
}

// perLayerDefs come from the traced run.  A metric whose layer a workload
// does not execute (serve.* on the in-process workloads, train.* outside
// ingest) is printed as 0.
var perLayerDefs = []metricDef{
	{"setup.train_s", "s", "lower", 0},
	{"setup.load_s", "s", "lower", 0},
	{"serve.http_overhead_ms_mean", "ms", "lower", 0},
	{"serve.bytes_per_req", "B", "lower", 0},
	{"serve.shed_share", "ratio", "lower", 0},
	{"admission.limit_mean", "count", "higher", 0},
	{"admission.queue_delay_ms_mean", "ms", "lower", 0},
	{"batcher.avg_batch", "count", "higher", 0},
	{"batcher.queue_wait_ms_mean", "ms", "lower", 0},
	{"batcher.overflow_share", "ratio", "lower", 0},
	{"impute.predict_calls_per_gap", "count", "lower", 0},
	{"impute.queries_per_gap", "count", "lower", 0},
	{"impute.beam_ms_per_gap", "ms", "lower", 0},
	{"impute.beam_self_ms_per_gap", "ms", "lower", 0},
	{"bert.predict_ms_per_query_b1", "ms", "lower", 0},
	{"bert.predict_ms_per_query_b16", "ms", "lower", 0},
	{"bert.allocs_per_query_b16", "count", "lower", 0},
	{"bert.bytes_per_query_b16", "B", "lower", 0},
	{"bert.dispatch_busy_share", "ratio", "lower", 0},
	{"tensor.matmul_tn_gflops", "GFLOP/s", "higher", 0},
	{"tensor.matmul_tn_mb_moved", "MB", "lower", 0},
	{"tensor.layernorm_ns_per_row", "ns", "lower", 0},
	{"constraints.filter_us_per_call", "us", "lower", 0},
	{"constraints.filter_ns_per_cand", "ns", "lower", 0},
	{"tokenizer.tokenize_ns_per_point", "ns", "lower", 0},
	{"detok.us_per_gap", "us", "lower", 0},
	{"pyramid.lookup_us_per_gap", "us", "lower", 0},
	{"pyramid.lookup_ns_probe", "ns", "lower", 0},
	{"modelcache.hit_ratio", "ratio", "higher", 0},
	{"modelcache.load_ms_mean", "ms", "lower", 0},
	{"modelcache.evictions", "count", "lower", 0},
	{"modelcache.page_in_ms_per_gap", "ms", "lower", 0},
	{"train.visible_s", "s", "lower", 0},
	{"train.rebuild_s_sum", "s", "lower", 0},
	{"train.models_rebuilt", "count", "lower", 0},
	{"train.ms_per_model_step", "ms", "lower", 0},
	{"store.append_ms_per_batch", "ms", "lower", 0},
	{"pyramid.commit_ms_mean", "ms", "lower", 0},
	{"runtime.rss_peak_mb", "MB", "lower", 0},
	{"runtime.gc_pause_ms_total", "ms", "lower", 0},
	{"runtime.heap_mb_peak", "MB", "lower", 0},
	{"runtime.allocs_per_gap", "count", "lower", 0},
	{"loadgen.lateness_ms_p95", "ms", "lower", 0},
	{"loadgen.cpu_share", "ratio", "lower", 0},
	{"loadgen.p90_ms_r_mid", "ms", "lower", 0},
	{"loadgen.failed_share_r_mid", "ratio", "lower", 0},
	{"loadgen.p90_ms_r_high", "ms", "lower", 0},
	{"loadgen.failed_share_r_high", "ratio", "lower", 0},
	{"ledger.unattributed_share", "ratio", "lower", 0},
	{"trace.gaps_per_s", "1/s", "higher", 0},
	{"trace.spans", "count", "lower", 0},
}
