#!/usr/bin/env sh
# Benchmark gate: runs the imputation-path benchmarks (BERT vs n-gram
# predictor; full pipeline with and without observability instrumentation)
# and the model-lookup benchmarks (cold cache: every resolution pays the
# disk read-verify-decode; warm cache: steady-state LRU hits), then records
# the serving pipeline's per-stage latency distribution (p50/p95/p99 from
# the observability histograms via kamel-bench -stage-latency) and the
# 3-shard in-process cluster baselines — the healthy scatter-gather path
# (BenchmarkClusterScatterGather) and the replica-failover read path with one
# node dead at R=2 (BenchmarkClusterFailover) — and writes machine-readable
# results to BENCH_impute.json for tracking across commits.
#
# The BenchmarkImpute vs BenchmarkImputeNoObs delta is the observability
# layer's hot-path overhead; the acceptance bound is within 5%.
# BenchmarkImputeTraced adds the always-on tracing plane (sampled root trace,
# span exemplars, trace-store completion) on top; the "tracing_overhead"
# block records both deltas so the 5% combined bound is tracked per commit.
#
# The BenchmarkImputeConcurrent{Sequential,Frontier,Admission} trio measures
# the >=8-stream hot path in three regimes (one engine call per query; per-
# request frontier stacking; cross-request admission batching); the Admission
# entry additionally records the realized coalescing stats — avg_batch and
# queue_wait_p99_ms — emitted by the benchmark via b.ReportMetric.
#
# The tokenizer A/B (kamel-bench -tokenizer-ab) trains fixed-grid and
# density-adaptive systems on both canonical datasets and records each token
# space's vocab_size and training_data_factor (plus model count, accuracy,
# and median imputation latency) under "tokenizer_ab" — the shape statistics
# the adaptive tokenizer exists to improve, tracked across commits.
#
# The capacity block (TestCapacityRecord, driving internal/loadgen's
# open-loop Poisson generator against in-process nodes) records the offered
# vs goodput curves with p50/p99/p999 and shed rates for a single node and a
# 3-node cluster gateway.
#
# Usage: scripts/bench.sh [output.json]
#   BENCHTIME=... overrides the per-benchmark budget (default 10x; use e.g.
#   2s for more stable numbers on a quiet machine).
#   TOKAB_SCALE/TOKAB_TESTS/TOKAB_STEPS resize the tokenizer A/B workload
#   (defaults 0.5/4/300: a reduced but stable comparison).
#   KAMEL_CAPACITY_RATES/KAMEL_CAPACITY_MEASURE resize the capacity sweep;
#   KAMEL_CAPACITY_TARGET overrides the p99 SLO (ms) the capacity point is
#   judged by — defaulted here to 5000, a container-scale bound, because the
#   single shared core's intrinsic service time (impute p50 ~250ms, batch ~1s)
#   sits above the interactive 250ms default the CLI assumes for real
#   hardware; SKIP_CAPACITY=1 skips the block (it records {} that run).
set -eu
cd "$(dirname "$0")/.."

out=${1:-BENCH_impute.json}
benchtime=${BENCHTIME:-10x}
raw=$(mktemp)
stages=$(mktemp)
tokab=$(mktemp)
capacity=$(mktemp)
trap 'rm -f "$raw" "$stages" "$tokab" "$capacity"' EXIT

go test -run '^$' -bench 'BenchmarkPredictor|BenchmarkModelLookup|BenchmarkImpute' \
	-benchmem -benchtime "$benchtime" ./internal/core/ | tee "$raw"

# The 3-shard in-process cluster paths: a healthy spanning batch through one
# gateway (scatter-gather), and a single imputation at R=2 with the target
# group's primary replica dead (failover to the live secondary).  The
# fixtures train models, so each op is dominated by real imputation — the
# numbers to watch against BenchmarkImpute are the per-item overhead and the
# failover premium over the healthy path.
go test -run '^$' -bench 'BenchmarkCluster' \
	-benchmem -benchtime "${CLUSTER_BENCHTIME:-5x}" ./cmd/kamel/ | tee -a "$raw"

go run ./cmd/kamel-bench -stage-latency "$stages"

go run ./cmd/kamel-bench -tokenizer-ab "$tokab" \
	-scale "${TOKAB_SCALE:-0.5}" -tests "${TOKAB_TESTS:-4}" -steps "${TOKAB_STEPS:-300}"

# Capacity curves: the open-loop sweep (single node, 3-node cluster).  Each
# sweep seeds its target over the wire, so this is the slowest block;
# SKIP_CAPACITY=1 leaves an empty object in its place.
if [ "${SKIP_CAPACITY:-0}" = "1" ]; then
	printf '{}\n' >"$capacity"
else
	KAMEL_CAPACITY_OUT="$capacity" KAMEL_CAPACITY_TARGET="${KAMEL_CAPACITY_TARGET:-5000}" \
		go test -run 'TestCapacityRecord' -v -timeout 30m ./cmd/kamel/
fi

{
	printf '{\n'
	printf '  "generated": "%s",\n' "$(date -u +%Y-%m-%dT%H:%M:%SZ)"
	printf '  "go": "%s",\n' "$(go env GOVERSION)"
	printf '  "commit": "%s",\n' "$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
	printf '  "benchtime": "%s",\n' "$benchtime"
	printf '  "benchmarks": [\n'
	awk '
		/^Benchmark/ {
			extra = ""
			for (i = 3; i < NF; i += 2) {
				key = $(i + 1)
				gsub(/[^a-zA-Z0-9_-]/, "_", key)
				extra = extra sprintf(", \"%s\": %s", key, $i)
			}
			if (n++) printf ",\n"
			printf "    {\"name\": \"%s\", \"iterations\": %s%s}", $1, $2, extra
		}
		END { printf "\n" }
	' "$raw"
	printf '  ],\n'
	# Tracing overhead: ns/op of the plain, no-obs, and traced impute paths
	# plus the derived percentage deltas (obs over no-obs; tracing over plain
	# obs).  Missing benchmarks leave the block empty rather than failing.
	printf '  "tracing_overhead": '
	awk '
		/^BenchmarkImpute(-| )/        { plain = $3 }
		/^BenchmarkImputeNoObs/        { noobs = $3 }
		/^BenchmarkImputeTraced/       { traced = $3 }
		END {
			if (plain > 0 && noobs > 0 && traced > 0)
				printf "{\"impute_ns_op\": %s, \"impute_noobs_ns_op\": %s, \"impute_traced_ns_op\": %s, \"obs_overhead_pct\": %.2f, \"tracing_overhead_pct\": %.2f},\n", \
					plain, noobs, traced, (plain - noobs) * 100.0 / noobs, (traced - plain) * 100.0 / plain
			else
				printf "{},\n"
		}
	' "$raw"
	printf '  "stage_latency": '
	sed '1!s/^/  /' "$stages"
	# sed above ends without a trailing comma inside the document; splice one
	# in before the tokenizer_ab key.
	printf '  ,\n  "tokenizer_ab": '
	sed '1!s/^/  /' "$tokab"
	printf '  ,\n  "capacity": '
	sed '1!s/^/  /' "$capacity"
	printf '}\n'
} >"$out"
echo "bench: wrote $out"
