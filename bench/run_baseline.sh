#!/usr/bin/env sh
# Runs ONE fast benchmark per bench binary — the filter list both CI
# (.github/workflows/ci.yml, bench-report job) and the committed
# bench/baseline/ snapshot are generated from, so the two can never
# drift apart.  Keep every filter cheap: the point is a per-binary
# liveness + perf fingerprint, not a full sweep (that is EXPERIMENTS.md's
# job).
#
# usage: bench/run_baseline.sh BUILD_DIR OUT_DIR
#   BUILD_DIR  cmake build tree holding bench/bench_* binaries
#   OUT_DIR    where BENCH_<name>.json reports land (CCMX_BENCH_OUT)
#
# Every run is traced, so each report's table_counters block holds the
# exact counts `ccmx_insight diff` gates.  Refresh the committed baseline
# after a change that moves one of them (say why in CHANGES.md), or the
# timings on purpose, with:
#   bench/run_baseline.sh build bench/baseline
set -eu

build_dir=${1:?usage: bench/run_baseline.sh BUILD_DIR OUT_DIR}
out_dir=${2:?usage: bench/run_baseline.sh BUILD_DIR OUT_DIR}

run() {
  name=$1
  filter=$2
  CCMX_TRACE=1 CCMX_BENCH_OUT="$out_dir" \
    "$build_dir/bench/bench_$name" \
    --benchmark_filter="$filter" \
    --benchmark_min_time=0.05
}

run ablations          'BM_DetBareiss/4|BM_RowCensus|BM_BigInt(Small|Heap|Mixed)'
run corollary12        'BM_OracleDet'
run corollary13        'BM_SolvabilityExact/4'
run crossover          'BM_DeterministicBits/2'
run exact_cc           'BM_ExactCcEquality/[12]'
run identity_embedding 'BM_IdentityEmbeddingSearch/2'
run lemma34            'BM_SpanCanonicalForm/7|BM_Lemma34Census'
run lemma35            'BM_Lemma35Completion/7|BM_RowCensusExact'
run linwu_rank         'BM_LinWuRank/3'
run obs                'BM_Emit(Async|Disabled)/real_time/threads:8|BM_SpinUnderProfiler/(0|97)$'
run padding            'BM_PaddedDeterminant/4'
run partitions         'BM_ProperTransform/7'
run probabilistic      'BM_FingerprintProtocol/(4|64)$|BM_ExactSingularityLocal/64$'
run rank_spectrum      'BM_BorderedReduction/4'
run rectangles         'BM_MaxRectangleExact/1'
run singularity_cc     'BM_SendHalfSingularity/4/2'
run vlsi_tradeoffs     'BM_MeshSimulation/8'
