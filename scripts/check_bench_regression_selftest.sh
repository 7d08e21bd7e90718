#!/bin/sh
# check_bench_regression_selftest.sh — negative tests for the fig10 gate.
#
# Feeds scripts/check_bench_regression.sh deliberately missing, truncated,
# and malformed inputs and asserts that every degraded branch produces its
# NAMED verdict and exit code — never a silent pass and never an unhandled
# shell/awk error. Registered in ctest as bench_gate_selftest.
#
# usage: check_bench_regression_selftest.sh [REPO_ROOT]

set -u

ROOT=${1:-$(dirname "$0")/..}
GATE="$ROOT/scripts/check_bench_regression.sh"
TMP=$(mktemp -d) || exit 2
trap 'rm -rf "$TMP"' EXIT INT TERM

FAILURES=0

# run_case NAME EXPECTED_EXIT EXPECTED_PATTERN BASELINE FRESH [VB VF]
# Runs the gate and checks both the exit code and that the named verdict
# appears on stdout+stderr. Extra args exercise the optional checker-gate
# pair (verify baseline + fresh verify results).
run_case() {
  NAME=$1 WANT_EXIT=$2 WANT_PAT=$3 B=$4 F=$5
  if [ $# -ge 7 ]; then
    OUT=$(sh "$GATE" "$B" "$F" 5 "$6" "$7" 2>&1)
  else
    OUT=$(sh "$GATE" "$B" "$F" 2>&1)
  fi
  GOT_EXIT=$?
  if [ "$GOT_EXIT" -ne "$WANT_EXIT" ]; then
    echo "selftest FAIL [$NAME]: exit $GOT_EXIT, expected $WANT_EXIT" >&2
    echo "$OUT" | sed 's/^/    | /' >&2
    FAILURES=$((FAILURES + 1))
    return
  fi
  if ! printf '%s\n' "$OUT" | grep -q "$WANT_PAT"; then
    echo "selftest FAIL [$NAME]: output lacks expected pattern: $WANT_PAT" >&2
    echo "$OUT" | sed 's/^/    | /' >&2
    FAILURES=$((FAILURES + 1))
    return
  fi
  echo "selftest ok [$NAME]"
}

# A minimal well-formed result set (the one-row-per-line shape the bench
# emits; only the fields the gate reads).
good_json() {
  cat <<'EOF'
{"domain": "octagon", "vars": 8, "wall_ms": 10.5, "dbm_cells_touched": 1000}
{"domain": "octagon", "vars": 16, "wall_ms": 22.5, "dbm_cells_touched": 2000}
{"domain": "zone", "vars": 16, "wall_ms": 4.5, "zone_closure_vertices_visited": 300}
{"domain": "staged", "vars": 16, "wall_ms": 6.0, "staged_escalated_transfers": 120, "staged_sum_mismatches": 0, "staged_budget_exhaustions": 0, "staged_degraded_cells": 0, "staged_cancellations_honored": 0}
{"domain": "dis_interval", "vars": 16, "wall_ms": 5.0, "dis_interval_partitions_collapsed": 40, "dis_interval_partition_splits": 12, "dis_interval_disjunctive_joins": 90}
EOF
}

good_json > "$TMP/base.json"
good_json > "$TMP/fresh.json"

# 1. Clean pass on identical baseline and fresh.
run_case identical-pass 0 '^OK$' "$TMP/base.json" "$TMP/fresh.json"

# 2. Missing baseline: named SKIP, exit 0 — not a shell error.
run_case missing-baseline 0 'SKIP \[gate\]: baseline' \
  "$TMP/no_such_baseline.json" "$TMP/fresh.json"

# 3. Missing fresh file: named FAIL, exit 2.
run_case missing-fresh 2 'FAIL \[gate\]: fresh results' \
  "$TMP/base.json" "$TMP/no_such_fresh.json"

# 4. Baseline predating a domain: named per-domain SKIP, still exit 0.
grep -v '"domain": "staged"' "$TMP/base.json" > "$TMP/base_nostaged.json"
run_case pre-domain-baseline 0 'SKIP \[staged\]: baseline has no' \
  "$TMP/base_nostaged.json" "$TMP/fresh.json"

# 5. Fresh run dropping a domain the baseline gates: named FAIL.
grep -v '"domain": "zone"' "$TMP/fresh.json" > "$TMP/fresh_nozone.json"
run_case fresh-drops-domain 1 'FAIL \[zone\]: baseline carries' \
  "$TMP/base.json" "$TMP/fresh_nozone.json"

# 6. Non-numeric counter field: named malformed FAIL, not an awk error.
sed 's/"dbm_cells_touched": 2000/"dbm_cells_touched": "lots"/' \
  "$TMP/fresh.json" > "$TMP/fresh_garbage.json"
run_case malformed-counter 1 'FAIL \[octagon\]: malformed' \
  "$TMP/base.json" "$TMP/fresh_garbage.json"

# 7. Regression beyond the 5% threshold: named FAIL.
sed 's/"dbm_cells_touched": 2000/"dbm_cells_touched": 2200/' \
  "$TMP/fresh.json" > "$TMP/fresh_regressed.json"
run_case regression-detected 1 'FAIL \[octagon\]: dbm_cells_touched regression' \
  "$TMP/base.json" "$TMP/fresh_regressed.json"

# 8. Sum-constraint mismatches in the fresh run: named FAIL.
sed 's/"staged_sum_mismatches": 0/"staged_sum_mismatches": 3/' \
  "$TMP/fresh.json" > "$TMP/fresh_mismatch.json"
run_case sum-mismatch 1 'FAIL \[staged\]: 3 sum-constraint' \
  "$TMP/base.json" "$TMP/fresh_mismatch.json"

# 9. Budget exhaustion on the un-budgeted default workload: named FAIL.
sed 's/"staged_budget_exhaustions": 0/"staged_budget_exhaustions": 2/' \
  "$TMP/fresh.json" > "$TMP/fresh_budget.json"
run_case budget-nonzero 1 'FAIL \[budget\]: staged_budget_exhaustions is 2' \
  "$TMP/base.json" "$TMP/fresh_budget.json"

# 10. Degraded cells reported on the default workload: named FAIL.
sed 's/"staged_degraded_cells": 0/"staged_degraded_cells": 7/' \
  "$TMP/fresh.json" > "$TMP/fresh_degraded.json"
run_case degraded-nonzero 1 'FAIL \[budget\]: staged_degraded_cells is 7' \
  "$TMP/base.json" "$TMP/fresh_degraded.json"

# 10a. Baseline predating the domain registry (no dis_interval rows at
# all): named per-domain SKIP, still exit 0 — pre-registry baselines must
# not arm the disjunctive gate.
grep -v '"domain": "dis_interval"' "$TMP/base.json" \
  > "$TMP/base_preregistry.json"
run_case pre-registry-baseline 0 'SKIP \[dis_interval\]: baseline has no' \
  "$TMP/base_preregistry.json" "$TMP/fresh.json"

# 10b. Partition-collapse churn beyond the 5% threshold: named FAIL (the
# counter is deterministic — K and the workload seed are fixed).
sed 's/"dis_interval_partitions_collapsed": 40/"dis_interval_partitions_collapsed": 60/' \
  "$TMP/fresh.json" > "$TMP/fresh_dis_regressed.json"
run_case dis-interval-regression 1 \
  'FAIL \[dis_interval\]: dis_interval_partitions_collapsed regression' \
  "$TMP/base.json" "$TMP/fresh_dis_regressed.json"

# 10c. Malformed dis_interval counter: named FAIL, not an awk error.
sed 's/"dis_interval_partitions_collapsed": 40/"dis_interval_partitions_collapsed": "many"/' \
  "$TMP/fresh.json" > "$TMP/fresh_dis_garbage.json"
run_case dis-interval-malformed 1 'FAIL \[dis_interval\]: malformed' \
  "$TMP/base.json" "$TMP/fresh_dis_garbage.json"

# A minimal well-formed verify result set (bench_batch_verify's row shape;
# only the fields the checker gate reads).
verify_json() {
  cat <<'EOF'
{"domain": "interval", "vars": 8, "wall_ms": 12.0, "checks_rechecked": 1500, "verdict_mismatches": 0}
{"domain": "interval", "vars": 16, "wall_ms": 40.0, "checks_rechecked": 2000, "verdict_mismatches": 0}
EOF
}

verify_json > "$TMP/vbase.json"
verify_json > "$TMP/vfresh.json"

# 11. Clean checker-gate pass on identical verify baseline and fresh.
run_case checker-pass 0 'verify gate \[checker\]: 0 incremental-vs-batch' \
  "$TMP/base.json" "$TMP/fresh.json" "$TMP/vbase.json" "$TMP/vfresh.json"

# 12. checks_rechecked regression beyond 5%: named FAIL.
sed 's/"checks_rechecked": 2000/"checks_rechecked": 2200/' \
  "$TMP/vfresh.json" > "$TMP/vfresh_regressed.json"
run_case checker-regression 1 'FAIL \[checker\]: checks_rechecked regression' \
  "$TMP/base.json" "$TMP/fresh.json" "$TMP/vbase.json" "$TMP/vfresh_regressed.json"

# 13. Incremental-vs-batch verdict mismatch: named FAIL even though the
# counter gate passes (baseline-independent correctness assert).
sed 's/"checks_rechecked": 2000, "verdict_mismatches": 0/"checks_rechecked": 2000, "verdict_mismatches": 4/' \
  "$TMP/vfresh.json" > "$TMP/vfresh_mismatch.json"
run_case checker-verdict-mismatch 1 \
  'FAIL \[checker\]: 4 incremental-vs-batch verdict mismatches' \
  "$TMP/base.json" "$TMP/fresh.json" "$TMP/vbase.json" "$TMP/vfresh_mismatch.json"

# 14. Missing verify baseline: named SKIP for the counter gate, exit 0,
# and the mismatch assert still runs.
run_case checker-missing-baseline 0 'SKIP \[checker\]: verify baseline' \
  "$TMP/base.json" "$TMP/fresh.json" "$TMP/no_such_vbase.json" "$TMP/vfresh.json"

# 15. Missing fresh verify results: named FAIL — the bench run that should
# have produced them failed.
run_case checker-missing-fresh 1 'FAIL \[checker\]: fresh verify results' \
  "$TMP/base.json" "$TMP/fresh.json" "$TMP/vbase.json" "$TMP/no_such_vfresh.json"

# 16. Malformed verdict_mismatches field: named FAIL, not an awk error.
sed 's/"verdict_mismatches": 0/"verdict_mismatches": "none"/' \
  "$TMP/vfresh.json" > "$TMP/vfresh_garbage.json"
run_case checker-malformed-mismatches 1 \
  'FAIL \[checker\]: malformed verdict_mismatches' \
  "$TMP/base.json" "$TMP/fresh.json" "$TMP/vbase.json" "$TMP/vfresh_garbage.json"

# A fresh verify result set carrying the corpus-parallel cross-check rows
# the --threads axis emits (keyed on "threads" rather than "vars", so the
# per-size gates never read them).
{
  verify_json
  cat <<'EOF'
{"phase": "corpus", "threads": 1, "wall_ms": 30.0, "programs_per_sec": 7000.0, "speedup": 1.0, "parallel_result_mismatches": 0}
{"phase": "corpus", "threads": 4, "wall_ms": 12.0, "programs_per_sec": 17500.0, "speedup": 2.5, "parallel_result_mismatches": 0}
EOF
} > "$TMP/vfresh_parallel.json"

# 17. Fresh verify json without threads rows (bench ran without
# --threads): named SKIP, still exit 0.
run_case parallel-skip-no-rows 0 'SKIP \[parallel-checker\]: fresh' \
  "$TMP/base.json" "$TMP/fresh.json" "$TMP/vbase.json" "$TMP/vfresh.json"

# 18. Fresh carries parallel rows but the committed verify baseline
# predates them: baseline SKIP note plus the baseline-independent mismatch
# check passing.
run_case parallel-pre-parallel-baseline 0 \
  'parallel gate \[checker\]: 0 serial-vs-parallel' \
  "$TMP/base.json" "$TMP/fresh.json" "$TMP/vbase.json" "$TMP/vfresh_parallel.json"
run_case parallel-baseline-skip-note 0 \
  'SKIP \[parallel-checker\]: baseline' \
  "$TMP/base.json" "$TMP/fresh.json" "$TMP/vbase.json" "$TMP/vfresh_parallel.json"

# 19. Serial-vs-parallel result mismatches in the fresh verify run: named
# FAIL regardless of the baseline, even when every other checker gate
# passes.
sed 's/"speedup": 2.5, "parallel_result_mismatches": 0/"speedup": 2.5, "parallel_result_mismatches": 5/' \
  "$TMP/vfresh_parallel.json" > "$TMP/vfresh_parallel_mismatch.json"
run_case parallel-mismatch 1 \
  'FAIL \[parallel-checker\]: 5 serial-vs-parallel result mismatches' \
  "$TMP/base.json" "$TMP/fresh.json" "$TMP/vbase.json" "$TMP/vfresh_parallel_mismatch.json"

# 20. Malformed parallel_result_mismatches field: named FAIL, not an awk
# error.
sed 's/"parallel_result_mismatches": 0/"parallel_result_mismatches": "??"/' \
  "$TMP/vfresh_parallel.json" > "$TMP/vfresh_parallel_garbage.json"
run_case parallel-malformed 1 \
  'FAIL \[parallel-checker\]: malformed parallel_result_mismatches' \
  "$TMP/base.json" "$TMP/fresh.json" "$TMP/vbase.json" "$TMP/vfresh_parallel_garbage.json"

# 21. Fresh json without dai_trace_* fields (bench predates the
# observability layer): named SKIP, still exit 0.
run_case trace-skip-no-fields 0 'SKIP \[trace-fig10\]:' \
  "$TMP/base.json" "$TMP/fresh.json"

# 22. Trace fields present and zero: the hygiene gate passes by name.
{
  good_json
  echo '{"trace": {"dai_trace_events_dropped": 0, "dai_trace_events_recorded": 0}}'
} > "$TMP/fresh_trace_zero.json"
run_case trace-zero-pass 0 'trace gate \[fig10\]: un-traced run' \
  "$TMP/base.json" "$TMP/fresh_trace_zero.json"

# 23. Nonzero trace counter on the un-traced gate run: named FAIL — a hook
# recorded events on the measured counter paths.
sed 's/"dai_trace_events_recorded": 0/"dai_trace_events_recorded": 42/' \
  "$TMP/fresh_trace_zero.json" > "$TMP/fresh_trace_nonzero.json"
run_case trace-nonzero 1 \
  'FAIL \[trace-fig10\]: dai_trace_events_recorded is 42' \
  "$TMP/base.json" "$TMP/fresh_trace_nonzero.json"

# 24. Malformed trace counter: named FAIL, not an awk error.
sed 's/"dai_trace_events_dropped": 0/"dai_trace_events_dropped": "no"/' \
  "$TMP/fresh_trace_zero.json" > "$TMP/fresh_trace_garbage.json"
run_case trace-malformed 1 'FAIL \[trace-fig10\]: malformed' \
  "$TMP/base.json" "$TMP/fresh_trace_garbage.json"

# 25. The verify json's trace fields are gated too.
{
  verify_json
  echo '{"trace": {"dai_trace_events_dropped": 3, "dai_trace_events_recorded": 0}}'
} > "$TMP/vfresh_trace_nonzero.json"
run_case trace-checker-nonzero 1 \
  'FAIL \[trace-checker\]: dai_trace_events_dropped is 3' \
  "$TMP/base.json" "$TMP/fresh.json" "$TMP/vbase.json" "$TMP/vfresh_trace_nonzero.json"

if [ "$FAILURES" -gt 0 ]; then
  echo "check_bench_regression_selftest: $FAILURES case(s) failed" >&2
  exit 1
fi
echo "check_bench_regression_selftest: all cases passed"
