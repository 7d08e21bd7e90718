#!/bin/sh
# check_bench_regression.sh — per-size perf gate for the Fig. 10 bench.
#
# Compares a freshly generated BENCH_fig10.json against the committed
# baseline and FAILS (exit 1) when, at the LARGEST sweep size, any
# relational domain's closure-work counter regressed by more than the
# threshold (default 5%):
#   - octagon: dbm_cells_touched   (dense half-matrix cells tightened)
#   - zone:    zone_closure_vertices_visited (sparse-graph vertices scanned)
#   - staged:  staged_escalated_transfers (dual-tier transfer evaluations —
#     the octagon work the staged analysis actually paid; an escalation
#     regression means more of the program runs the dense tier)
#   - dis_interval: dis_interval_partitions_collapsed (partition lists
#     force-merged back under the K bound; a regression means the
#     disjunctive domain is churning partitions it immediately loses —
#     deterministic like the closure counters, since K and the workload
#     seed are fixed). Baselines predating the domain registry carry no
#     dis_interval rows and get the standard named SKIP.
#
# Counters — not wall time — are the gate metrics: the workload is seeded
# and the closure kernels are deterministic, so the counters are
# load-independent and reproducible run-to-run, where wall time on loaded
# CI runners can swing past any usable threshold. An algorithmic regression
# in either closure pipeline shows up in its counter directly; wall time is
# still recorded in the JSON and printed here for context.
#
# usage: check_bench_regression.sh BASELINE.json FRESH.json [THRESHOLD_PCT]
#                                  [VERIFY_BASELINE.json VERIFY_FRESH.json]
#
# With the optional 4th/5th args, the checker bench's JSON
# (bench_batch_verify → BENCH_verify.json) is gated too, same policy:
#   - checker: checks_rechecked (incremental re-check slice size at the
#     largest sweep size — a regression means edits re-verify more of the
#     assertion set than they should)
#   - baseline-independent hard-fail on any non-zero verdict_mismatches in
#     the fresh verify JSON (incremental and batch verdicts must be
#     bit-identical after every edit).
#
# Corpus-parallel cross-check (bench_batch_verify run with --threads): any
# non-zero parallel_result_mismatches in the FRESH verify json is a
# baseline-independent hard-fail — verdicts of programs verified on pool
# workers must be bit-identical to the serial reference. A json without
# threads rows gets a named SKIP (bench ran without --threads, or a
# pre-parallel baseline); speedup is wall-clock and never gated.
#
# Plain POSIX sh + awk so it runs in any CI image; the JSON it parses is
# the fixed shape bench_fig10_octagon_workload emits (one sizes-entry per
# line, octagon entries carrying "dbm_cells_touched", zone entries
# "zone_closure_vertices_visited", and staged entries
# "staged_escalated_transfers"); bench_batch_verify rows carry
# "checks_rechecked" and "verdict_mismatches".
#
# Degraded-input policy (every branch prints a NAMED verdict — the gate
# never silently passes and never dies on a bare shell error):
#   - BASELINE absent/unreadable  → "SKIP [gate]" + exit 0 (fresh checkout
#     or intentionally dropped baseline: nothing to compare against).
#   - FRESH absent/unreadable     → "FAIL [gate]" + exit 2 (the bench that
#     was supposed to produce it did not run).
#   - a domain absent from the baseline → "SKIP [domain]" (pre-domain
#     baseline), absent from FRESH while the baseline has it → FAIL.
#   - non-numeric vars/counter/wall fields → "FAIL [domain]: malformed".
# Negative-tested by scripts/check_bench_regression_selftest.sh.

set -u

if [ "$#" -lt 2 ]; then
  echo "usage: $0 BASELINE.json FRESH.json [THRESHOLD_PCT] [VERIFY_BASELINE.json VERIFY_FRESH.json]" >&2
  exit 2
fi

BASELINE=$1
FRESH=$2
THRESHOLD=${3:-5}
VERIFY_BASELINE=${4:-}
VERIFY_FRESH=${5:-}

if [ ! -r "$BASELINE" ]; then
  echo "SKIP [gate]: baseline $BASELINE is missing or unreadable — no regression gate run (regenerate and commit a baseline to re-arm it)"
  exit 0
fi
if [ ! -r "$FRESH" ]; then
  echo "FAIL [gate]: fresh results $FRESH are missing or unreadable — the bench run that should have produced them failed" >&2
  exit 2
fi

# Non-negative integer or decimal, nothing else (rejects empty strings,
# signs, exponents, and the residue awk extraction leaves on garbage).
is_num() {
  case "$1" in
    '' | *[!0-9.]* | . | *.*.*) return 1 ;;
  esac
  return 0
}

# Prints "<vars> <counter> <wall_ms>" for the largest-vars sizes-entry
# carrying the given counter field (exit 3 when no entry has it). Fields
# that are not cleanly numeric are emitted as the sentinel "?" so the
# caller can name the malformation instead of tripping over word-splitting.
largest_size() {
  awk -v field="\"$2\":" '
    function grab(line, key,    s) {
      s = line
      if (!sub(".*" key "[ \t]*", "", s)) return "?"
      sub(/[,}].*/, "", s)
      gsub(/[ \t]/, "", s)
      if (s !~ /^[0-9]+(\.[0-9]+)?$/) return "?"
      return s
    }
    /"vars":/ && index($0, field) {
      v = grab($0, "\"vars\":")
      c = grab($0, field)
      w = grab($0, "\"wall_ms\":")
      if (v == "?" || v + 0 >= maxv + 0) { maxv = v; cells = c; wall = w }
      if (v == "?") { bad = 1; exit }
    }
    END {
      if (bad) { print "? ? ?"; exit 0 }
      if (maxv == "") exit 3
      print maxv, cells, wall
    }
  ' "$1"
}

# gate LABEL FIELD [BASELINE_FILE FRESH_FILE] — compares baseline vs fresh
# on FIELD at the largest sweep size (defaulting to the fig10 pair);
# returns 1 on regression beyond the threshold or on malformed rows, 0 on
# pass or named skip.
gate() {
  LABEL=$1
  FIELD=$2
  GATE_BASE=${3:-$BASELINE}
  GATE_FRESH=${4:-$FRESH}
  BASE_ROW=$(largest_size "$GATE_BASE" "$FIELD") || {
    echo "SKIP [$LABEL]: baseline has no $FIELD entries (pre-$LABEL baseline); gate not run for this domain"
    return 0
  }
  FRESH_ROW=$(largest_size "$GATE_FRESH" "$FIELD") || {
    echo "FAIL [$LABEL]: baseline carries $FIELD but the fresh run emits none" >&2
    return 1
  }
  set -- $BASE_ROW
  BASE_VARS=$1 BASE_CELLS=$2 BASE_WALL=$3
  set -- $FRESH_ROW
  FRESH_VARS=$1 FRESH_CELLS=$2 FRESH_WALL=$3

  for PAIR in \
    "baseline:$GATE_BASE:$BASE_VARS:$BASE_CELLS:$BASE_WALL" \
    "fresh:$GATE_FRESH:$FRESH_VARS:$FRESH_CELLS:$FRESH_WALL"; do
    WHICH=${PAIR%%:*}
    REST=${PAIR#*:}
    FILE=${REST%%:*}
    NUMS=${REST#*:}
    V=${NUMS%%:*}; NUMS=${NUMS#*:}
    C=${NUMS%%:*}
    W=${NUMS#*:}
    if ! is_num "$V" || ! is_num "$C" || ! is_num "$W"; then
      echo "FAIL [$LABEL]: malformed $FIELD row in $WHICH $FILE (vars='$V' counter='$C' wall_ms='$W' — expected plain non-negative numbers)" >&2
      return 1
    fi
  done

  if [ "$BASE_VARS" != "$FRESH_VARS" ]; then
    echo "FAIL [$LABEL]: sweep-size mismatch (baseline vars=$BASE_VARS, fresh vars=$FRESH_VARS)" >&2
    return 1
  fi

  awk -v base="$BASE_CELLS" -v fresh="$FRESH_CELLS" -v pct="$THRESHOLD" \
      -v vars="$BASE_VARS" -v bwall="$BASE_WALL" -v fwall="$FRESH_WALL" \
      -v label="$LABEL" -v field="$FIELD" '
    BEGIN {
      limit = base * (1 + pct / 100)
      delta = base > 0 ? (fresh / base - 1) * 100 : 0
      printf "fig10 gate [%s] @ %s vars: %s baseline %d, fresh %d (%+.2f%%), limit %d (+%s%%)\n",
             label, vars, field, base, fresh, delta, limit, pct
      printf "fig10 gate [%s] @ %s vars: wall (informational) baseline %.1f ms, fresh %.1f ms\n",
             label, vars, bwall, fwall
      if (fresh > limit) {
        printf "FAIL [%s]: %s regression exceeds %s%% at the largest sweep size\n", label, field, pct
        exit 1
      }
      print "OK"
    }
  '
}

# Sums a per-line numeric field across a fresh-results file (FIELD [FILE],
# default the fig10 fresh JSON); non-numeric occurrences count as a parse
# error (prints "NaN").
sum_fresh_field() {
  SUM_FILE=${2:-$FRESH}
  awk -v field="\"$1\":" '
    index($0, field) {
      m = $0
      sub(".*" field "[ \t]*", "", m)
      sub(/[,}].*/, "", m)
      gsub(/[ \t]/, "", m)
      if (m !~ /^[0-9]+$/) { bad = 1; exit }
      total += m + 0
    }
    END { print bad ? "NaN" : total + 0 }
  ' "$SUM_FILE"
}

STATUS=0
gate octagon dbm_cells_touched || STATUS=1
gate zone zone_closure_vertices_visited || STATUS=1
gate staged staged_escalated_transfers || STATUS=1
gate dis_interval dis_interval_partitions_collapsed || STATUS=1

# The staged rows also carry a built-in correctness verdict: the bench
# lockstep-compares every escalated sum-constraint answer against a pure
# octagon run, so a non-zero mismatch count in the FRESH json is an
# exactness bug regardless of the baseline.
MISMATCHES=$(sum_fresh_field staged_sum_mismatches)
if ! is_num "$MISMATCHES"; then
  echo "FAIL [staged]: malformed staged_sum_mismatches field in $FRESH" >&2
  STATUS=1
elif [ "$MISMATCHES" -gt 0 ]; then
  echo "FAIL [staged]: $MISMATCHES sum-constraint answers diverged from the pure-octagon run" >&2
  STATUS=1
else
  echo "fig10 gate [staged]: 0 sum-constraint mismatches vs the pure-octagon run"
fi

# Budget hygiene: the default bench runs UN-budgeted, so any budget
# exhaustion / degraded cell / honored cancellation in the fresh JSON means
# the resource-governance layer degraded an unbudgeted analysis — a
# correctness bug, gated regardless of the baseline.
for BFIELD in zone_budget_exhaustions zone_degraded_cells \
              zone_cancellations_honored staged_budget_exhaustions \
              staged_degraded_cells staged_cancellations_honored; do
  TOTAL=$(sum_fresh_field "$BFIELD")
  if ! is_num "$TOTAL"; then
    echo "FAIL [budget]: malformed $BFIELD field in $FRESH" >&2
    STATUS=1
  elif [ "$TOTAL" -gt 0 ]; then
    echo "FAIL [budget]: $BFIELD is $TOTAL on the un-budgeted default workload (expected 0)" >&2
    STATUS=1
  fi
done
echo "fig10 gate [budget]: un-budgeted run shows zero budget exhaustions / degraded cells / honored cancellations"

# Tracing hygiene: the default gate runs are UN-TRACED, and a disabled
# trace hook must cost one branch — never a recorded (or dropped) event.
# Any nonzero dai_trace_* counter in a fresh JSON means a hook fired on the
# measured counter paths (tracing left enabled, or a hook missing its
# gate), which would also invalidate the wall-clock columns. Fresh JSONs
# without the fields get a named SKIP (bench predates the observability
# layer); this check is baseline-independent.
trace_gate() {
  TLABEL=$1
  TFILE=$2
  if ! grep -q '"dai_trace_events_recorded":' "$TFILE" 2>/dev/null; then
    echo "SKIP [trace-$TLABEL]: $TFILE carries no dai_trace_* fields (bench predates the observability layer); trace hygiene not checked"
    return 0
  fi
  for TF in dai_trace_events_recorded dai_trace_events_dropped; do
    TTOTAL=$(sum_fresh_field "$TF" "$TFILE")
    if ! is_num "$TTOTAL"; then
      echo "FAIL [trace-$TLABEL]: malformed $TF field in $TFILE" >&2
      return 1
    fi
    if [ "$TTOTAL" -gt 0 ]; then
      echo "FAIL [trace-$TLABEL]: $TF is $TTOTAL on the un-traced gate run (expected 0 — a tracing hook recorded events on the measured counter paths)" >&2
      return 1
    fi
  done
  echo "trace gate [$TLABEL]: un-traced run recorded and dropped 0 trace events"
}

trace_gate fig10 "$FRESH" || STATUS=1
if [ -n "$VERIFY_FRESH" ] && [ -r "$VERIFY_FRESH" ]; then
  trace_gate checker "$VERIFY_FRESH" || STATUS=1
fi

# parallel_gate LABEL FRESH_FILE BASELINE_FILE — the serial-vs-parallel
# cross-check: mismatches in the FRESH json fail regardless of the
# baseline; files without threads rows get a named SKIP (the baseline one
# is informational — speedup is wall-clock and never compared).
parallel_gate() {
  PLABEL=$1
  PFRESH=$2
  PBASE=$3
  if ! grep -q '"threads":' "$PFRESH" 2>/dev/null; then
    echo "SKIP [parallel-$PLABEL]: fresh $PFRESH carries no threads/parallel rows (bench ran without --threads or predates the parallel phase)"
    return 0
  fi
  if [ -r "$PBASE" ] && ! grep -q '"threads":' "$PBASE" 2>/dev/null; then
    echo "SKIP [parallel-$PLABEL]: baseline $PBASE predates the parallel fields — threads/speedup not compared (the mismatch check below is baseline-independent)"
  fi
  PMIS=$(sum_fresh_field parallel_result_mismatches "$PFRESH")
  if ! is_num "$PMIS"; then
    echo "FAIL [parallel-$PLABEL]: malformed parallel_result_mismatches field in $PFRESH" >&2
    return 1
  fi
  if [ "$PMIS" -gt 0 ]; then
    echo "FAIL [parallel-$PLABEL]: $PMIS serial-vs-parallel result mismatches (parallel analysis must be bit-identical to serial)" >&2
    return 1
  fi
  echo "parallel gate [$PLABEL]: 0 serial-vs-parallel result mismatches"
}

if [ -n "$VERIFY_FRESH" ] && [ -r "$VERIFY_FRESH" ]; then
  parallel_gate checker "$VERIFY_FRESH" "$VERIFY_BASELINE" || STATUS=1
fi

# Checker bench gate (optional args 4/5): the incremental re-check slice
# size is deterministic like the closure counters, so it gets the same
# threshold gate; the incremental-vs-batch verdict comparison is a
# baseline-independent correctness condition like staged_sum_mismatches.
if [ -n "$VERIFY_FRESH" ]; then
  if [ ! -r "$VERIFY_FRESH" ]; then
    echo "FAIL [checker]: fresh verify results $VERIFY_FRESH are missing or unreadable — the bench run that should have produced them failed" >&2
    STATUS=1
  else
    if [ ! -r "$VERIFY_BASELINE" ]; then
      echo "SKIP [checker]: verify baseline $VERIFY_BASELINE is missing or unreadable — checks_rechecked gate not run (regenerate and commit a baseline to re-arm it)"
    else
      gate checker checks_rechecked "$VERIFY_BASELINE" "$VERIFY_FRESH" || STATUS=1
    fi

    # Baseline-independent: bit-identical verdicts are a correctness
    # invariant of the fresh run, gated even without a committed baseline.
    VMISMATCHES=$(sum_fresh_field verdict_mismatches "$VERIFY_FRESH")
    if ! is_num "$VMISMATCHES"; then
      echo "FAIL [checker]: malformed verdict_mismatches field in $VERIFY_FRESH" >&2
      STATUS=1
    elif [ "$VMISMATCHES" -gt 0 ]; then
      echo "FAIL [checker]: $VMISMATCHES incremental-vs-batch verdict mismatches (re-checked verdicts must be bit-identical to a full re-verification)" >&2
      STATUS=1
    else
      echo "verify gate [checker]: 0 incremental-vs-batch verdict mismatches"
    fi
  fi
fi

exit $STATUS
