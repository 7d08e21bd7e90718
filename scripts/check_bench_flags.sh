#!/bin/sh
# check_bench_flags.sh — every bench rejects a bad numeric flag value:
# each case below must exit 1, before any work starts, with a message that
# names the flag.
#
# usage: check_bench_flags.sh FIG10_BIN BATCH_VERIFY_BIN ABLATION_BIN

set -u

FIG10=$1
VERIFY=$2
ABLATION=$3
STATUS=0

# expect_reject BIN FLAG VALUE [EXTRA_ARGS...]
expect_reject() {
  BIN=$1
  FLAG=$2
  VALUE=$3
  shift 3
  OUT=$("$BIN" "$@" "$FLAG" "$VALUE" 2>&1)
  RC=$?
  NAME=$(basename "$BIN")
  if [ "$RC" -ne 1 ]; then
    echo "$NAME $FLAG $VALUE: exit $RC, expected 1" >&2
    STATUS=1
    return
  fi
  case "$OUT" in
  *"$FLAG"*) ;;
  *)
    echo "$NAME $FLAG $VALUE: no message naming $FLAG" >&2
    STATUS=1
    ;;
  esac
}

for V in abc 0 2x -1; do
  expect_reject "$VERIFY" --threads "$V" --no-json
done
expect_reject "$VERIFY" --repeats 0 --no-json
expect_reject "$VERIFY" --edits -1 --no-json
expect_reject "$VERIFY" --pct-assert 101 --no-json

expect_reject "$FIG10" --edits abc --no-json --no-batch
expect_reject "$FIG10" --trials 0 --no-json --no-batch
expect_reject "$FIG10" --vars 2x --no-json --no-batch
expect_reject "$FIG10" --sizes 8,,16 --no-json --no-batch

expect_reject "$ABLATION" --edits 0

[ "$STATUS" -eq 0 ] && echo "bench flags: all bad values rejected"
exit "$STATUS"
