#!/usr/bin/env bash
# Streaming inference smoke (1e6 users, sketch backend), registered with
# ctest under the `smoke` label:
#
#   tests/smoke/streaming_inference.sh path/to/anonpath
#
# Runs in the current directory and leaves its CSV and log files there, so
# a failing run can be inspected (or uploaded) as is.
set -eo pipefail
anonpath=${1:?usage: streaming_inference.sh ANONPATH_BINARY}
golden=$(cd "$(dirname "$0")/../golden" && pwd)

# The attack command's bytes, pinned: for send rates 1, 0.5 and 0 (every
# round, half the rounds, and no round a target round), the exact
# trajectory CSV and the non-timing stderr lines of a sketch-streamed
# sda run. tests/golden/attack_stream.{csv,log} hold what this block
# writes; regenerate them by copying attack_stream.* from this test's
# directory only when a change is meant to move the output.
: > attack_stream.csv
: > attack_stream.log
for rate in 1 0.5 0; do
  echo "# --send-rate $rate" | tee -a attack_stream.log >> attack_stream.csv
  "$anonpath" attack --attack sda --stream sketch --users 20000 \
    --rounds 600 --send-rate "$rate" --seed 7 \
    >> attack_stream.csv 2> attack_stream_run.log
  grep -E '^# (target pair|identified|not identified|sketch posterior)' \
    attack_stream_run.log >> attack_stream.log
done
diff "$golden/attack_stream.csv" attack_stream.csv
diff "$golden/attack_stream.log" attack_stream.log

# Online sketch-backed disclosure at 1e6 users: the sketch engine must
# name the exact engine's top receiver. The sharded-accumulator,
# count-min bound and memory cross-checks at this size are
# StreamingScale.CrossChecksHold in tests/streaming_test.cpp.
"$anonpath" attack --users 1000000 --rounds 3000 \
  --round-size 8 --attack sda --seed 42 --threads 8 \
  --stream sketch --every 500 > stream-scale.csv 2> stream-scale.log
grep -q "matches exact" stream-scale.log
# The sketch engine shares the exact engine's pass over the rounds; its
# company must not move a byte of the exact trajectory.
"$anonpath" attack --users 1000000 --rounds 3000 \
  --round-size 8 --attack sda --seed 42 --threads 8 \
  --stream exact --every 500 > stream-scale-exact.csv 2> stream-scale-exact.log
diff stream-scale-exact.csv stream-scale.csv
# The campaign stream axis: sketch cells ride next to exact cells,
# thread-invariant, and the CSV grows the stream column only when
# the axis is actually swept.
"$anonpath" campaign --n 20 --c 2 --dist U:1,4 \
  --population 40 --rounds 30 --attack sda --stream exact,sketch \
  --messages 300 --replicas 2 --seed 7 --threads 8 > stream-sess.csv
"$anonpath" campaign --n 20 --c 2 --dist U:1,4 \
  --population 40 --rounds 30 --attack sda --stream exact,sketch \
  --messages 300 --replicas 2 --seed 7 --threads 1 > stream-sess1.csv
test "$(wc -l < stream-sess.csv)" -eq 3
grep -q ",stream" stream-sess.csv
diff stream-sess.csv stream-sess1.csv
# A sketch backend without the sda attack is refused loudly.
if "$anonpath" attack --users 1000 --rounds 50 \
  --attack bayes --stream sketch; then
  echo "expected incoherent-stream failure"; exit 1; fi
