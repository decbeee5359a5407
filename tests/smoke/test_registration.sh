#!/usr/bin/env bash
# Every registered gtest case must reach ctest, registered with ctest under
# the `smoke` label:
#
#   tests/smoke/test_registration.sh path/to/build path/to/ctest TEST...
#
# A case that registers but never reaches ctest (broken discovery, a stale
# test list, an uninstantiated TEST_P) would pass silently, so this compares
# the two counts: the tests ctest lists outside the `smoke` label (the
# script tests are not gtest cases) against the summed --gtest_list_tests
# counts of the TEST binaries, the build's live test targets (a glob of the
# build directory would also count binaries of deleted test sources).
set -eo pipefail
usage="usage: test_registration.sh BUILD_DIR CTEST TEST..."
build=${1:?$usage}
ctest=${2:?$usage}
shift 2
test $# -gt 0 || { echo "$usage" >&2; exit 2; }

discovered=$("$ctest" --test-dir "$build" -N -LE smoke |
  awk '/Total Tests:/ {print $3}')
registered=0
for t in "$@"; do
  n=$("$t" --gtest_list_tests | grep -c '^  ')
  registered=$((registered + n))
done
echo "ctest discovered: $discovered, gtest registered: $registered"
test "$discovered" -gt 0
test "$discovered" -eq "$registered"
