#!/usr/bin/env bash
# Every registered gtest case must reach ctest, registered with ctest under
# the `smoke` label:
#
#   tests/smoke/test_registration.sh path/to/build path/to/ctest
#
# A case that registers but never reaches ctest (broken discovery, a stale
# test list, an uninstantiated TEST_P) would pass silently, so this compares
# the two counts: the tests ctest lists outside the `smoke` label (the
# script tests are not gtest cases) against the summed --gtest_list_tests
# counts of the build's *_test binaries.
set -eo pipefail
usage="usage: test_registration.sh BUILD_DIR CTEST"
build=${1:?$usage}
ctest=${2:?$usage}

discovered=$("$ctest" --test-dir "$build" -N -LE smoke |
  awk '/Total Tests:/ {print $3}')
registered=0
for t in "$build"/*_test; do
  n=$("$t" --gtest_list_tests | grep -c '^  ')
  registered=$((registered + n))
done
echo "ctest discovered: $discovered, gtest registered: $registered"
test "$discovered" -gt 0
test "$discovered" -eq "$registered"
