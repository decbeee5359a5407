#!/usr/bin/env bash
# Route-planning smokes, registered with ctest under the `smoke` label:
#
#   tests/smoke/route_planning.sh path/to/anonpath kpaths
#   tests/smoke/route_planning.sh path/to/anonpath scale
#
# `kpaths` (ctest smoke.route_planning) drives the kpaths routing axis and
# its trace round trip; `scale` (smoke.route_planning_scale, also labelled
# `slow`) builds and plans on 1e6- and 1e5-node graphs.
# Runs in the current directory and leaves its CSV, trace and log files
# there, so a failing run can be inspected (or uploaded) as is.
set -eo pipefail
usage="usage: route_planning.sh ANONPATH_BINARY kpaths|scale"
anonpath=${1:?$usage}
section=${2:?$usage}

case "$section" in
  kpaths)
    # kpaths campaign axis: thread- and trace-pipeline invariant like
    # every other axis; the routing CSV column appears only here.
    "$anonpath" campaign --n 24 --c 2 --dist U:1,5 \
      --topology regular:4 --routing walk,kpaths:3 --messages 150 \
      --replicas 4 --seed 7 --threads 8 > routed.csv
    "$anonpath" campaign --n 24 --c 2 --dist U:1,5 \
      --topology regular:4 --routing walk,kpaths:3 --messages 150 \
      --replicas 4 --seed 7 --threads 1 --via-trace > routed-trace.csv
    test "$(wc -l < routed.csv)" -eq 3
    grep -q ",routing" routed.csv
    diff routed.csv routed-trace.csv
    # Planned-route capture -> replay reproduces inline simulate.
    "$anonpath" simulate --n 30 --c 3 --dist U:1,6 \
      --topology regular:4 --routing kpaths:4 --messages 200 \
      --seed 9 > kp-inline.txt
    "$anonpath" capture --n 30 --c 3 --dist U:1,6 \
      --topology regular:4 --routing kpaths:4 --messages 200 \
      --seed 9 --out kp.trace
    "$anonpath" replay --in kp.trace > kp-replayed.txt
    diff kp-inline.txt kp-replayed.txt
    # Invalid routing combinations fail loudly.
    if "$anonpath" simulate --n 20 --mode crowds \
      --routing kpaths --messages 50; then
      echo "expected failure"; exit 1; fi
    if "$anonpath" simulate --n 20 --routing kpaths:0 \
      --messages 50; then echo "expected failure"; exit 1; fi
    # --csr is accepted and selects nothing (every graph is CSR): a plan
    # prints the same with and without it once its timings are stripped.
    for flag in "" --csr; do
      "$anonpath" plan --n 300 --topology regular:4 --routes 12 \
        --routing kpaths:2 --components $flag |
        sed 's/, [0-9.]* s$//' > "plan${flag}.txt"
    done
    grep -q "csr storage" plan.txt
    diff plan.txt plan--csr.txt
    ;;
  scale)
    # The scale target: build a 1e6-node graph, prove it one component,
    # run a full Dijkstra tree, and extract 100 routes — all within the
    # smoke budget (a few seconds on release).
    time "$anonpath" plan --n 1000000 --topology regular:2 \
      --components --routes 100 | tee plan-scale.txt
    grep -q "N=1000000, 1000000 edges, csr storage" plan-scale.txt
    grep -q "components: 1," plan-scale.txt
    grep -q "dijkstra from 0: 1000000 reachable" plan-scale.txt
    # kpaths planning realism at 1e5 nodes, degree 4. Each new pair pays
    # one full reverse tree plus two bounded searches per spur node; the
    # regular:4 swap-mixing build dominates the run.
    "$anonpath" plan --n 100000 --topology regular:4 \
      --routes 20 --routing kpaths:4 | tee plan-kpaths.txt
    grep -q "kpaths(4) routes" plan-kpaths.txt
    ;;
  *)
    echo "$usage" >&2
    exit 2
    ;;
esac
