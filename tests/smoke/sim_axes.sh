#!/usr/bin/env bash
# Simulator-axis smokes, registered with ctest under the `smoke` label:
#
#   tests/smoke/sim_axes.sh path/to/anonpath adversary
#   tests/smoke/sim_axes.sh path/to/anonpath topology
#   tests/smoke/sim_axes.sh path/to/anonpath faults
#
# `adversary` (ctest smoke.sim_axes_adversary) sweeps the threat-model axis
# and round-trips a capture through replay; `topology`
# (smoke.sim_axes_topology) sweeps the topology x churn axes and the
# walk-model estimate; `faults` (smoke.sim_axes_faults) sweeps the retry
# axis, kills a live campaign mid-grid and resumes it from its journal.
# Every section checks thread-count and trace-pipeline invariance and that
# out-of-range parameters fail loudly. Runs in the current directory and
# leaves its CSV, trace and journal files there, so a failing run can be
# inspected (or uploaded) as is.
set -eo pipefail
usage="usage: sim_axes.sh ANONPATH_BINARY adversary|topology|faults"
anonpath=${1:?$usage}
section=${2:?$usage}

case "$section" in
  adversary)
    # Adversary axis sweeps and stays thread/trace-pipeline invariant.
    "$anonpath" campaign --n 30 --c 2 --dist F:3 \
      --adversary full,partial:0.2,timing --messages 150 --replicas 4 \
      --seed 7 --threads 8 > adv.csv
    "$anonpath" campaign --n 30 --c 2 --dist F:3 \
      --adversary full,partial:0.2,timing --messages 150 --replicas 4 \
      --seed 7 --threads 8 --via-trace > adv-trace.csv
    test "$(wc -l < adv.csv)" -eq 4
    diff adv.csv adv-trace.csv
    # capture -> replay reproduces inline simulate exactly.
    "$anonpath" simulate --n 40 --c 3 --dist U:1,6 --messages 300 \
      --seed 9 > inline.txt
    "$anonpath" capture --n 40 --c 3 --dist U:1,6 --messages 300 \
      --seed 9 --out run.trace
    "$anonpath" replay --in run.trace > replayed.txt
    diff inline.txt replayed.txt
    ;;
  topology)
    # Topology x churn campaign sweeps, thread- and trace-invariant.
    "$anonpath" campaign --n 24 --c 2 --dist F:3 \
      --topology complete,ring:2,tiered:3 --churn 0,0.5:0.5 \
      --messages 150 --replicas 4 --seed 7 --threads 8 > topo.csv
    "$anonpath" campaign --n 24 --c 2 --dist F:3 \
      --topology complete,ring:2,tiered:3 --churn 0,0.5:0.5 \
      --messages 150 --replicas 4 --seed 7 --threads 1 \
      --via-trace > topo-trace.csv
    test "$(wc -l < topo.csv)" -eq 7
    diff topo.csv topo-trace.csv
    # Restricted-graph capture -> replay reproduces inline simulate.
    "$anonpath" simulate --n 24 --c 2 --dist U:1,5 \
      --topology tiered:3 --churn 0.3:0.5 --messages 200 \
      --seed 9 > topo-inline.txt
    "$anonpath" capture --n 24 --c 2 --dist U:1,5 \
      --topology tiered:3 --churn 0.3:0.5 --messages 200 \
      --seed 9 --out topo.trace
    "$anonpath" replay --in topo.trace > topo-replayed.txt
    diff topo-inline.txt topo-replayed.txt
    # Walk-model MC estimate on a restricted graph runs and is
    # thread-count invariant.
    "$anonpath" estimate --n 40 --c 3 --dist U:1,6 \
      --topology ring:4 --samples 20000 --threads 1 | \
      grep -v throughput > topo-est1.txt
    "$anonpath" estimate --n 40 --c 3 --dist U:1,6 \
      --topology ring:4 --samples 20000 --threads 8 | \
      grep -v throughput > topo-est8.txt
    diff topo-est1.txt topo-est8.txt
    # Out-of-range topology parameters fail loudly (nonzero exit).
    if "$anonpath" simulate --n 10 --topology ring:20 \
      --messages 50; then echo "expected failure"; exit 1; fi
    ;;
  faults)
    # Retry axis sweeps; frontier CSV is thread-count invariant.
    "$anonpath" campaign --n 24 --c 2 --dist U:1,5 --drop 0.2 \
      --retry 0,2:0.3,4:0.3 --messages 200 --replicas 4 --seed 7 \
      --threads 8 > retry.csv
    "$anonpath" campaign --n 24 --c 2 --dist U:1,5 --drop 0.2 \
      --retry 0,2:0.3,4:0.3 --messages 200 --replicas 4 --seed 7 \
      --threads 1 > retry1.csv
    test "$(wc -l < retry.csv)" -eq 4
    diff retry.csv retry1.csv
    # Clean reference run, journaled.
    grid="--n 30,60 --c 2,4 --dist U:1,6 --drop 0.15 --retry 0,3:0.3 \
      --messages 400 --replicas 6 --seed 7 --threads 2"
    rm -f clean.ckpt kill.ckpt
    "$anonpath" campaign $grid --checkpoint clean.ckpt > clean.csv
    # Kill a live campaign mid-grid (SIGKILL: no flush, no cleanup),
    # then resume from its journal: bytes must match the clean run.
    # If the run finishes before the kill lands, resume on a complete
    # journal still must reproduce the bytes doing zero work.
    "$anonpath" campaign $grid --checkpoint kill.ckpt \
      > killed.csv 2>/dev/null &
    pid=$!
    for i in $(seq 1 200); do
      if [ -f kill.ckpt ] && [ "$(wc -l < kill.ckpt)" -ge 5 ]; then
        break
      fi
      sleep 0.05
    done
    kill -9 "$pid" 2>/dev/null || true
    wait "$pid" 2>/dev/null || true
    "$anonpath" campaign $grid --checkpoint kill.ckpt --resume \
      > resumed.csv
    diff clean.csv resumed.csv
    # A foreign journal is refused loudly, not silently recomputed.
    if "$anonpath" campaign $grid --replicas 3 \
      --checkpoint kill.ckpt --resume > /dev/null; then
      echo "expected scope-mismatch failure"; exit 1; fi
    # The line above repeats --replicas, which the CLI refuses before any
    # journal is read; this one changes the replica count in place, so
    # the journal's scope check is what refuses it.
    if "$anonpath" campaign ${grid/--replicas 6/--replicas 3} \
      --checkpoint kill.ckpt --resume > /dev/null 2> scope.log; then
      echo "expected scope-mismatch failure"; exit 1; fi
    grep -q "scope mismatch" scope.log
    # Out-of-range fault parameters fail loudly at config time.
    if "$anonpath" simulate --n 20 --drop 1.5 --messages 50; then
      echo "expected failure"; exit 1; fi
    if "$anonpath" simulate --n 20 --retry 2:0 --messages 50; then
      echo "expected failure"; exit 1; fi
    if "$anonpath" simulate --n 20 --crash 50:0:1 --messages 50; then
      echo "expected failure"; exit 1; fi
    ;;
  *)
    echo "$usage" >&2
    exit 2
    ;;
esac
