#!/usr/bin/env bash
# CLI surface smokes, registered with ctest under the `smoke` label, one
# ctest test per section (smoke.cli_surface_<section>):
#
#   tests/smoke/cli_surface.sh path/to/anonpath determinism
#   tests/smoke/cli_surface.sh path/to/anonpath campaign
#   tests/smoke/cli_surface.sh path/to/anonpath observability
#   tests/smoke/cli_surface.sh path/to/anonpath shard_merge
#   tests/smoke/cli_surface.sh path/to/anonpath write_failures
#   tests/smoke/cli_surface.sh path/to/anonpath disclosure
#
# `determinism` checks the closed form runs and the MC estimate is
# thread-count invariant; `campaign` that the 48-cell grid (x 8 replicas)
# is bit-identical across thread counts; `observability` that --metrics and
# --progress leave the CSV untouched and write the catalogued snapshot;
# `shard_merge` that 3 shards merge to the unsharded CSV; `write_failures`
# that output which cannot land exits nonzero; `disclosure` the
# population-scale attacks and the session campaign axes. `observability`
# and `shard_merge` compare against the `campaign` section's CSV, which
# each rebuilds in its own directory. Runs in the current directory and
# leaves its CSV, log, metrics and journal files there, so a failing run
# can be inspected (or uploaded) as is.
set -eo pipefail
sections="determinism|campaign|observability|shard_merge|write_failures|disclosure"
usage="usage: cli_surface.sh ANONPATH_BINARY $sections"
anonpath=${1:?$usage}
section=${2:?$usage}

# The 48-cell grid's unsharded, single-thread CSV.
campaign_golden() {
  "$anonpath" campaign --n 30,60 --c 1,4,8 --dist F:3 --dist U:1,8 \
    --mode onion,crowds --drop 0,0.05 --messages 200 --replicas 8 \
    --seed 7 --threads 1 > campaign1.csv
}

case "$section" in
  determinism)
    "$anonpath" degree --n 100 --dist F:5
    "$anonpath" estimate --n 60 --c 4 --dist U:1,10 --samples 20000 --threads 1 | tee one.txt
    "$anonpath" estimate --n 60 --c 4 --dist U:1,10 --samples 20000 --threads 8 | tee eight.txt
    # Thread-count invariance: identical estimates modulo the timing lines.
    grep -v throughput one.txt > one.cmp
    grep -v throughput eight.txt > eight.cmp
    diff one.cmp eight.cmp
    ;;
  campaign)
    campaign_golden
    "$anonpath" campaign --n 30,60 --c 1,4,8 --dist F:3 --dist U:1,8 \
      --mode onion,crowds --drop 0,0.05 --messages 200 --replicas 8 \
      --seed 7 --threads 8 > campaign8.csv
    # 48 cells + header, bit-identical across thread counts.
    test "$(wc -l < campaign1.csv)" -eq 49
    diff campaign1.csv campaign8.csv
    ;;
  observability)
    campaign_golden
    # Telemetry is a write-only tap: the instrumented campaign's CSV
    # must be byte-identical to the uninstrumented golden, while
    # --progress heartbeats land on stderr and --metrics writes a
    # versioned JSONL snapshot with the campaign catalogue keys.
    "$anonpath" campaign --n 30,60 --c 1,4,8 --dist F:3 --dist U:1,8 \
      --mode onion,crowds --drop 0,0.05 --messages 200 --replicas 8 \
      --seed 7 --threads 8 --metrics campaign-metrics.jsonl --progress \
      > campaign-obs.csv 2> campaign-obs.log
    diff campaign1.csv campaign-obs.csv
    grep -q "# progress: campaign cells 48/48 (100.0%)" campaign-obs.log
    head -1 campaign-metrics.jsonl | \
      grep -q '"format":"anonpath-metrics","version":1'
    grep -q '"name":"campaign.cells_completed","value":48' campaign-metrics.jsonl
    grep -q '"name":"campaign.runs_completed","value":384' campaign-metrics.jsonl
    grep -q '"name":"sim.events_executed"' campaign-metrics.jsonl
    grep -q '"name":"campaign.run_us","total":384' campaign-metrics.jsonl
    # simulate roots a deterministic span tree under the same header.
    "$anonpath" simulate --n 20 --c 2 --dist F:3 --messages 100 \
      --seed 3 --metrics sim-metrics.jsonl > /dev/null
    grep -q '"kind":"span","id":1,"parent":0,"name":"sim.run"' sim-metrics.jsonl
    grep -q '"kind":"span","id":2,"parent":1,"name":"sim.run_core"' sim-metrics.jsonl
    # A snapshot that cannot land fails the run; non-instrumented
    # commands refuse the flags loudly.
    if "$anonpath" simulate --n 16 --c 1 --dist F:3 --messages 30 \
      --metrics /dev/full > /dev/null; then
      echo "expected metrics write failure"; exit 1; fi
    if "$anonpath" degree --n 100 --dist F:5 --progress; then
      echo "expected obs-flag rejection"; exit 1; fi
    ;;
  shard_merge)
    campaign_golden
    # Split the 48-cell grid into 3 shard runs (mixed thread counts),
    # merge the journals, and require the CSV to be bit-identical to the
    # unsharded golden.
    grid="--n 30,60 --c 1,4,8 --dist F:3 --dist U:1,8 \
      --mode onion,crowds --drop 0,0.05 --messages 200 --replicas 8 \
      --seed 7"
    "$anonpath" campaign $grid --threads 1 --shard 0/3 \
      --checkpoint shard0.ckpt --metrics shard0.ckpt.metrics > /dev/null
    "$anonpath" campaign $grid --threads 8 --shard 1/3 \
      --checkpoint shard1.ckpt --metrics shard1.ckpt.metrics > /dev/null
    "$anonpath" campaign $grid --threads 8 --shard 2/3 \
      --checkpoint shard2.ckpt --metrics shard2.ckpt.metrics > /dev/null
    "$anonpath" merge $grid --input shard0.ckpt \
      --input shard1.ckpt --input shard2.ckpt \
      --checkpoint merged.ckpt --metrics merged-metrics.jsonl > merged.csv
    diff campaign1.csv merged.csv
    # Per-shard telemetry journaled next to the checkpoints aggregates
    # to the full grid's counts (mixed thread counts included).
    grep -q '"name":"campaign.cells_completed","value":48' merged-metrics.jsonl
    grep -q '"name":"campaign.runs_completed","value":384' merged-metrics.jsonl
    # The merged journal resumes as a complete unsharded run: zero
    # work, identical bytes.
    "$anonpath" campaign $grid --threads 8 \
      --checkpoint merged.ckpt --resume > merged-resume.csv
    diff campaign1.csv merged-resume.csv
    # Incomplete and overlapping shard sets are refused loudly.
    if "$anonpath" merge $grid --input shard0.ckpt \
      --input shard1.ckpt > /dev/null; then
      echo "expected missing-shard failure"; exit 1; fi
    if "$anonpath" merge $grid --input shard0.ckpt \
      --input shard1.ckpt --input shard1.ckpt > /dev/null; then
      echo "expected duplicate-shard failure"; exit 1; fi
    ;;
  write_failures)
    # Every output path must exit nonzero when the bytes cannot land:
    # CSV to a full disk, a checkpoint journal on a full disk, and a
    # trace on a full disk.
    if "$anonpath" campaign --n 16 --c 1 --dist F:3 \
      --messages 50 --replicas 1 > /dev/full; then
      echo "expected stdout write failure"; exit 1; fi
    if "$anonpath" campaign --n 16 --c 1 --dist F:3 \
      --messages 50 --replicas 1 \
      --checkpoint /dev/full > /dev/null; then
      echo "expected checkpoint write failure"; exit 1; fi
    if "$anonpath" capture --n 16 --c 1 --dist F:3 \
      --messages 50 --out /dev/full > /dev/null; then
      echo "expected trace write failure"; exit 1; fi
    ;;
  disclosure)
    # Population-scale workload target: 1e5 users x 1e4 rounds inside
    # the smoke budget. The sharded-accumulator bit-identity at this
    # size is StreamingScale.CrossChecksHold in tests/streaming_test.cpp.
    "$anonpath" attack --users 100000 --rounds 10000 \
      --round-size 12 --attack sda --seed 42 --threads 8 \
      --threshold 0.15 --every 1000 > sda-scale.csv 2> sda-scale.log
    grep -q "identified at round .* correct" sda-scale.log
    # Small-population fixed-seed smoke: sequential Bayes must pin the
    # partner within 40 rounds.
    "$anonpath" attack --users 2000 --population 500 --rounds 200 \
      --round-size 16 --attack bayes --seed 11 --every 1 \
      > bayes-smoke.csv 2> bayes-smoke.log
    round=$(sed -n 's/^# identified at round \([0-9]*\).*/\1/p' bayes-smoke.log)
    grep -q "correct" bayes-smoke.log
    test -n "$round" && test "$round" -le 40
    # Session campaign: axes sweep, thread- and trace-pipeline
    # invariant like every other axis.
    "$anonpath" campaign --n 20 --c 2 --dist U:1,4 \
      --population 0,15 --rounds 0,25 --attack none,sda,bayes \
      --messages 300 --replicas 2 --seed 7 --threads 8 > sess.csv
    "$anonpath" campaign --n 20 --c 2 --dist U:1,4 \
      --population 0,15 --rounds 0,25 --attack none,sda,bayes \
      --messages 300 --replicas 2 --seed 7 --threads 1 \
      --via-trace > sess-trace.csv
    # 4 coherent cells (session off, and 15x25 under each attack).
    test "$(wc -l < sess.csv)" -eq 5
    diff sess.csv sess-trace.csv
    # Unknown attack kinds and incoherent session axes fail loudly.
    if "$anonpath" attack --users 100 --attack frequency; then
      echo "expected failure"; exit 1; fi
    if "$anonpath" simulate --n 20 --population 5 --messages 100; then
      echo "expected failure"; exit 1; fi
    ;;
  *)
    echo "$usage" >&2
    exit 2
    ;;
esac
