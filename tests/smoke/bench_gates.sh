#!/usr/bin/env bash
# Self-tests of the benchmark tooling, registered with ctest under the
# `smoke` label, one ctest test per section:
#
#   tests/smoke/bench_gates.sh path/to/bench_perf_engines json_write_failure
#   tests/smoke/bench_gates.sh path/to/repo perf_gate
#   tests/smoke/bench_gates.sh path/to/bench_perf_engines baseline_rows path/to/repo
#
# `json_write_failure` checks that a benchmark JSON which cannot be written
# exits nonzero (an exit, not a crash). `perf_gate` checks that
# bench/perf_diff.py actually bites, on documents built from the committed
# bench/BENCH_baseline.json: the baseline compared with itself passes, while
# the same file with BM_PosteriorSingleObservation/16 made 10x slower, and
# the file with one row dropped, both fail with the gate's exit status 1.
# `baseline_rows` checks that every row of bench/BENCH_baseline.json names
# a benchmark that bench_perf_engines registers (--benchmark_list_tests),
# so a deleted benchmark whose baseline row remains fails here, offline,
# and not first in CI's perf gate.
# Runs in the current directory and leaves its JSON files there.
set -eo pipefail
usage="usage: bench_gates.sh PATH json_write_failure|perf_gate|baseline_rows [REPO]"
path=${1:?$usage}
section=${2:?$usage}

case "$section" in
  json_write_failure)
    rc=0
    "$path" --json=/no/such/dir/bench.json \
      --benchmark_filter=BM_EventQueueScheduleRun \
      --benchmark_min_time=0.01 || rc=$?
    if [ "$rc" -eq 0 ] || [ "$rc" -ge 128 ]; then
      echo "expected a benchmark JSON write failure exit, got $rc"; exit 1
    fi
    ;;
  perf_gate)
    baseline="$path/bench/BENCH_baseline.json"
    gate() { python3 "$path/bench/perf_diff.py" "$baseline" "$1" \
               --tolerance 3.0 --quiet; }
    gate "$baseline"
    python3 - "$baseline" <<'EOF'
import json, sys
doc = json.load(open(sys.argv[1]))
rows = doc["benchmarks"]
slow = [dict(b) for b in rows]
hits = 0
for b in slow:
    if b.get("name") == "BM_PosteriorSingleObservation/16":
        b["real_time"] *= 10.0
        hits += 1
assert hits == 1, "baseline has no BM_PosteriorSingleObservation/16 row"
json.dump(dict(doc, benchmarks=slow), open("BENCH_slow.json", "w"))
json.dump(dict(doc, benchmarks=rows[1:]), open("BENCH_dropped.json", "w"))
EOF
    for doc in BENCH_slow.json BENCH_dropped.json; do
      rc=0
      gate "$doc" 2> "$doc.err" || rc=$?
      if [ "$rc" -ne 1 ]; then
        cat "$doc.err"
        echo "perf gate exited $rc on $doc; a gate that passes it is not a gate"
        exit 1
      fi
    done
    echo "gate self-test OK: 10x slowdown and dropped row rejected"
    ;;
  baseline_rows)
    repo=${3:?$usage}
    "$path" --benchmark_list_tests > registered.txt
    python3 - "$repo/bench/BENCH_baseline.json" registered.txt <<'EOF'
import json, sys
rows = json.load(open(sys.argv[1]))["benchmarks"]
registered = set(open(sys.argv[2]).read().split())
names = [b.get("run_name", b.get("name")) for b in rows]
stale = [n for n in names if n not in registered]
if stale:
    sys.exit("baseline rows with no registered benchmark: " + ", ".join(stale))
print(f"{len(names)} baseline rows, all registered")
EOF
    ;;
  *)
    echo "$usage" >&2
    exit 2
    ;;
esac
