#!/usr/bin/env bash
# Extension-claim smokes, one ctest test per section
# (smoke.extensions_<section>):
#
#   tests/smoke/extensions.sh path/to/anonpath SECTION [path/to/bench_ext_<name>]
#
# Each section runs one sweep beyond the paper's figures and asserts the
# trend that sweep claims. The CLI reproduces the first seven; the other
# five, named after the kept bench_ext_<name> binary they run, check series
# no CLI prints. Leaves its CSV and log files in the current directory.
set -eo pipefail
sections="adversary|compromised|degradation|latency|topology|route_plan|disclosure"
sections+="|retry_frontier|streaming_sweep|geometric|protocols|cyclic"
usage="usage: extensions.sh ANONPATH_BINARY $sections [BENCH_BINARY]"
anonpath=${1:?$usage}
section=${2:?$usage}
bench=$3

# Both checks below read FILE as CSV: '#' lines and blank lines are
# skipped, the first other line names the columns, and a quoted field (a
# dist label) reads as empty. A data row's fields land in
# field[<column name>]; num(c) reads one as a number and fails on a missing
# column or a non-number (setting `fatal`, which each END checks first:
# exit runs END too).
csv_reader='
  function num(c) {
    if (!(c in field)) { print "FAIL no column " c " in " FILENAME; fatal = 2; exit }
    if (field[c] !~ /^-?[0-9]+(\.[0-9]*)?([eE][-+]?[0-9]+)?$/) {
      print "FAIL " FILENAME ": " c " = " field[c] " is not a number"; fatal = 2; exit
    }
    return field[c] + 0
  }
  /^#/ || /^[ \t]*$/ { next }
  { gsub(/"[^"]*"/, "") }
  !header { columns = split($0, name, ","); header = 1; next }
  { split($0, cell, ","); for (i = 1; i <= columns; i++) field[name[i]] = cell[i] }
'

# assert_trend FILE COLUMN falls|rises K ERR_COLUMN|- [KEY=VALUE...]
#
# The rows of FILE whose KEY columns equal VALUE (all rows without a
# filter), in file order, form a series of COLUMN. Every step of that
# series must move the stated way by at least K times the step's combined
# error, sqrt(e1^2 + e2^2) of ERR_COLUMN (a stderr or a CI half-width).
# With `-` for ERR_COLUMN the margin is K in COLUMN's own units. A
# negative K is a tolerance: the series never moves the other way by more
# than |K| errors. Needs at least two rows.
assert_trend() {
  local file=$1 column=$2 direction=$3 k=$4 err=$5
  shift 5
  case "$direction" in falls|rises) ;; *) echo "bad direction $direction"; return 2 ;; esac
  awk -v column="$column" -v direction="$direction" -v k="$k" -v err="$err" \
      -v filters="$*" "$csv_reader"'
    BEGIN { n = split(filters, pairs, " ")
            for (i = 1; i <= n; i++) { split(pairs[i], kv, "="); want[kv[1]] = kv[2] } }
    {
      for (key in want) if (field[key] != want[key]) next
      v = num(column); e = err == "-" ? 0 : num(err)
      if (rows++) {
        step = direction == "rises" ? v - prev : prev - v
        margin = err == "-" ? k : k * sqrt(e * e + prev_e * prev_e)
        if (step < margin) {
          printf "FAIL %s: %s %s -> %s %s by %g, needs >= %g\n",
                 FILENAME, column, prev, v, direction, step, margin
          bad = 1
        }
      }
      prev = v; prev_e = e; series = series " " field[column]
    }
    END {
      if (fatal) exit fatal
      if (rows < 2) { printf "FAIL %s: %d rows of %s %s\n", FILENAME, rows, column, filters; exit 1 }
      if (!bad) printf "ok %s: %s %s (K=%s x %s)%s:%s\n", FILENAME, column, direction, k, err,
                       filters == "" ? "" : " at " filters, series
      exit bad
    }' "$file"
}

# assert_each FILE LHS OP RHS: LHS OP RHS holds in every row of FILE; each
# side is a column name or a number, OP one of <= == >=.
assert_each() {
  local file=$1 lhs=$2 op=$3 rhs=$4
  awk -v lhs="$lhs" -v op="$op" -v rhs="$rhs" "$csv_reader"'
    function side(s) { return s ~ /^-?[0-9.]+$/ ? s + 0 : num(s) }
    {
      a = side(lhs); b = side(rhs); rows++
      ok = op == "<=" ? a <= b : op == "==" ? a == b : op == ">=" ? a >= b : -1
      if (ok < 0) { print "FAIL bad operator " op; fatal = 2; exit }
      if (!ok) { printf "FAIL %s row %d: %s %s %s is %s %s %s\n", FILENAME, rows,
                        lhs, op, rhs, a, op, b; bad = 1 }
    }
    END {
      if (fatal) exit fatal
      if (rows == 0) { print "FAIL " FILENAME ": no rows"; exit 1 }
      if (!bad) printf "ok %s: %s %s %s in all %d rows\n", FILENAME, lhs, op, rhs, rows
      exit bad
    }' "$file"
}

# estimate_row LABEL ESTIMATE_ARGS...: prints "LABEL,<H*>,<95% CI>" of one
# `estimate` run and keeps its output in estimate-LABEL.txt.
estimate_row() {
  local label=$1
  shift
  "$anonpath" estimate "$@" > "estimate-$label.txt"
  awk -v label="$label" '/H\* = / { print label "," $3 "," $5; found = 1 }
                         END { exit !found }' "estimate-$label.txt"
}

# bench_table FILE: the kept bench binary's one table (no timings run).
bench_table() {
  "${bench:?$usage}" --benchmark_filter='^$' > "$1" 2> "${1%.csv}.log"
}

case "$section" in
  adversary)
    # Relay coverage f -> 1 under Ando-Lysyanskaya-Upfal's fractional
    # adversary: H* falls step by step, with R compromised and honest.
    for receiver in compromised honest; do
      axis=partial:0.05,partial:0.2,partial:0.45,partial:0.8
      if [ "$receiver" = honest ]; then axis=${axis//,/:honest,}:honest; fi
      "$anonpath" campaign --n 60 --c 1 --dist U:1,8 --adversary "$axis" \
        --messages 400 --replicas 6 > "adversary-$receiver.csv"
      assert_trend "adversary-$receiver.csv" entropy_bits falls 2 entropy_stderr
    done
    ;;
  compromised)
    # H* falls as the coalition grows (the paper's figures show C=1 only).
    echo "c,entropy_bits,ci95" > compromised.csv
    for c in 1 4 16 32; do
      estimate_row "$c" --n 100 --c "$c" --dist F:5 --samples 20000 \
        >> compromised.csv
    done
    assert_trend compromised.csv entropy_bits falls 2 ci95
    # The C=1 estimate meets the closed form within its 95% CI either way.
    closed=$("$anonpath" degree --n 100 --dist F:5 | tee degree.txt |
             sed -n 's/.*H\* = \([0-9.]*\) bits.*/\1/p')
    { echo "source,entropy_bits,ci95"; echo "closed_form,${closed:?},0"
      sed -n 2p compromised.csv; } > anchor.csv
    assert_trend anchor.csv entropy_bits rises -1 ci95
    assert_trend anchor.csv entropy_bits falls -1 ci95
    ;;
  degradation)
    # At each drop rate H* falls with C; at each C delivery falls with the
    # drop rate. (The cross-message predecessor attack is pinned by
    # Degradation.* in tests/multi_message_test.cpp.)
    "$anonpath" campaign --n 60 --c 1,6,24 --dist U:1,10 --drop 0,0.1 \
      --rate 100 --messages 600 --replicas 4 > degradation.csv
    for drop in 0 0.1; do
      assert_trend degradation.csv entropy_bits falls 2 entropy_stderr "drop=$drop"
    done
    for c in 1 6 24; do
      assert_trend degradation.csv delivered_fraction falls 2 delivered_stderr "c=$c"
    done
    ;;
  latency)
    # The anonymity-vs-latency frontier: latency rises with path length.
    "$anonpath" campaign --n 100 --c 1 --dist F:1 --dist F:5 --dist F:25 \
      --dist F:51 --messages 800 --replicas 4 > latency.csv
    assert_trend latency.csv latency_ms rises 2 latency_ms_stderr
    ;;
  topology)
    # Walk-model H* rises with ring degree ...
    echo "k,entropy_bits,ci95" > ring.csv
    for k in 1 2 4 8; do
      estimate_row "ring$k" --n 24 --c 2 --dist U:1,6 --topology "ring:$k" \
        >> ring.csv
    done
    assert_trend ring.csv entropy_bits rises 2 ci95
    # ... and no ring exceeds the clique by more than the two CIs. The
    # rings rise, so the densest is the one to check.
    { head -n 1 ring.csv; tail -n 1 ring.csv
      estimate_row clique --n 24 --c 2 --dist U:1,6; } > ceiling.csv
    assert_trend ceiling.csv entropy_bits rises -1 ci95
    ;;
  route_plan)
    # Planned routes lengthen with k. H* is not asserted: it falls with k
    # here (see ROADMAP.md, "planned-route anonymity").
    "$anonpath" campaign --n 24 --c 2 --dist U:1,6 --topology regular:4 \
      --routing kpaths:1,kpaths:2,kpaths:4,kpaths:8,kpaths:16 \
      --messages 400 --replicas 4 --seed 7 > route_plan.csv
    assert_trend route_plan.csv hops rises 2 hops_stderr
    ;;
  disclosure)
    # Rounds to identification vs the mix batch: sda's identified round
    # rises with the batch, and intersection's and bayes' never fall. A
    # target that is not identified counts as rounds + 1. --every 1,
    # because the reported round is a trajectory point.
    echo "round_size,intersection,sda,bayes" > disclosure.csv
    for batch in 4 16 64; do
      row=$batch
      for attack in intersection sda bayes; do
        threshold=0.99; if [ "$attack" = sda ]; then threshold=0.5; fi
        "$anonpath" attack --users 5000 --population 400 --rounds 4000 \
          --round-size "$batch" --attack "$attack" --threshold "$threshold" \
          --every 1 --seed 97 > "$attack-$batch.csv" 2> "$attack-$batch.log"
        round=$(awk '/^# identified at round/ { print $5 + 0 }
                     /^# not identified within/ { print $5 + 1 }' \
                "$attack-$batch.log")
        row+=",${round:?no identification line in $attack-$batch.log}"
      done
      echo "$row" >> disclosure.csv
    done
    assert_trend disclosure.csv sda rises 1 -
    assert_trend disclosure.csv intersection rises 0 -
    assert_trend disclosure.csv bayes rises 0 -
    ;;
  retry_frontier)
    # Delivery rises with the retry budget; entropy over all submissions
    # never rises by more than 2 stderr.
    bench_table retry.csv
    assert_trend retry.csv delivered_fraction rises 2 delivered_stderr
    assert_trend retry.csv entropy_bits falls -2 entropy_stderr
    ;;
  streaming_sweep)
    # Sketch memory is independent of the population, and the sketch
    # names the exact engine's top receiver at every population.
    bench_table streaming.csv
    assert_trend streaming.csv sketch_bytes rises 0 -
    assert_trend streaming.csv sketch_bytes falls 0 -
    assert_each streaming.csv top_match == 1
    ;;
  geometric)
    # The optimum beats the Crowds coin, fixed and best-uniform lengths.
    bench_table geometric.csv
    for strategy in Geom F bestU; do
      assert_each geometric.csv Opt ">=" "$strategy"
    done
    ;;
  protocols)
    # No deployed protocol beats the optimum or the log2(N) ceiling.
    bench_table protocols.csv
    assert_each protocols.csv headroom_bits ">=" 0
    assert_each protocols.csv "H*" "<=" "$(awk 'BEGIN { printf "%.9f", log(100) / log(2) }')"
    ;;
  cyclic)
    # Cycle-allowing paths never score below simple paths.
    bench_table cyclic.csv
    assert_each cyclic.csv cyclic ">=" simple
    ;;
  *)
    echo "$usage"; exit 2 ;;
esac
