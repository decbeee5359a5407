#!/usr/bin/env bash
# Every header under src/ must be reached by a program:
#
#   tests/smoke/src_reached.sh path/to/repo
#
# A header counts as reached when some file under src/, tools/, examples/,
# bench/ or perfbench/ includes it. Two includers do not count: the
# header's own .cpp (a library unit no program calls is dead code with a
# test or two around it) and the src/anonymity/api.hpp umbrella, which
# includes every public header by design. Allowed unreached: the umbrella
# itself and the test oracles, which only tests include.
set -eo pipefail
root=${1:?usage: src_reached.sh REPO_ROOT}
cd "$root"

allowed=" src/anonymity/api.hpp src/net/graph_oracle.hpp src/stats/chi_square.hpp "
includers=$(find src tools examples bench perfbench -type f \
  \( -name '*.cpp' -o -name '*.hpp' \) | sort)

unreached=0
for header in $(find src -name '*.hpp' | sort); do
  case "$allowed" in *" $header "*) continue ;; esac
  own=${header%.hpp}.cpp
  # shellcheck disable=SC2086  # the includer list is whitespace-free paths
  reached=$(grep -lF "#include \"$header\"" $includers |
    grep -vxF -e "$own" -e src/anonymity/api.hpp || true)
  if [ -z "$reached" ]; then
    echo "unreached: $header (no program includes it)"
    unreached=$((unreached + 1))
  fi
done
echo "$unreached unreached header(s)"
test "$unreached" -eq 0
