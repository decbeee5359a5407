#!/usr/bin/env bash
# README smoke, registered with ctest as smoke.readme:
#
#   tests/smoke/readme.sh path/to/anonpath path/to/README.md
#
# Runs every `./build/anonpath` command of the README's fenced ```sh
# blocks against the given binary, so a documented invocation that stops
# working fails a test. Each block that has such a command runs as one
# bash script (commands in order, `set -e`) in its own directory,
# block_<line>/ (the line of its opening fence), together with the block's
# shell variable assignments (`GRID=...`); comments and the other programs
# a block mentions (benches, examples) are not run. A command whose lines
# carry `smoke-skip: <reason>` is not run either; a marker without a reason
# is an error. Leaves each block's script and log in its directory.
set -eo pipefail
usage="usage: readme.sh ANONPATH_BINARY README.md"
anonpath=${1:?$usage}
readme=${2:?$usage}

rm -rf block_*
# Writes block_<line>/block.sh for every ```sh block with an anonpath
# command; continuation lines join their command first.
awk -v bin="$anonpath" '
  function flush_command() {
    if (cmd == "") return
    if (match(cmd, /smoke-skip:/)) {
      reason = substr(cmd, RSTART + RLENGTH)
      sub(/^[ \t]+/, "", reason)
      if (reason == "") {
        print "readme.sh: smoke-skip without a reason at README line " \
              cmd_line > "/dev/stderr"
        bad = 1
      }
      body = body "echo \"skipped README line " cmd_line ": " reason "\"\n"
      skipped++
    } else if (cmd ~ /^\.\/build\/anonpath /) {
      sub(/^\.\/build\/anonpath/, "\"" bin "\"", cmd)
      body = body "# README line " cmd_line "\n" cmd "\n"
      commands++
    } else if (cmd ~ /^[A-Za-z_][A-Za-z0-9_]*=/) {
      body = body cmd "\n"
    }
    cmd = ""
  }
  /^```sh$/ { in_block = 1; block_line = NR; body = ""; commands = 0; next }
  in_block && /^```$/ {
    flush_command()
    in_block = 0
    if (commands > 0) {
      dir = sprintf("block_%04d", block_line)
      system("mkdir -p " dir)
      printf "%s", body > (dir "/block.sh")
      close(dir "/block.sh")
      blocks++
    }
    next
  }
  in_block {
    line = $0
    if (cmd == "") {
      sub(/^[ \t]+/, "", line)
      cmd_line = NR
    }
    cmd = cmd line
    if (cmd ~ /\\$/) { sub(/\\$/, "", cmd); next }
    flush_command()
  }
  END {
    printf "README: %d blocks with anonpath commands, %d commands skipped\n",
           blocks, skipped
    exit bad
  }
' "$readme"

found=0
for dir in block_*; do
  found=1
  line=$((10#${dir#block_}))
  echo "== README block at line $line"
  if ! (cd "$dir" && bash -ex block.sh > block.log 2>&1); then
    tail -n 40 "$dir/block.log"
    echo "README block at line $line failed"
    exit 1
  fi
  grep '^skipped README line' "$dir/block.log" || true
done
test "$found" -eq 1
