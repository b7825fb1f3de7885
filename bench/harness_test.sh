#!/bin/sh
# Smoke test of the bench/main.exe harness: a run writes BENCH.jsonl with
# well-formed six-field rows (here the store section's), and an unknown
# section name fails the run with one line before any section starts.
#
#   sh bench/harness_test.sh path/to/main.exe
set -eu
case $1 in */*) main=$1 ;; *) main=./$1 ;; esac

"$main" examples store > /dev/null
row='^\{"section":"[a-z-]+","metric":"[A-Za-z0-9_.]+","value":(-?[0-9][0-9.eE+-]*|null),"unit":"[^"]+","host":"[^"]*","nproc":[0-9]+\}$'
if grep -Ev "$row" BENCH.jsonl >&2; then
  echo "harness_test: malformed BENCH.jsonl rows above" >&2
  exit 1
fi
for m in cold_s warm_s warm_speedup hit_rate; do
  grep -q "^{\"section\":\"store\",\"metric\":\"$m\"," BENCH.jsonl || {
    echo "harness_test: no store $m row in BENCH.jsonl" >&2
    exit 1
  }
done

if "$main" examples no-such-section > unknown.out 2> unknown.err; then
  echo "harness_test: an unknown section did not fail the run" >&2
  exit 1
fi
if [ -s unknown.out ] || [ "$(wc -l < unknown.err)" -ne 1 ]; then
  echo "harness_test: an unknown section must fail with one line, before any section runs" >&2
  exit 1
fi
