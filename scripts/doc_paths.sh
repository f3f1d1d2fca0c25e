#!/usr/bin/env bash
# Every crates/…, tests/…, examples/…, scripts/… path and BENCH_*.json
# that README.md, DESIGN.md, docs/CORRECTNESS.md or EXPERIMENTS.md names
# must exist. Only repo-rooted spellings are seen (`meba-x/src/…` is
# not), so write paths the way `ls` would.
set -euo pipefail
cd "$(dirname "$0")/.."
missing=0
for p in $(grep -ohP '(?<![\w/.-])((crates|tests|examples|scripts)/[\w./-]*\w|BENCH_\w+\.json)' \
  README.md DESIGN.md docs/CORRECTNESS.md EXPERIMENTS.md | sort -u); do
  [ -e "$p" ] || { echo "named in the docs but missing: $p"; missing=1; }
done
exit "$missing"
