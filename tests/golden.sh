#!/usr/bin/env bash
# The golden checks of the command line, run from the source tree by the
# interpreter named `python` on PATH (the package needs only the standard
# library): the modules `lplattice run` starts with, the verify report at
# the default tol and at tol 0, every golden scenario's report and its
# replay, every golden scenario at tol 0, and the exact splits at tol 0.
# Usage: bash tests/golden.sh
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH=src

lplattice() {
  python -m lplattice "$@"
}

echo "start-up imports"
# `lplattice run` starts without dataclasses and the modules it loads
python -c 'import sys, lplattice.cli
heavy = sorted({"dataclasses", "inspect", "ast", "dis", "tokenize"} & set(sys.modules))
sys.exit(f"import lplattice.cli loads {heavy}" if heavy else None)'

echo "verification suites"
lplattice verify --seed 0 --trials 60 | cmp - tests/data/verify_report.txt

echo "verification suites at tol 0"
# one suite FAILs at tol 0 (exit 1); its output is pinned
tol0=$(mktemp)
trap 'rm -f "$tol0"' EXIT
status=0
lplattice verify --seed 0 --trials 60 --tol 0 > "$tol0" || status=$?
test "$status" -eq 1
cmp "$tol0" tests/data/verify_report_tol0.txt

echo "golden reports"
for scenario in tests/data/*_scenario.json; do
  lplattice run "$scenario" | cmp - "${scenario%_scenario.json}_report.json"
done

echo "golden reports replay themselves"
for report in tests/data/*_report.json; do
  lplattice run "$report" | cmp - "$report"
done

echo "golden scenarios at tol 0"
for scenario in tests/data/*_scenario.json; do
  lplattice run --tol 0 "$scenario" > /dev/null
done

echo "exact splits at tol 0"
lplattice run --tol 0 tests/data/exact_split_scenario.json | grep -v '^  "tol": ' \
  | cmp - <(grep -v '^  "tol": ' tests/data/exact_split_report.json)

echo "golden checks ok"
