#!/usr/bin/env bash
# Checks the installed `ncrewrite` console script: run it from an empty
# working directory, with `ncrewrite` on PATH.
#   bash tests/console_script.sh
set -euo pipefail

ncrewrite --help
# both constructions compile to a Gröbner basis: no ambiguity in either rule file
for construction in nilpotency zerodivisor; do
  ncrewrite gen-presentation --construction "$construction" --out "$construction.rules"
  out=$(ncrewrite overlaps --presentation "$construction.rules")
  echo "$out"
  test "$out" = "0 ambiguities"
done
# bad input is refused with exit code 2: a01 is not a spelling of a1
code=0
ncrewrite normalize --presentation zerodivisor.rules --word "a01" || code=$?
test "$code" = 2
# the cancellation probe of the installed package: exit 0, no violation
code=0
out=$(ncrewrite cancellation-probe --samples 200 --max-len 12 --seed 3) || code=$?
echo "$out"
test "$code" = 0
echo "$out" | grep -qx "violations: 0"
