#!/usr/bin/env bash
# Checks the installed `ncrewrite` console script: run it from an empty
# working directory, with `ncrewrite` on PATH.
#   bash /path/to/ncrewrite/tests/console_script.sh
set -euo pipefail
# the machine files this script reads sit next to it
machines="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)/machines"

ncrewrite --help
# both constructions compile to a Gröbner basis: no ambiguity in either rule file
for construction in nilpotency zerodivisor; do
  ncrewrite gen-presentation --construction "$construction" --out "$construction.rules"
  out=$(ncrewrite overlaps --presentation "$construction.rules")
  echo "$out"
  test "$out" = "0 ambiguities"
done
# a normal form through the installed package: exit 0 and exactly these two lines
out=$(ncrewrite normalize --presentation nilpotency.rules --word "t R Q0 P0 R")
echo "$out"
test "$out" = "$(printf 'normal form: 1 * R Q4 P0 a1 R t\nsteps: 2')"
# bad input is refused with exit code 2: a01 is not a spelling of a1
code=0
ncrewrite normalize --presentation zerodivisor.rules --word "a01" || code=$?
test "$code" = 2
# and so is a rule from the empty word; its file is removed again
printf 'alphabet: t a0 R\norder: deglex\nrule: eps -> R\n' > empty-lhs.rules
code=0
err=$(ncrewrite overlaps --presentation empty-lhs.rules 2>&1) || code=$?
rm empty-lhs.rules
echo "$err"
test "$code" = 2
test "$err" = "error: rule lhs must be nonempty"
# and so is a rule letter outside the alphabet, named with its rule; the file is removed again
printf 'alphabet: t a0 R\norder: deglex\nrule: t a0 -> zz\n' > bad-letter.rules
code=0
err=$(ncrewrite overlaps --presentation bad-letter.rules 2>&1) || code=$?
rm bad-letter.rules
echo "$err"
test "$code" = 2
test "$err" = "error: letter 'zz' outside alphabet in rule 0: t a0 -> zz"
# machine commands on the README configuration, which is removed again
printf 'left: 3\nstate: 2\ncell: 3\nright:\n' > config.txt
# it halts after one step: exactly at a budget of 1, still running at 0
out=$(ncrewrite tm-run --config config.txt --budget 1)
echo "$out"
test "$(echo "$out" | head -n 1)" = "halted after 1 steps"
out=$(ncrewrite tm-run --config config.txt --budget 0)
echo "$out"
test "$(echo "$out" | head -n 1)" = "still running after 0 steps"
out=$(ncrewrite lockstep --config config.txt --steps 5 --construction zerodivisor)
echo "$out"
test "$(echo "$out" | tail -n 1)" = "2 steps matched"
out=$(ncrewrite zerodivisor --config config.txt --nmax 5)
echo "$out"
test "$out" = "zero divisor: t^1 annihilates L a3 Q2 P3 R from the left"
rm config.txt
# a run that walks off the right end of the tape reads fresh cells of color 0
printf 'left: 1\nstate: 2\ncell: 0\nright: 1 2\n' > walk.txt
out=$(ncrewrite tm-run --config walk.txt --budget 3)
echo "$out"
rm walk.txt
for line in "still running after 3 steps" "left: 1 2 1 0" "cell: 0"; do
  echo "$out" | grep -qx "$line"
done
# Antihydra (tests/machines/antihydra.tm, the table its map test checks) from
# the blank tape: no power of t up to 20000 annihilates it under either
# construction, exit code 1; the configuration file is removed again
printf 'left:\nstate: 0\ncell: 0\nright:\n' > blank.txt
code=0
out=$(ncrewrite annihilate --tm "$machines/antihydra.tm" --config blank.txt --nmax 20000) || code=$?
echo "$out"
zcode=0
zout=$(ncrewrite zerodivisor --tm "$machines/antihydra.tm" --config blank.txt --nmax 20000) || zcode=$?
echo "$zout"
rm blank.txt
test "$code" = 1
test "$out" = "left annihilation by t^N: unknown up to 20000"
test "$zcode" = 1
test "$zout" = "zero divisor: unknown up to 20000"
# a reader that closes the pipe after one line cuts a long run short: exit 141
# (128 + SIGPIPE) and nothing on stderr; the files are removed again
printf 'left:\nstate: 0\ncell: 0\nright:\n' > cut.txt
set +e
ncrewrite lockstep --tm "$machines/antihydra.tm" --config cut.txt --steps 3000 --construction nilpotency \
  2> cut.err | head -n 1 > cut.out
codes="${PIPESTATUS[*]}"
set -e
out=$(cat cut.out)
err=$(cat cut.err)
rm cut.txt cut.out cut.err
echo "$out"
test "$codes" = "141 0"
test "$out" = "step 0: R Q0 P0 R [ok]"
test -z "$err"
# the cancellation probe of the installed package: exit 0, no violation, on
# words of up to 4 letters, which cut the structured draws short of a
# configuration word, and on words of up to 12
for args in "--max-len 4 --seed 5" "--max-len 12 --seed 3"; do
  code=0
  out=$(ncrewrite cancellation-probe --samples 200 $args) || code=$?
  echo "$out"
  test "$code" = 0
  echo "$out" | grep -qx "violations: 0"
done
