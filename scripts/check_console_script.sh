#!/usr/bin/env bash
# Checks of the installed `gaussrisk` console script, run from the repository root:
# the golden analyze csv, json and table, analyze json of all banks, and validate
# csv, json and table must match tests/golden/ byte for byte; two constant-column
# panels at any magnitude must exit 0 and 2 with only the CLI's own stderr lines;
# the rho = -1, subnormal, huge and sd-ratio-overflow models must exit 0 (the
# subnormal one with its expected csv row), and an invalid tiny model and a
# missing input must exit 2; analyze and validate csv of a panel whose labels
# need quoting must exit 0 with every row at the header's width, and --banks
# must select such labels quoted as a csv row; the tables of a panel with a
# label holding a line break must keep each bank on one line; the analyze
# tables of a panel with wide and combining labels, of a panel with Devanagari
# and Thai labels (nonspacing marks of combining class 0) and of the subnormal
# model must have one display width on every line above the notes; a panel
# with a 銀行 label piped in under PYTHONIOENCODING=latin-1 must be read as
# UTF-8, its JSON holding "\u9280\u884c", and its csv under
# PYTHONIOENCODING=ascii must exit 2 with one error line and nothing on
# stdout; the validate table of a 1e-200 model, whose abs_error is past its
# column's width, must start status at the header's column on every statistic
# row; validate of the 1e300 and 1e16 location models must exit 0 or 1 (a FAIL
# there is ROADMAP item 3's) with nothing on stderr; --banks with --model must
# exit 2; a --samples count numpy cannot size must exit 2 with one error line.
# Any Python or numpy warning in a run is an error.
# The tests call cli.main in process; this runs the entry point pip installed.
set -euo pipefail
export PYTHONWARNINGS=error

golden=tests/golden
gaussrisk analyze --input $golden/panel.csv --banks GAMMA,FLAT,ALPHA --format csv \
  | diff - $golden/analyze.csv
gaussrisk analyze --input $golden/panel.csv --banks GAMMA,FLAT,ALPHA --format json \
  | diff - $golden/analyze.json
gaussrisk analyze --input $golden/panel.csv --banks GAMMA,FLAT,ALPHA --format table \
  | diff - $golden/analyze.txt
gaussrisk analyze --input $golden/panel.csv --format json \
  | diff - $golden/analyze_all.json
gaussrisk validate --input $golden/panel.csv --samples 200000 --seed 0 --alpha 0.95 \
  --format csv | diff - $golden/validate.csv
gaussrisk validate --input $golden/panel.csv --samples 200000 --seed 0 --alpha 0.95 \
  --format json | diff - $golden/validate.json
gaussrisk validate --input $golden/panel.csv --samples 200000 --seed 0 --alpha 0.95 \
  --format table | diff - $golden/validate.txt

# constant columns at any magnitude: exit 0 and 2, and only the CLI's own stderr lines
status=0
err=$({ echo A,B,C; for r in 1 2 3 4 5 6 7; do echo "$r,$((r * r % 7)),1e200"; done; } \
  | gaussrisk analyze --input - --format csv 2>&1 >/dev/null) || status=$?
test "$status" -eq 0
test -z "$(printf '%s\n' "$err" | grep -vE "^(warning: bank '.+' skipped: |error: )")"
status=0
err=$({ echo A,B,C,D,E; for v in 1 2 4; do echo "5e307,5e307,5e307,5e307,$v"; done; } \
  | gaussrisk analyze --input - --format csv 2>&1 >/dev/null) || status=$?
test "$status" -eq 2
test -z "$(printf '%s\n' "$err" | grep -vE "^(warning: bank '.+' skipped: |error: )")"

# models at the edges of the double range: exit 0, the subnormal row as expected
gaussrisk analyze --model 0,0,1,1.0000001,-1.00000005 --format json
gaussrisk analyze --format csv \
  --model=0,0,1.814717748474295e-273,1.3023192742846255e-270,-4.861421501191265e-272 \
  | tail -n 1 | diff - <(echo "model,-9.91012657684e-137,-9.91012657684e-137,2.65480967829e-135,0,2.65480967829e-135,3.04152125564e-135,2.55570841252e-135,9.91012657684e-137,9.91012657684e-137,-26.7888574148,-25.7888574148,-0.0387764368121,-1")
gaussrisk analyze --model=0,0,5.02363e-318,5e-324,-3.656e-321
gaussrisk analyze --model=0,0,1e200,1e200,5e199
# sd_s / sd_i overflows: exit 0 with nothing on stderr
for model in 0,0,5e-324,1e300,0 0,0,1e-320,1e300,1e-160; do
  err=$(gaussrisk analyze --model=$model 2>&1 >/dev/null)
  test -z "$err"
done
# an invalid tiny model and a missing input: exit 2
status=0
gaussrisk analyze --model=0,0,1e-200,1e-200,5e-200 || status=$?
test "$status" -eq 2
status=0
gaussrisk analyze --input no-such-file.csv || status=$?
test "$status" -eq 2

# labels that a csv cell must quote: exit 0, and csv reads every row at the header's width
quoted_panel() {
  printf '%s\n' '"A,B",C,"D ""q"""' 0.01,0.02,-0.005 -0.02,0.01,0.015 0.03,-0.01,0.002 \
    0.00,0.02,-0.011 0.015,-0.004,0.007 -0.007,0.013,0.004
}
same_width='import csv, sys; sys.exit({len(row) for row in csv.reader(sys.stdin)} != {int(sys.argv[1])})'
quoted_panel | gaussrisk analyze --input - --format csv | python3 -c "$same_width" 14
quoted_panel | gaussrisk validate --input - --format csv --samples 10000 | python3 -c "$same_width" 9
# --banks is one csv row: a quoted label may hold a comma
lines=$(quoted_panel | gaussrisk analyze --input - --format csv --banks '"A,B",C' | wc -l)
test "$lines" -eq 3

# a label holding a line break: the tables keep every bank on one line
newline_panel() {
  printf '%s\n' '"A' 'B",C,D' 0.01,0.02,-0.005 -0.02,0.01,0.015 0.03,-0.01,0.002 \
    0.00,0.02,-0.011 0.015,-0.004,0.007 -0.007,0.013,0.004
}
lines=$(newline_panel | gaussrisk analyze --input - --format table | wc -l)
test "$lines" -eq 5
headings=$(newline_panel | gaussrisk validate --input - --format table --samples 10000 \
  | grep -c '^== .* (alpha=')
test "$headings" -eq 3

# wide and combining labels, and cells past 12 characters: every table line
# above the notes has one display width (a wide character takes 2 columns, a
# nonspacing or enclosing mark none)
one_width='import sys, unicodedata
def width(line):
    return sum(0 if unicodedata.category(c) in ("Mn", "Me")
               else 1 + (unicodedata.east_asian_width(c) in ("W", "F")) for c in line)
lines = sys.stdin.read().split("\nnote: ")[0].splitlines()
sys.exit(len(lines) < 3 or len({width(line) for line in lines}) != 1)'
printf '%s\n' "銀行,ABCD,e$(printf '\xcc\x81')" 0.01,0.02,-0.005 -0.02,0.01,0.015 0.03,-0.01,0.002 \
    0.00,0.02,-0.011 0.015,-0.004,0.007 -0.007,0.013,0.004 \
  | gaussrisk analyze --input - --format table | python3 -c "$one_width"
printf '%s\n' "बैंक,ABCD,สังคม" 0.01,0.02,-0.005 -0.02,0.01,0.015 0.03,-0.01,0.002 \
    0.00,0.02,-0.011 0.015,-0.004,0.007 -0.007,0.013,0.004 \
  | gaussrisk analyze --input - --format table | python3 -c "$one_width"
gaussrisk analyze --format table \
  --model=0,0,1.814717748474295e-273,1.3023192742846255e-270,-4.861421501191265e-272 \
  | python3 -c "$one_width"

# stdin is read as UTF-8 whatever the locale's encoding; an output that
# stdout's encoding cannot write is an input error: exit 2, and stdout and
# stderr together hold one line, the error line
wide_panel() {
  printf '%s\n' 銀行,B,C 0.01,0.02,-0.005 -0.02,0.01,0.015 0.03,-0.01,0.002 \
    0.00,0.02,-0.011 0.015,-0.004,0.007 -0.007,0.013,0.004
}
out=$(wide_panel | PYTHONIOENCODING=latin-1 gaussrisk analyze --input - --format json)
printf '%s\n' "$out" | grep -qF '"bank": "\u9280\u884c"'
status=0
out=$(wide_panel | PYTHONIOENCODING=ascii gaussrisk analyze --input - --format csv 2>&1) || status=$?
test "$status" -eq 2
test "$(printf '%s\n' "$out" | grep -c '^error: ')" -eq 1
test "$(printf '%s\n' "$out" | wc -l)" -eq 1

# a cell past its column's width widens the column: status starts at the
# header's column on every statistic row of the validate table
status_column='import re, sys
lines = sys.stdin.read().splitlines()
rows = [re.search(r"  (pass|FAIL|skipped \()", line) for line in lines[3:-1]]
column = lines[1].index("  status")
sys.exit(len(rows) != 8 or None in rows or {row.start() for row in rows} != {column})'
gaussrisk validate --model 0,0,1e-200,1e-200,5e-201 --samples 200000 --format table \
  | python3 -c "$status_column"

# locations far from zero: exit 0 or 1, and nothing on stderr (no numpy warning)
for args in "1e300,0,1,1,0 --samples 20000" "1e16,0,1,1,0 --samples 200000"; do
  status=0
  err=$(gaussrisk validate --model $args 2>&1 >/dev/null) || status=$?
  test "$status" -le 1
  test -z "$err"
done

# --banks selects panel banks: with --model it is an input error, one error line
status=0
err=$(gaussrisk analyze --model 0,0,1,1,0.5 --banks X 2>&1 >/dev/null) || status=$?
test "$status" -eq 2
test "$(printf '%s\n' "$err" | grep -c '^error: ')" -eq 1
test "$(printf '%s\n' "$err" | wc -l)" -eq 1

# a --samples count that numpy cannot size is an input error: exit 2, and stdout
# and stderr together hold one line, the error line
status=0
out=$(gaussrisk validate --model 0,0,1,1,0.5 --samples 4611686018427387904 2>&1) || status=$?
test "$status" -eq 2
test "$(printf '%s\n' "$out" | grep -c '^error: ')" -eq 1
test "$(printf '%s\n' "$out" | wc -l)" -eq 1
