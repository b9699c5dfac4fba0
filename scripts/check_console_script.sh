#!/usr/bin/env bash
# Checks of the installed `gaussrisk` console script, run from the repository root:
# the golden analyze csv, json and table, analyze json of all banks, and validate
# csv, json and table must match tests/golden/ byte for byte; two constant-column
# panels at any magnitude must exit 0 and 2 with only the CLI's own stderr lines.
# The tests call cli.main in process; this runs the entry point pip installed.
set -euo pipefail

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
