#!/usr/bin/env bash
# loc.sh — code lines per Go package: non-test files, without blank lines
# and comment-only lines. This is the figure ROADMAP's design-quality aim
# is judged by ("net line count of internal/wire + internal/core +
# internal/router should go down").
#
#   scripts/loc.sh                 # every package under the repo root
#   scripts/loc.sh internal/wire   # the named package directories only
set -euo pipefail
cd "$(dirname "$0")/.."

if [ $# -eq 0 ]; then
  set -- $(find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -printf '%h\n' | sort -u | sed 's|^\./||')
fi

total=0
for dir in "$@"; do
  n=$(find "$dir" -maxdepth 1 -name '*.go' ! -name '*_test.go' -print0 | xargs -0 -r cat | awk '
    inblock { if (index($0, "*/")) inblock = 0; next }
    /^[[:space:]]*$/ || /^[[:space:]]*\/\// { next }
    /^[[:space:]]*\/\*/ { if (!index($0, "*/")) inblock = 1; next }
    { n++ }
    END { print n + 0 }')
  printf '%7d  %s\n' "$n" "$dir"
  total=$((total + n))
done
printf '%7d  total\n' "$total"
