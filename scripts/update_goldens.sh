#!/usr/bin/env bash
# Regenerate the pinned golden table in tests/test_golden.cpp.
#
#   scripts/update_goldens.sh [build_dir]
#
# Builds test_golden, reruns every pinned table with MAPG_UPDATE_GOLDENS=1,
# and splices the freshly printed rows between the marker comments:
#   GOLDEN-BEGIN/GOLDEN-END            result table (Golden.PinnedResultTable)
#   TAB9-GOLDEN-BEGIN/TAB9-GOLDEN-END  DRAM standard x page-policy grid
#                                      (Golden.Tab9GridFrozen)
# Run this ONLY after an intentional model change, then regenerate
# EXPERIMENTS.md and re-run the full suite.
set -euo pipefail
cd "$(dirname "$0")/.."

BUILD="${1:-build}"
SRC=tests/test_golden.cpp

if [ ! -d "$BUILD" ]; then
  cmake -B "$BUILD" -S .
fi
cmake --build "$BUILD" --target test_golden -j

ROWS="$(mktemp)"
trap 'rm -f "$ROWS"' EXIT

# splice TEST_FILTER ROW_REGEX BEGIN_MARKER END_MARKER
# Reruns one regeneration-mode test, keeps only its source-literal rows,
# and swaps them in between the marker comments (anchored on the markers
# themselves, not prose mentioning them).
splice() {
  local filter="$1" row_re="$2" begin="$3" end="$4"
  MAPG_UPDATE_GOLDENS=1 "$BUILD"/tests/test_golden \
      --gtest_filter="$filter" |
    grep -E "$row_re" > "$ROWS"

  local n
  n="$(wc -l < "$ROWS")"
  if [ "$n" -eq 0 ]; then
    echo "error: $filter regeneration produced no rows" >&2
    exit 1
  fi

  awk -v rows="$ROWS" -v begin="$begin" -v end="$end" '
    $0 ~ ("^[[:space:]]*// " begin) {
      print; while ((getline line < rows) > 0) print line; skipping = 1; next }
    $0 ~ ("^[[:space:]]*// " end) { skipping = 0 }
    !skipping { print }
  ' "$SRC" > "$SRC.tmp"
  mv "$SRC.tmp" "$SRC"
  echo "spliced $n rows ($filter) into $SRC"
}

# Result-table and tab9 rows look like '      {"...'.
splice 'Golden.PinnedResultTable' '^[[:space:]]*\{"' \
       'GOLDEN-BEGIN' 'GOLDEN-END'
splice 'Golden.Tab9GridFrozen' '^[[:space:]]*\{"' \
       'TAB9-GOLDEN-BEGIN' 'TAB9-GOLDEN-END'

echo "rebuild and re-run the suite:"
echo "  cmake --build $BUILD --target test_golden -j && $BUILD/tests/test_golden"
