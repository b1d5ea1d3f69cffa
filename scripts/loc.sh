#!/usr/bin/env bash
# Prints the repository's line counts, from the repository root:
#
#   scripts/loc.sh
#
# One line per crate under crates/: its non-test lines, i.e. each file under
# the crate's src/ counted up to (not including) its first `#[cfg(test)]`
# line, or whole when it has none. Then the total line count of every Rust
# file under crates/, src/, tests/ and examples/, tests included.
set -euo pipefail
cd "$(dirname "$0")/.."

for crate in crates/*/; do
  name=$(basename "$crate")
  lines=$(find "$crate/src" -name '*.rs' -print0 | sort -z |
    xargs -0 awk 'FNR == 1 { on = 1 } /#\[cfg\(test\)\]/ { on = 0 } on { n++ } END { print n + 0 }')
  printf '%-10s %6d\n' "$name" "$lines"
done
total=$(find crates src tests examples -name '*.rs' -print0 | xargs -0 cat | wc -l)
printf '%-10s %6d\n' total "$total"
