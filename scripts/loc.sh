#!/usr/bin/env bash
# Prints the repository's line counts, from the repository root:
#
#   scripts/loc.sh
#
# One line per crate under crates/: its non-test lines, i.e. each file under
# the crate's src/ counted up to (not including) its first top-level
# `#[cfg(test)]` line (the test module), or whole when it has none. Then the
# total line count of every Rust file under crates/, src/, tests/ and
# examples/, tests included. Then the number of `pub fn` names declared under
# crates/*/src that appear as a word in no other Rust file under crates/,
# src/, tests/, examples/ or benchmark/src/: public functions that nothing
# outside their own file calls. Then `config-fields`, the `pub` fields of
# every `pub struct *Config` under crates/*/src (the settable knobs), and
# `env-vars`, the distinct `"MGC_*"` names under crates/*/src and src/ (the
# environment variables the code reads). Last, `heap-pub-types`: the
# `pub struct`, `pub enum` and `pub trait` declarations under
# crates/heap/src, each file counted up to its first top-level
# `#[cfg(test)]` line (the heap crate's public types). These three are
# printed without a bound.
set -euo pipefail
cd "$(dirname "$0")/.."

for crate in crates/*/; do
  name=$(basename "$crate")
  lines=$(find "$crate/src" -name '*.rs' -print0 | sort -z |
    xargs -0 awk 'FNR == 1 { on = 1 } /^#\[cfg\(test\)\]/ { on = 0 } on { n++ } END { print n + 0 }')
  printf '%-18s %6d\n' "$name" "$lines"
done
total=$(find crates src tests examples -name '*.rs' -print0 | xargs -0 cat | wc -l)
printf '%-18s %6d\n' total "$total"

mapfile -t files < <(find crates src tests examples benchmark/src -name '*.rs' | sort)
single=0
while read -r file name; do
  others=$(grep -lw -- "$name" "${files[@]}" | grep -cvx -- "$file" || true)
  if [ "$others" -eq 0 ]; then single=$((single + 1)); fi
done < <(grep -o -r --include='*.rs' 'pub fn [A-Za-z_][A-Za-z0-9_]*' crates/*/src |
  sed 's/:pub fn / /' | sort -u)
printf '%-18s %6d\n' single-file-pub-fn "$single"

fields=$(find crates/*/src -name '*.rs' -print0 | sort -z |
  xargs -0 awk '/^pub struct [A-Za-z]*Config[ <{]/ { on = 1; next }
    on && /^}/ { on = 0 } on && /^    pub [a-z_0-9]+:/ { n++ } END { print n + 0 }')
printf '%-18s %6d\n' config-fields "$fields"
env_vars=$(grep -rhoE --include='*.rs' '"MGC_[A-Z0-9_]+"' crates/*/src src | sort -u | wc -l)
printf '%-18s %6d\n' env-vars "$env_vars"
heap_types=$(find crates/heap/src -name '*.rs' -print0 | sort -z |
  xargs -0 awk 'FNR == 1 { on = 1 } /^#\[cfg\(test\)\]/ { on = 0 }
    on && /^pub (struct|enum|trait) / { n++ } END { print n + 0 }')
printf '%-18s %6d\n' heap-pub-types "$heap_types"
