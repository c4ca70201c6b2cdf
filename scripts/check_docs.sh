#!/usr/bin/env bash
# Docs link checker: every relative link target in the repo's markdown
# must exist. Catches the rot mode docs actually suffer — a file moves or
# a section is renamed and README keeps pointing at the old path.
#
# Checks [text](target) links in all tracked *.md files, skipping
# absolute URLs (http/https/mailto) and pure #anchors. A target with a
# #fragment is checked for file existence only.
#
# Also checks the markdown files that tracked code and scripts (*.h, *.cc,
# *.cpp, *.sh) name in comments and messages: each such path must exist
# relative to the naming file's directory or the repo root.
#
# Usage: scripts/check_docs.sh

set -euo pipefail

cd "$(dirname "$0")/.."

fail=0
while IFS= read -r md; do
  dir="$(dirname "$md")"
  # Pull out every inline link target. Grep emits `(target)` captures one
  # per line; strip the parens, then filter.
  while IFS= read -r target; do
    [[ -z "$target" ]] && continue
    case "$target" in
      http://*|https://*|mailto:*) continue ;;  # external
      \#*) continue ;;                          # same-file anchor
    esac
    path="${target%%#*}"
    [[ -z "$path" ]] && continue
    if [[ ! -e "$dir/$path" && ! -e "$path" ]]; then
      echo "BROKEN: $md -> $target" >&2
      fail=1
    fi
  done < <(grep -o '\[[^]]*\]([^)]*)' "$md" 2>/dev/null \
             | sed 's/^\[[^]]*\](//; s/)$//' \
             | sed 's/ ".*"$//')
done < <(git ls-files '*.md')

while IFS= read -r src; do
  dir="$(dirname "$src")"
  while IFS= read -r ref; do
    if [[ ! -e "$dir/$ref" && ! -e "$ref" ]]; then
      echo "BROKEN: $src -> $ref" >&2
      fail=1
    fi
  done < <(grep -oE '[A-Za-z0-9_][A-Za-z0-9_./-]*\.md\b' "$src" | sort -u)
done < <(git ls-files '*.h' '*.cc' '*.cpp' '*.sh')

if [[ "$fail" != 0 ]]; then
  echo "FAIL: broken markdown links or references (see above)" >&2
  exit 1
fi
echo "OK: all markdown links and code references resolve"
