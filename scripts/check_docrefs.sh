#!/usr/bin/env bash
# check_docrefs.sh — doc-rot guard: every DESIGN.md section referenced from a
# Go comment or from README.md must exist as a `## <Section>` heading, and
# every `*.md` file they name must exist in the repository, so pointers into
# the docs cannot rot silently when sections or files are renamed.
#
# The canonical reference phrasing this enforces is:
#
#     the "<Section name>" section of DESIGN.md
#
# which is tolerated across line wraps and `//` comment markers.
#
#   scripts/check_docrefs.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# Strip Go comment markers, join wrapped lines, then harvest references.
# `grep || true`: zero references is a success, not a pipefail abort.
refs="$( { find . -name '*.go' -not -path './.git/*' -print0 \
             | xargs -0 sed 's@^[[:space:]]*//[[:space:]]*@@'; cat README.md; } \
  | tr '\n' ' ' \
  | { grep -oE '"[^"]+" section of DESIGN\.md' || true; } \
  | sed -E 's/^"([^"]+)" section of DESIGN\.md$/\1/' \
  | sort -u )"

fail=0
count=0
while IFS= read -r sec; do
  [ -z "$sec" ] && continue
  count=$((count + 1))
  if ! grep -qxF "## $sec" DESIGN.md; then
    echo "stale doc reference: DESIGN.md has no section \"$sec\""
    fail=1
  fi
done <<< "$refs"

# Markdown files named in Go comments (text after a `//` that no quote or
# backtick precedes) or in README.md, e.g. DESIGN.md or benchmark/README.md.
# A name resolves from the repository root or as the tail of a path in it.
files="$( { find . -name '*.go' -not -path './.git/*' -print0 \
              | xargs -0 sed -n 's@^[^"`]*//@@p'; cat README.md; } \
  | { grep -oE '[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b' || true; } \
  | sort -u )"
nfiles=0
while IFS= read -r f; do
  [ -z "$f" ] && continue
  nfiles=$((nfiles + 1))
  if [ ! -e "$f" ] && [ -z "$(find . -path "*/$f" -not -path './.git/*' -print -quit)" ]; then
    echo "stale doc reference: no file $f in the repository"
    fail=1
  fi
done <<< "$files"

if [ "$fail" = 0 ]; then
  echo "ok: all $count referenced DESIGN.md sections and $nfiles named *.md files exist"
fi
exit $fail
