#!/usr/bin/env bash
# check_docrefs.sh — doc-rot guard: every DESIGN.md section referenced from a
# Go comment or from README.md must exist as a `## <Section>` heading, every
# `*.md` file they name must exist in the repository, and every
# `examples/<dir>`, `internal/<pkg>` and `cmd/<name>` path that README.md,
# DESIGN.md or .claude/skills/verify/SKILL.md name must exist, so pointers
# into the docs and from them cannot rot silently when sections, files or
# packages are renamed or deleted.
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

# Package and program directories named in the docs, e.g. `./cmd/roxbench`
# or `internal/plan`; a path inside another tree (`benchmark/internal/x`) is
# not one of them.
dirs="$(cat README.md DESIGN.md .claude/skills/verify/SKILL.md \
  | { grep -oE '(^|[^A-Za-z0-9_./-])(\./)?(examples|internal|cmd)/[A-Za-z0-9_-]+' || true; } \
  | sed -E 's@^[^a-z.]?(\./)?@@' \
  | sort -u )"
ndirs=0
while IFS= read -r d; do
  [ -z "$d" ] && continue
  ndirs=$((ndirs + 1))
  if [ ! -d "$d" ]; then
    echo "stale doc reference: no directory $d in the repository"
    fail=1
  fi
done <<< "$dirs"

if [ "$fail" = 0 ]; then
  echo "ok: all $count referenced DESIGN.md sections, $nfiles named *.md files and $ndirs named directories exist"
fi
exit $fail
