#!/usr/bin/env bash
# Docs health check, run by CI (docs job) and ctest (docs_check):
#
#   1. every intra-repo markdown link in README.md and docs/*.md
#      resolves to an existing file;
#   2. every --flag printed by `wlcrc_sim --help`,
#      `wlcrc_trace --help`, `wlcrc_fuzz --help`,
#      `wlcrc_serve --help`, `wlcrc_load --help` and
#      `wlcrc_worker --help` is documented in docs/cli.md, and every
#      `--flag` in the first cell of a docs/cli.md table row is
#      printed by one of them (so a removed flag cannot linger);
#   3. every wlcrc_trace subcommand in its usage text (generate,
#      convert, sort, info, verify, ...) has a `### \`<sub>\``
#      section in docs/cli.md;
#   4. README.md's Layout table matches the tree: every src/<dir>/
#      and every tools/<tool>.cc has a row, and every row's path
#      exists (a tools/<tool> row names tools/<tool>.cc).
#
# Usage: scripts/check_docs.sh [BUILD_DIR]   (default: build)
set -u
cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"
status=0

# ------------------------------------------------- 1. link check
for f in README.md docs/*.md; do
  [ -f "$f" ] || { echo "MISSING DOC: $f"; status=1; continue; }
  dir=$(dirname "$f")
  while IFS= read -r target; do
    [ -z "$target" ] && continue
    case "$target" in
      http://*|https://*|mailto:*) continue ;;
    esac
    path="${target%%#*}"
    [ -z "$path" ] && continue # same-page anchor
    if [ ! -e "$dir/$path" ]; then
      echo "BROKEN LINK: $f -> $target"
      status=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$f" | sed -E 's/^\]\(//; s/\)$//')
done

# ------------------------------------- 2. CLI flag coverage
printed=""
for tool in wlcrc_sim wlcrc_trace wlcrc_fuzz wlcrc_serve wlcrc_load wlcrc_worker; do
  bin="$BUILD_DIR/$tool"
  if [ ! -x "$bin" ]; then
    echo "MISSING BINARY: $bin (build the tools first)"
    status=1
    continue
  fi
  flags=$("$bin" --help | grep -oE '(^|[^a-z0-9-])--[a-z0-9-]+' \
            | grep -oE -- '--[a-z0-9-]+' | sort -u)
  printed="$printed$flags"$'\n'
  while IFS= read -r flag; do
    if ! grep -q -- "$flag" docs/cli.md; then
      echo "UNDOCUMENTED FLAG: $tool $flag (in --help but not docs/cli.md)"
      status=1
    fi
  done <<< "$flags"
done
# The first cell of a flag table row: up to the first unescaped '|'.
while IFS= read -r flag; do
  if ! grep -qxF -- "$flag" <<< "$printed"; then
    echo "STALE FLAG ROW: docs/cli.md documents $flag, which no tool's --help prints"
    status=1
  fi
done < <(grep -E '^\| `--' docs/cli.md \
           | sed -E 's/^\| (([^|\\]|\\.)*)\|.*/\1/' \
           | grep -oE -- '--[a-z0-9-]+' | sort -u)

# --------------------------- 3. wlcrc_trace subcommand coverage
trace_bin="$BUILD_DIR/wlcrc_trace"
if [ -x "$trace_bin" ]; then
  while IFS= read -r sub; do
    [ -z "$sub" ] && continue
    if ! grep -q "^### \`$sub\`" docs/cli.md; then
      echo "UNDOCUMENTED SUBCOMMAND: wlcrc_trace $sub (in usage but no \`### $sub\` section in docs/cli.md)"
      status=1
    fi
  done < <("$trace_bin" --help | grep -oE '^  [a-z][a-z-]+ ' \
             | tr -d ' ' | sort -u)
fi

# ------------------------------------- 4. README layout table
layout_rows=$(sed -n '/^## Layout$/,/^## /p' README.md \
                | grep -oE '^\| `[^`]+` \|' | sed -E 's/^\| `//; s/` \|$//')
while IFS= read -r row; do
  [ -z "$row" ] && continue
  if [ ! -e "$row" ] && [ ! -e "$row.cc" ]; then
    echo "STALE LAYOUT ROW: README.md lists $row, which does not exist"
    status=1
  fi
done <<< "$layout_rows"
for dir in src/*/; do
  if ! grep -qxF -- "$dir" <<< "$layout_rows"; then
    echo "MISSING LAYOUT ROW: $dir has no row in README.md's Layout table"
    status=1
  fi
done
for tool in tools/*.cc; do
  if ! grep -qxF -- "${tool%.cc}" <<< "$layout_rows"; then
    echo "MISSING LAYOUT ROW: $tool has no row in README.md's Layout table"
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "docs check: all links resolve, all CLI flags documented," \
       "layout table matches the tree"
fi
exit "$status"
