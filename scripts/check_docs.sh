#!/usr/bin/env bash
# check_docs.sh — the CI docs gate.
#
# Enforces four documentation invariants:
#   1. every package (internal/*, cmd/*, examples/*, the facade) has a
#      package doc comment (go list -f '{{.Doc}}');
#   2. every relative markdown link in README.md and docs/*.md
#      resolves to an existing file;
#   3. every flag registered by a cmd/ binary is documented in
#      docs/EXPERIMENTS.md (the CLI reference stays in sync with the
#      actual flag set);
#   4. every `experiments.<Name>` that README.md or docs/*.md cites
#      resolves with `go doc repro/internal/experiments <Name>`, so the
#      prose cannot keep naming a deleted or renamed grid API.
set -euo pipefail
cd "$(dirname "$0")/.."

fail=0

# 1. Package doc comments.
missing=$(go list -f '{{if not .Doc}}{{.ImportPath}}{{end}}' ./... | grep -v '^$' || true)
if [ -n "$missing" ]; then
  echo "packages missing a package doc comment:" >&2
  echo "$missing" >&2
  fail=1
fi

# 2. Relative markdown links resolve.
for f in README.md docs/*.md; do
  dir=$(dirname "$f")
  links=$(grep -oE '\]\([^)]+\)' "$f" | sed -e 's/^](//' -e 's/)$//' || true)
  while read -r target; do
    [ -z "$target" ] && continue
    case "$target" in
      http://* | https://* | '#'*) continue ;;
    esac
    path="${target%%#*}"
    [ -z "$path" ] && continue
    if [ ! -e "$dir/$path" ]; then
      echo "$f: broken relative link: $target" >&2
      fail=1
    fi
  done <<<"$links"
done

# 3. CLI flags are documented. Matches both value forms
# (flag.String("name", ...)) and pointer forms
# (flag.StringVar(&x, "name", ...)), any flag-name charset.
for main in cmd/*/main.go; do
  flags=$(grep -oE 'flag\.[A-Z][A-Za-z0-9]*\((&[A-Za-z0-9_.]+, *)?"[^"]+"' "$main" |
    sed -E 's/.*"([^"]+)"$/\1/' | sort -u || true)
  for fl in $flags; do
    if ! grep -q -- "\`-$fl\`" docs/EXPERIMENTS.md; then
      echo "flag -$fl of $main is not documented in docs/EXPERIMENTS.md" >&2
      fail=1
    fi
  done
done

# 4. Cited experiments API exists.
names=$(grep -ohE 'experiments\.[A-Z][A-Za-z0-9_]*' README.md docs/*.md |
  sed 's/^experiments\.//' | sort -u || true)
for name in $names; do
  if ! go doc repro/internal/experiments "$name" >/dev/null 2>&1; then
    echo "docs cite experiments.$name, which go doc repro/internal/experiments cannot resolve" >&2
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "docs check failed" >&2
  exit 1
fi
echo "docs check OK"
