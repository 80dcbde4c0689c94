#!/usr/bin/env bash
# Dead-export scan: lists every `val` declared in lib/**/*.mli that no other
# file under lib/ or bin/ names as `Module.name` (a value inside a nested
# `module X : sig ... end` is looked up as `X.name`), then compares that
# list with tools/dead_exports.allow.  The allowlist holds one
# `Module.name  reason` line per export that is kept on purpose (a test
# hook, a reference codec, a value reached under another name); blank lines
# and lines starting with `#` are ignored.
#
# Exits 1 when the scan finds an export the allowlist does not name, and
# also when an allowlist entry is no longer reported (the export was
# deleted or gained a caller), so the list cannot go stale.
#
# Usage: bash tools/dead_exports.sh   (from any directory)
set -euo pipefail
cd "$(dirname "$0")/.."

allow=tools/dead_exports.allow
found=$(mktemp)
listed=$(mktemp)
trap 'rm -f "$found" "$listed"' EXIT

for mli in $(find lib -name '*.mli' | sort); do
  base=$(basename "$mli" .mli)
  top="$(printf '%s' "${base:0:1}" | tr '[:lower:]' '[:upper:]')${base:1}"
  # One "Qualifier name" pair per declared value; nested signatures are
  # `module X : sig` ... `end` at column 0.
  awk -v top="$top" '
    /^module [A-Z][A-Za-z0-9_]* : sig/ { nested = $2; next }
    /^end/ { nested = ""; next }
    match($0, /^[ \t]*val [a-z_][A-Za-z0-9_'"'"']*/) {
      name = substr($0, RSTART, RLENGTH)
      sub(/^[ \t]*val /, "", name)
      print (nested == "" ? top : nested), name
    }' "$mli" | sort -u | while read -r qual name; do
    if ! grep -rqwF --include='*.ml' --include='*.mli' \
        --exclude="$base.ml" --exclude="$base.mli" \
        -e "$qual.$name" lib bin; then
      echo "$top.$([ "$qual" = "$top" ] || printf '%s.' "$qual")$name"
    fi
  done
done | sort -u >"$found"

awk '!/^[ \t]*(#|$)/ { print $1 }' "$allow" | sort -u >"$listed"

status=0
unlisted=$(comm -23 "$found" "$listed")
stale=$(comm -13 "$found" "$listed")
if [ -n "$unlisted" ]; then
  echo "dead exports: nothing in lib/ or bin/ names these; delete them, or"
  echo "list each in $allow with the reason it stays:"
  printf '  %s\n' $unlisted
  status=1
fi
if [ -n "$stale" ]; then
  echo "stale entries in $allow (no longer reported by the scan):"
  printf '  %s\n' $stale
  status=1
fi
[ "$status" -eq 0 ] && echo "dead exports: $(wc -l <"$listed") allowlisted, none unlisted"
exit "$status"
