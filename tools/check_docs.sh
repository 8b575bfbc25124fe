#!/usr/bin/env sh
# Documentation hygiene gate, run as a ctest case (docs.check).
#
# Five mechanical checks keep the docs honest:
#  1. Every public header in src/core, src/proto, src/obs, src/net and
#     src/repl must open with a file-level doc comment (a '//' line before
#     any code), so a reader landing on any header learns its contract
#     before its includes.
#  2. Every metric name constant defined in src/obs/names.h must appear in
#     docs/RUNBOOK.md -- its metric reference table is required to cover the
#     full registry namespace, and this is what enforces it.
#  3. Every err_code enumerator in src/proto/messages.h must have a table
#     row in docs/WIRE_PROTOCOL.md -- error codes are wire surface, and a
#     code a client can receive but cannot look up is a spec hole.
#  4. Every binary v3 opcode enumerator in src/proto/wire_v3.h must have a
#     table row in docs/WIRE_PROTOCOL.md section 8 -- opcode values are
#     append-only wire surface with the same lookup obligation.
#  5. docs/RUNBOOK.md's knob tables and the configuration structs agree
#     both ways: every field of net::server_config (and, as
#     `limits.<field>`, of net::session_limits) has a row in the front
#     end's table, every top-level field of core::sharded_config has a row
#     in the ingest pipeline's table, and every row names a field that
#     exists -- a deleted knob cannot leave a stale row.
#
# Usage: tools/check_docs.sh [repo-root]   (default: script's parent dir)
set -eu

root="${1:-$(dirname "$0")/..}"
cd "$root"
fail=0

echo "== file-level doc comments (src/core, src/proto, src/obs, src/net, src/repl) =="
for h in src/core/*.h src/proto/*.h src/obs/*.h src/net/*.h src/repl/*.h; do
  # The first non-blank line must start a comment; '#pragma once' or an
  # #include first means the header has no file-level documentation.
  first="$(sed -n '/[^[:space:]]/{p;q;}' "$h")"
  case "$first" in
    //*) ;;
    *)
      echo "FAIL: $h has no file-level doc comment (starts: $first)"
      fail=1
      ;;
  esac
done

echo "== docs/RUNBOOK.md covers every metric name in src/obs/names.h =="
# Pull the string literal out of every name constant. Suffix constants for
# the dynamic per-shard family ("routed"/"drained") are matched as part of
# the documented core.sharded.shard<i>.* pattern rows.
names="$(sed -n 's/.*constexpr char k[A-Za-z]*\[\] *= *"\([^"]*\)".*/\1/p' \
  src/obs/names.h)"
[ -n "$names" ] || { echo "FAIL: no metric names found in src/obs/names.h"; exit 1; }
for n in $names; do
  if ! grep -qF "$n" docs/RUNBOOK.md; then
    echo "FAIL: metric name '$n' (src/obs/names.h) is not documented in docs/RUNBOOK.md"
    fail=1
  fi
done

echo "== docs/WIRE_PROTOCOL.md documents every err_code enumerator =="
# Enumerator identifiers double as the wire tokens (pinned by a round-trip
# static_assert in messages.cpp), so the doc gate checks the identifiers.
codes="$(sed -n '/enum class err_code {/,/^};/p' src/proto/messages.h |
  sed -n 's/^ *\([a-z_][a-z_]*\),.*/\1/p')"
[ -n "$codes" ] || { echo "FAIL: no err_code enumerators found in src/proto/messages.h"; exit 1; }
for c in $codes; do
  if ! grep -qF "| \`$c\` |" docs/WIRE_PROTOCOL.md; then
    echo "FAIL: err_code '$c' (src/proto/messages.h) has no table row in docs/WIRE_PROTOCOL.md"
    fail=1
  fi
done

echo "== docs/WIRE_PROTOCOL.md documents every v3 opcode enumerator =="
ops="$(sed -n '/enum class opcode/,/^};/p' src/proto/wire_v3.h |
  sed -n 's/^ *\([a-z_][a-z_]*\) = [0-9]*,.*/\1/p')"
[ -n "$ops" ] || { echo "FAIL: no opcode enumerators found in src/proto/wire_v3.h"; exit 1; }
for o in $ops; do
  if ! grep -qF "| \`$o\` |" docs/WIRE_PROTOCOL.md; then
    echo "FAIL: v3 opcode '$o' (src/proto/wire_v3.h) has no table row in docs/WIRE_PROTOCOL.md"
    fail=1
  fi
done

echo "== docs/RUNBOOK.md knob tables match net::server_config / session_limits / core::sharded_config =="
# Member names of `struct <name> { ... };` in a header: comments stripped,
# then the last word before the initializer of every line ending in ';'.
fields() {
  awk -v s="$2" '
    $0 ~ "^struct " s " [{]" { inside = 1; next }
    inside && /^};/ { inside = 0 }
    inside {
      sub(/\/\/.*/, "")
      if ($0 !~ /;[ \t]*$/) next
      sub(/[ \t]*(=.*|[{].*)?;[ \t]*$/, "")
      n = split($0, w, /[ \t]+/)
      print w[n]
    }' "$1"
}
# Every backticked name in the first column of the rows of the RUNBOOK
# table under the heading `$1` (up to the next heading of any level).
knob_rows() {
  sed -n "/^### $1/,/^##/p" docs/RUNBOOK.md | grep '^| `' | cut -d'|' -f2 |
    grep -o '`[^`]*`' | tr -d '`'
}
# Two-way check of one table: knob_gate <what> <fields> <rows>.
knob_gate() {
  [ -n "$2" ] || { echo "FAIL: no $1 fields found"; fail=1; return; }
  [ -n "$3" ] || { echo "FAIL: no $1 knob rows found in docs/RUNBOOK.md"; fail=1; return; }
  for k in $2; do
    if ! printf '%s\n' "$3" | grep -qxF "$k"; then
      echo "FAIL: $1 field '$k' has no row in docs/RUNBOOK.md's knob table"
      fail=1
    fi
  done
  for r in $3; do
    if ! printf '%s\n' "$2" | grep -qxF "$r"; then
      echo "FAIL: docs/RUNBOOK.md knob row '$r' names no $1 field"
      fail=1
    fi
  done
}
limit_fields="$(fields src/net/session.h session_limits)"
net_knobs="$(for f in $(fields src/net/server.h server_config); do
  if [ "$f" = limits ]; then
    for l in $limit_fields; do echo "limits.$l"; done
  else
    echo "$f"
  fi
done)"
[ -n "$limit_fields" ] || { echo "FAIL: no session_limits fields found"; fail=1; }
knob_gate "net::server_config / session_limits" "$net_knobs" \
  "$(knob_rows 'Configuration reference (`net::server_config`)')"
knob_gate "core::sharded_config" \
  "$(fields src/core/sharded_coordinator.h sharded_config)" \
  "$(knob_rows 'Ingest pipeline (`core::sharded_config`)')"

if [ "$fail" -ne 0 ]; then
  echo "check_docs: FAILED"
  exit 1
fi
echo "check_docs: OK"
