#!/usr/bin/env bash
# Asserts that a command-line program (hcore_cli, a bench binary) fails
# with exit code 1 and prints exactly the expected message on stderr.
#
#   expect_cli_error.sh <program> <expected stderr> <args...>
set -u

if [ "$#" -lt 3 ]; then
  echo "usage: $0 <program> <expected stderr> <args...>" >&2
  exit 2
fi

cli="$1"
expected="$2"
shift 2
name="$(basename "$cli")"

stderr="$("$cli" "$@" 2>&1 >/dev/null </dev/null)"
status=$?
if [ "$status" -ne 1 ]; then
  echo "expected exit code 1, got $status: $name $*" >&2
  exit 1
fi
if [ "$stderr" != "$expected" ]; then
  echo "expected stderr '$expected', got '$stderr': $name $*" >&2
  exit 1
fi
echo "ok: $name $* -> $expected"
