#!/usr/bin/env bash
# Asserts that an hcore_cli invocation fails with exit code 1 and prints
# exactly the expected message on stderr.
#
#   expect_cli_error.sh <hcore_cli> <expected stderr> <command> [flags...]
set -u

if [ "$#" -lt 3 ]; then
  echo "usage: $0 <hcore_cli> <expected stderr> <command> [flags...]" >&2
  exit 2
fi

cli="$1"
expected="$2"
shift 2

stderr="$("$cli" "$@" 2>&1 >/dev/null </dev/null)"
status=$?
if [ "$status" -ne 1 ]; then
  echo "expected exit code 1, got $status: hcore_cli $*" >&2
  exit 1
fi
if [ "$stderr" != "$expected" ]; then
  echo "expected stderr '$expected', got '$stderr': hcore_cli $*" >&2
  exit 1
fi
echo "ok: hcore_cli $* -> $expected"
