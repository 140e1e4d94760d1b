#!/bin/sh
# Checks the bench CLI contract for bad input (harness/bench_flags.h): a
# bench given an unknown argument or an output path it cannot open must
# fail before running anything — exit status 2, a "usage:" line on
# stderr, nothing on stdout.
#
# Usage:
#
#     expect_usage_error.sh <bench-binary> [bench args...]
#
# Exit 0 when the bench failed exactly that way, 1 otherwise.
set -u

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

"$@" > "$tmpdir/out" 2> "$tmpdir/err"
status=$?

fail=0
if [ "$status" -ne 2 ]; then
  echo "FAIL: exit status $status, want 2" >&2
  fail=1
fi
if ! grep -q '^usage: ' "$tmpdir/err"; then
  echo "FAIL: no usage line on stderr" >&2
  fail=1
fi
if [ -s "$tmpdir/out" ]; then
  echo "FAIL: the bench ran (stdout is not empty)" >&2
  fail=1
fi
cat "$tmpdir/err"
exit "$fail"
