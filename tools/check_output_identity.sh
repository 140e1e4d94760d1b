#!/bin/sh
# Proves a change behaviour-preserving: runs every bench from two builds
# of this repository (typically the parent commit and the change) and
# compares what each one writes.
#
# Usage:
#
#     check_output_identity.sh <build-a> <build-b> [bench ...]
#
# <build-a>/<build-b> are CMake build directories (binaries under
# bench/); build both the same way (e.g. Release) on the same host. With
# no bench names, every bench_* binary in <build-a>/bench runs. Each
# bench runs once per build, the two concurrently, with --json, --trace,
# --timeline and --logpages. Compared are:
#
#   * stdout and stderr, byte for byte;
#   * --json, after normalizing the host-measured meta fields wall_ms and
#     peak_rss_mib;
#   * --logpages, byte for byte, after the optional sed expression in
#     ZID_LOGPAGES_SED (for a change that alters a log-page field on
#     purpose, e.g. masking the ZNS write_amplification with
#     's/\("device":"zns"[^}]*"write_amplification":\)[-0-9.eE+]*/\1N/g');
#   * --trace and --timeline, by sha256. Each is deleted right after
#     hashing: bench_multidev's trace alone is 2.3 GB.
#
# bench_simcore times host code (google-benchmark plus self-timed
# counters), so its stdout, stderr and --json differ run to run by
# construction; for it every number is masked and only the shape of the
# output is compared.
#
# Extra arguments for every bench: ZID_BENCH_ARGS. Temporary files: TMPDIR
# (needs room for two traces at once). Prints one line per bench; exit
# 0 when everything matches, 1 otherwise.
set -eu

if [ "$#" -lt 2 ]; then
  echo "usage: $0 <build-a> <build-b> [bench ...]" >&2
  exit 2
fi
build_a="$1"
build_b="$2"
shift 2
extra="${ZID_BENCH_ARGS:-}"
lp_sed="${ZID_LOGPAGES_SED:-}"

if [ "$#" -eq 0 ]; then
  for bin in "$build_a"/bench/bench_*; do
    [ -x "$bin" ] && set -- "$@" "$(basename "$bin")"
  done
fi

tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT

normalize_json() {
  sed -e 's/"wall_ms":[0-9.eE+-]*/"wall_ms":0/g' \
      -e 's/"peak_rss_mib":[0-9.eE+-]*/"peak_rss_mib":0/g' "$1" > "$1.norm"
}

# Masks every number, the column padding around them and the binary
# path google-benchmark echoes on stderr.
mask_numbers() {
  sed -e 's/[0-9][0-9.eE+:-]*[A-Za-z/%]*/N/g' -e 's/  */ /g' \
      -e 's/^Running .*/Running/' "$1" > "$1.norm"
}

# run <side> <build> <bench>: one run, leaving <side>.{out,err,json,lp}
# and the sha256 of its trace and timeline in <side>.sums.
run() {
  d="$tmpdir/$1"
  rm -rf "$d"
  mkdir -p "$d"
  status=0
  # shellcheck disable=SC2086  # extra args are intentionally word-split
  "$2/bench/$3" $extra --json="$d/json" --trace="$d/trace" \
    --timeline="$d/timeline" --logpages="$d/lp" \
    > "$d/out" 2> "$d/err" || status=$?
  echo "exit $status" > "$d/sums"
  # A bench that died before opening a file hashes as an error line.
  (cd "$d" && { sha256sum trace timeline 2>&1 || true; } >> sums)
  rm -f "$d/trace" "$d/timeline"
}

fail=0
for bench in "$@"; do
  run a "$build_a" "$bench" &
  pid_a=$!
  run b "$build_b" "$bench" &
  pid_b=$!
  wait "$pid_a"
  wait "$pid_b"
  diffs=""
  for side in a b; do
    d="$tmpdir/$side"
    if [ "$bench" = bench_simcore ]; then
      for f in out err json; do mask_numbers "$d/$f"; done
    else
      normalize_json "$d/json"
      cp "$d/out" "$d/out.norm"
      cp "$d/err" "$d/err.norm"
    fi
    if [ -n "$lp_sed" ]; then
      sed -e "$lp_sed" "$d/lp" > "$d/lp.norm"
    else
      cp "$d/lp" "$d/lp.norm"
    fi
  done
  for f in out.norm err.norm json.norm lp.norm sums; do
    if ! cmp -s "$tmpdir/a/$f" "$tmpdir/b/$f"; then
      diffs="$diffs ${f%.norm}"
    fi
  done
  if [ -z "$diffs" ]; then
    echo "ok   $bench ($(head -n 1 "$tmpdir/a/sums"); trace $(
      awk '$2 == "trace" {print substr($1, 1, 12)}' "$tmpdir/a/sums"))"
  else
    echo "FAIL $bench: differs in$diffs" >&2
    fail=1
  fi
done
exit "$fail"
