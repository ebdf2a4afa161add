#!/usr/bin/env bash
# Build perf_ladder (Release, in build-perf/ at the repo root) and run it.
#
#   bash bench/perf/run.sh --workload NAME [--seed N] [--seconds S]
#                          [--trace 0|1] [--json PATH] [--rounds R]
#   bash bench/perf/run.sh [--seed N] [--seconds S] [--trace 0|1]
#
# With --workload it runs that workload and exits with its status; the
# last line printed is the ladder's JSON result. Without it, every
# workload runs in its own process, so peak_rss_mb is per workload,
# and the script exits non-zero if any check failed.
#
# --trace 1 writes build-perf/traces/<workload>-seed<N>.json and prints
# the per-layer metrics instead of the end-to-end ones; --trace 0 is
# the default untraced run. Build output goes to build-perf/build.log.

set -u

here="$(cd "$(dirname "$0")" && pwd)"
root="$(cd "$here/../.." && pwd)"
build="$root/build-perf"
bin="$build/perf_ladder"

workload=""
seed=2020
trace=0
args=()
while [ $# -gt 0 ]; do
    case "$1" in
        --workload) workload="${2-}"; shift 2 || exit 2 ;;
        --trace) trace="${2-}"; shift 2 || exit 2 ;;
        --seed) seed="${2-}"; args+=("$1" "$seed"); shift 2 || exit 2 ;;
        *) args+=("$1"); shift ;;
    esac
done
case "$trace" in
    0 | 1) ;;
    *) echo "run.sh: --trace takes 0 or 1" >&2; exit 2 ;;
esac

mkdir -p "$build"
log="$build/build.log"
if [ ! -f "$build/build.ninja" ] && [ ! -f "$build/Makefile" ]; then
    generator=()
    if command -v ninja > /dev/null; then generator=(-G Ninja); fi
    if ! cmake -S "$here" -B "$build" "${generator[@]}" > "$log" 2>&1; then
        cat "$log" >&2
        echo "run.sh: configuring the benchmark failed" >&2
        exit 1
    fi
fi
jobs="$(nproc 2> /dev/null || echo 1)"
[ "$jobs" -gt 4 ] && jobs=4
if ! cmake --build "$build" -j "$jobs" >> "$log" 2>&1; then
    tail -n 50 "$log" >&2
    echo "run.sh: building the benchmark failed" >&2
    exit 1
fi

run_one() {
    local extra=()
    if [ "$trace" = 1 ]; then
        mkdir -p "$build/traces"
        extra=(--trace "$build/traces/$1-seed$seed.json")
    fi
    "$bin" --workload "$1" ${args[@]+"${args[@]}"} ${extra[@]+"${extra[@]}"}
}

if [ -n "$workload" ]; then
    run_one "$workload"
    exit $?
fi

status=0
for w in $("$bin" --list); do
    run_one "$w" || status=1
done
exit "$status"
