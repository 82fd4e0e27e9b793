#!/usr/bin/env bash
# The single entry to the repo benchmark: build it (release, offline), then
# hand the arguments to the binary.
#
#   benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#   benchmark/run.sh run | trace | selfcheck [--seed n] [--seconds s] [--repeats r]
#   benchmark/run.sh compare <a.json> <b.json>
#   benchmark/run.sh spec        # rewrite BENCHMARK.json from the metric tables
#   benchmark/run.sh             # spec, then run
#
# Everything is read and written inside the checkout; the build lands in
# $CARGO_TARGET_DIR when set, else in benchmark/target.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

target="${CARGO_TARGET_DIR:-benchmark/target}"
# Cargo's progress goes to stderr, so stdout carries only the benchmark's.
CARGO_TARGET_DIR="$target" cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
bin="$target/release/mortar-benchmark"

case "${1:-}" in
"" | spec)
    # Through a temporary file: a failing binary must not truncate the spec.
    "$bin" spec >BENCHMARK.json.tmp
    mv BENCHMARK.json.tmp BENCHMARK.json
    if [ -z "${1:-}" ]; then exec "$bin" run; fi
    ;;
*)
    exec "$bin" "$@"
    ;;
esac
