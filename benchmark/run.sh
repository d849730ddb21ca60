#!/usr/bin/env bash
# The one command: build the benchmark package and run it.
#
#   benchmark/run.sh [--seed N] [--quick]                  every workload, drills, ledger
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   one workload, one JSON line
#   benchmark/run.sh selfcheck [--seed N]                  A/A agreement within the bounds
#
# Run from the repository root (the binary writes to benchmark/out).
set -euo pipefail

here="$(dirname "${BASH_SOURCE[0]}")"

# Reps remove their own WAL directories; this catches an interrupted run.
trap 'rm -rf "$here"/out/wal-*' EXIT

command=run
if [[ "${1:-}" == selfcheck ]]; then
    command=selfcheck
    shift
fi

cargo run --release --offline --quiet --manifest-path "$here/Cargo.toml" -- \
    "$command" --out "$here/out" "$@"
