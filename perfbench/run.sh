#!/usr/bin/env bash
# Builds what the benchmark runs — the root package's binaries
# (ugd-gateway, ugd-server, ugd-worker, ug-instances) and ugrs-bench —
# into one target directory, then runs ugrs-bench with the arguments
# given. Run from anywhere; it works from the repository root.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f Cargo.toml ] || [ ! -d crates ]; then
    echo "run.sh: $(pwd) is not the ugrs repository: the benchmark measures the repository it sits in" >&2
    exit 1
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --bins
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml
# Temporary files of the daemons and of ug_solve_*_distributed follow
# TMPDIR; keep them under the target directory, inside the checkout.
mkdir -p "$CARGO_TARGET_DIR/release/ugrs-bench-tmp"
TMPDIR="$(cd "$CARGO_TARGET_DIR/release/ugrs-bench-tmp" && pwd)"
export TMPDIR
exec "$CARGO_TARGET_DIR/release/ugrs-bench" "$@"
