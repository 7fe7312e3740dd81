#!/usr/bin/env bash
# Builds abbd-serve and the benchmark from source, then runs the
# benchmark; every argument is passed through (see README.md).
#
#   bash diagbench/run.sh --workload regulator_adaptive --seed 1 --seconds 10 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default: target/ at the
# repository root), so cargo's own messages never reach standard output.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
cd "$root"
target="${CARGO_TARGET_DIR:-target}"
case "$target" in
  /*) ;;
  *) target="$root/$target" ;;
esac
export CARGO_TARGET_DIR="$target"
cargo build --quiet --release --offline --bin abbd-serve 1>&2
cargo build --quiet --release --offline --manifest-path "$here/Cargo.toml" 1>&2
exec "$target/release/diagbench" \
  --server "$target/release/abbd-serve" \
  --work-dir "$target/diagbench" \
  "$@"
