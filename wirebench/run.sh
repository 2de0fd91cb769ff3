#!/usr/bin/env bash
# Builds tpnc and the load generator from source, then runs one
# benchmark run. Run from the repository root:
#
#   bash wirebench/run.sh --workload cold-stdio --seed 1 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); run
# records and traces go to wirebench/out.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path wirebench/Cargo.toml >&2
cargo build --release --offline --quiet -p tpn-cli --bin tpnc >&2
WIREBENCH_COMMIT="$(git rev-parse HEAD 2>/dev/null || echo none)"
WIREBENCH_SOURCE="$(find crates shims -type f \( -name '*.rs' -o -name Cargo.toml \) -print0 \
  | sort -z | xargs -0 cat Cargo.toml Cargo.lock | sha256sum | cut -c1-16)"
WIREBENCH_RUSTC="$(rustc --version)"
export WIREBENCH_COMMIT WIREBENCH_SOURCE WIREBENCH_RUSTC
exec "$CARGO_TARGET_DIR/release/wirebench" --tpnc "$CARGO_TARGET_DIR/release/tpnc" "$@"
