#!/usr/bin/env bash
# Pre-merge gate (see ROADMAP.md). Everything runs offline: the
# workspace has zero external dependencies and must keep building with
# an empty cargo registry and no network.
#
#   scripts/verify.sh          # full gate: build + tests + unit tests + clippy + lint + perfbench + determinism
#   scripts/verify.sh --fast   # skip the determinism run

set -euo pipefail
cd "$(dirname "$0")/.."

export CARGO_NET_OFFLINE=true

echo "==> tier-1: cargo build --release"
cargo build --release

echo "==> tier-1: cargo test -q"
cargo test -q

# Root `cargo test` runs only the root package, so every workspace
# crate's own suite runs here: among them the pool and scheduler order
# tests, the world's parallel-commit model test, the harness
# determinism tests, and svr-core's per-figure shape checks with
# `every_paper_finding_holds` (most of this step's time).
echo "==> unit: workspace crate tests"
cargo test -q -p svr-netsim -p svr-transport -p svr-avatar -p svr-client -p svr-geo \
    -p svr-world -p svr-harness -p svr-lint -p svr-platform -p svr-core

echo "==> lint: cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Static determinism invariants (DESIGN §10): wall-clock, unordered
# hash iteration, float ordering, stray IO, thread spawns, unsafe.
# Fails on any un-waived diagnostic; the JSON report is committed as
# LINT.json so a change in waivers shows up in the diff.
echo "==> lint: svr-lint (static determinism invariants)"
cargo run --release -q -p svr-lint -- --json LINT.json

# The benchmark package builds against the workspace crates by path but
# is not a workspace member, so the steps above never compile it.
echo "==> bench: perfbench self-tests"
CARGO_TARGET_DIR=.bench_build cargo test -q --manifest-path perfbench/Cargo.toml

if [[ "${1:-}" == "--fast" ]]; then
    echo "==> skipping determinism check (--fast)"
    echo "verify.sh: OK"
    exit 0
fi

echo "==> determinism: reproduce_all --jobs 1 vs --jobs 8"
cargo build --release --example reproduce_all
out_dir="$(mktemp -d)"
trap 'rm -rf "$out_dir"' EXIT
# A cheap selection that still exercises multi-unit merging (fig3 has
# two per-platform units); the heavyweight sweeps would cost minutes
# each and share the exact same merge path. `world` additionally runs
# its own internal shard pool per unit, so this gate also proves the
# cross-shard ordered commit is byte-identical across worker counts.
# `ablations` (about 5 s at --jobs 1) covers the remote-render session
# path and the peer-to-peer UDP mesh, whose datagrams carry shared
# packet bodies.
selection="table1,table2,vantage,fig3,world,ablations"
./target/release/examples/reproduce_all --only "$selection" --jobs 1 --out "$out_dir/j1" > /dev/null
./target/release/examples/reproduce_all --only "$selection" --jobs 8 --out "$out_dir/j8" > /dev/null
scripts/compare_artifact_dirs.sh "$out_dir/j1" "$out_dir/j8"
echo "    artifacts byte-identical across worker counts"

echo "verify.sh: OK"
