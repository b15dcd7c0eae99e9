#!/usr/bin/env bash
# Pre-merge gate (see ROADMAP.md). Everything runs offline: the
# workspace has zero external dependencies and must keep building with
# an empty cargo registry and no network.
#
#   scripts/verify.sh          # full gate: build + tests + unit tests + clippy + lint + examples + perfbench (self-tests, clippy, pinned digests) + pinned artifacts
#   scripts/verify.sh --fast   # skip the artifact run

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

# clippy only compiles the examples; run the two kept beside
# reproduce_all (which the artifact pin runs), so either one exiting
# non-zero fails the gate.
echo "==> examples: quickstart and autodriver run"
cargo build --release -q --example quickstart --example autodriver
for example in quickstart autodriver; do
    "./target/release/examples/$example" > /dev/null
done

# The benchmark package builds against the workspace crates by path but
# is not a workspace member, so the steps above never compile it.
echo "==> bench: perfbench self-tests"
CARGO_TARGET_DIR=.bench_build cargo test -q --manifest-path perfbench/Cargo.toml

# `cargo clippy --workspace` skips perfbench for the same reason.
echo "==> bench: cargo clippy --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings"
CARGO_TARGET_DIR=.bench_build cargo clippy --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings

# Each listed workload's digest covers the simulated statistics of its
# set-up, so it is the same on every host and for any --seconds; a
# change that keeps simulated behaviour keeps every line.
echo "==> bench: perfbench digests match scripts/perfbench_digests.txt"
while read -r workload want; do
    [[ -z "$workload" || "$workload" == \#* ]] && continue
    if ! out="$(bash perfbench/run.sh --workload "$workload" --seed 1 --seconds 0.5 --trace 0)"; then
        printf '%s\n' "$out"
        echo "perfbench $workload failed"
        exit 1
    fi
    got="$(awk '$1 == "digest" { $1 = $1; print }' <<< "$out")"
    if [[ "$got" != "$want" ]]; then
        echo "perfbench $workload digest changed:"
        echo "  pinned: $want"
        echo "  got:    $got"
        exit 1
    fi
done < scripts/perfbench_digests.txt

if [[ "${1:-}" == "--fast" ]]; then
    echo "==> skipping the artifact pin (--fast)"
    echo "verify.sh: OK"
    exit 0
fi

# The whole quick registry at --jobs 8 must write exactly the artifacts
# pinned from a --jobs 1 run, so this one run checks both that no
# artifact changed and that no experiment depends on the worker count.
# `BENCH_*.json` carries wall-clock rates and is never pinned. diff
# prints the pinned and the actual line of every artifact that differs,
# is missing or is not pinned.
echo "==> artifacts: quick registry at --jobs 8 matches scripts/artifact_digests.txt"
cargo build --release --example reproduce_all
out_dir="$(mktemp -d)"
trap 'rm -rf "$out_dir"' EXIT
./target/release/examples/reproduce_all --jobs 8 --out "$out_dir" > /dev/null
got="$(cd "$out_dir" && find . -maxdepth 1 -name '*.json' ! -name 'BENCH_*' -printf '%f\n' | LC_ALL=C sort | xargs -r sha256sum)"
if ! diff -U0 --label pinned --label got <(grep -v '^#' scripts/artifact_digests.txt) <(printf '%s\n' "$got"); then
    echo "quick artifacts differ from scripts/artifact_digests.txt"
    exit 1
fi
echo "    every quick artifact matches its pin"

echo "verify.sh: OK"
