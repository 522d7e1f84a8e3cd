#!/usr/bin/env sh
# Local CI gate: formatting, lints (rustc + clippy + detlint), build, tests,
# smoke gates. Everything runs offline — the vendored shims under vendor/
# stand in for the registry crates (see README "Offline build").
#
# Tiers:
#   ./ci.sh --fast   formatting, clippy, rustdoc, debug tests — the edit-loop
#                    tier
#   ./ci.sh          the full gate: fast tier + release build/tests and the
#                    benchmark package's tests, then the smoke gates
#                    (detlint --dynamic, obs_smoke, chaos_smoke, mc_smoke,
#                    trace_smoke, mega_smoke, perf_gate) run
#                    *concurrently* against the release binaries, with
#                    per-gate logs replayed in a fixed order once all of
#                    them finish
#
# The 10⁵/10⁶-clients-per-site scale points stay out of CI; run them with
# `cargo run --release -p gdur-bench --bin perf_gate -- --mega`.
#
# Each step reports its wall-clock seconds; SKIP_PERF_GATE=1 skips the
# wall-clock regression gate (it only means something on an idle machine).
set -eu

cd "$(dirname "$0")"

FAST=0
for arg in "$@"; do
    case "$arg" in
        --fast) FAST=1 ;;
        *) echo "ci.sh: unknown argument: $arg (supported: --fast)" >&2; exit 2 ;;
    esac
done

# step <label> <cmd...>: run a step and report its wall-clock duration.
step() {
    _label=$1
    shift
    echo "==> $_label"
    _t0=$(date +%s)
    "$@"
    _t1=$(date +%s)
    echo "    ($_label: $((_t1 - _t0))s)"
}

TOTAL0=$(date +%s)

step "cargo fmt --check" cargo fmt --check

step "cargo clippy --all-targets -- -D warnings" \
    cargo clippy --all-targets -- -D warnings

step "cargo doc (RUSTDOCFLAGS=-D warnings)" \
    env RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

step "cargo test (debug)" cargo test -q

if [ "$FAST" = "1" ]; then
    echo "==> ci --fast: all checks passed ($(($(date +%s) - TOTAL0))s)"
    exit 0
fi

step "cargo build --release" cargo build --release

step "cargo test (release)" cargo test -q --release

# The benchmark package is a workspace of its own built against the
# crates' public API; testing it here keeps core API changes from
# silently breaking it.
step "benchmark package tests" \
    cargo test -q --release --offline --manifest-path benchmark/Cargo.toml

# ---- smoke gates (concurrent) -----------------------------------------
# Every gate below is an independent read-only check over the release
# binaries built above, so they all start at once; each gate's output is
# buffered to its own log and replayed in the fixed order of $GATES when
# the last one finishes, so interleaving never garbles a log and the
# slowest gate bounds the tier's wall clock instead of the sum.
GATE_DIR=$(mktemp -d)
trap 'rm -rf "$GATE_DIR"' EXIT

# spawn_gate <name> <cmd...>: run a gate in the background, capturing its
# combined output, exit code, and wall-clock seconds under $GATE_DIR.
spawn_gate() {
    _name=$1
    shift
    (
        _g0=$(date +%s)
        if "$@" >"$GATE_DIR/$_name.log" 2>&1; then
            _grc=0
        else
            _grc=$?
        fi
        echo "$_grc $(($(date +%s) - _g0))" >"$GATE_DIR/$_name.rc"
    ) &
}

GATES="detlint obs_smoke chaos_smoke mc_smoke trace_smoke mega_smoke"
spawn_gate detlint ./target/release/detlint --dynamic
spawn_gate obs_smoke ./target/release/obs_smoke
spawn_gate chaos_smoke ./target/release/chaos_smoke
spawn_gate mc_smoke ./target/release/mc_smoke
spawn_gate trace_smoke ./target/release/trace_smoke
spawn_gate mega_smoke ./target/release/mega_smoke

# Wall-clock regression gate against the blessed reference in
# BENCH_sim.json. Skippable because wall-clock is only meaningful on an
# otherwise idle machine (virtual-time correctness is covered above) —
# and doubly noisy here, where it shares the host with the other gates.
if [ "${SKIP_PERF_GATE:-0}" = "1" ]; then
    echo "==> perf_gate: skipped (SKIP_PERF_GATE=1)"
else
    GATES="$GATES perf_gate"
    spawn_gate perf_gate ./target/release/perf_gate --check
fi

echo "==> smoke gates (running ${GATES} concurrently) …"
wait

GATE_FAILED=0
for _name in $GATES; do
    read -r _grc _gsecs <"$GATE_DIR/$_name.rc"
    echo "==> $_name"
    sed 's/^/    /' "$GATE_DIR/$_name.log"
    if [ "$_grc" = "0" ]; then
        echo "    ($_name: ${_gsecs}s)"
    else
        echo "    ($_name: ${_gsecs}s, FAILED rc=$_grc)"
        GATE_FAILED=1
    fi
done
if [ "$GATE_FAILED" != "0" ]; then
    echo "==> ci: smoke gate(s) failed"
    exit 1
fi

echo "==> ci: all checks passed ($(($(date +%s) - TOTAL0))s)"
