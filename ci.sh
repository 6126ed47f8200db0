#!/usr/bin/env bash
# Repository CI gate: build, tests, lints, formatting.
#
#   ./ci.sh          # run everything
#   ./ci.sh analyze  # run only the static-analysis gate
#
# Workspace tests run in release because the embedding acceptance tests
# (crates/bench/tests/cache_portfolio.rs) route on a C16 Chimera graph
# and are painfully slow unoptimized.
set -euo pipefail
cd "$(dirname "$0")"

analyze_gate() {
    echo "==> analyze gate (static analyzer over the paper workloads)"
    # QAC_ANALYZE_STRICT=1 turns any Error-severity diagnostic into a
    # nonzero exit; the JSON export is then schema-checked.
    QAC_ANALYZE_STRICT=1 cargo run --release -q -p qac-bench --bin experiments -- \
        analyze --diagnostics-json "$tmpdir/diagnostics.json" > /dev/null
    cargo run --release -q -p qac-bench --bin telemetry_check -- \
        --diagnostics "$tmpdir/diagnostics.json"
}

if [ "${1:-}" = "analyze" ]; then
    tmpdir="$(mktemp -d)"
    trap 'rm -rf "$tmpdir"' EXIT
    analyze_gate
    echo "==> ci.sh analyze: passed"
    exit 0
fi

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q (tier-1, root package)"
cargo test -q

echo "==> cargo test -q --workspace --release"
cargo test -q --workspace --release

# perfbench is a cargo workspace of its own, so the step above skips it.
echo "==> perfbench tests (determinism + BENCHMARK.json metric table)"
cargo test --release -q --manifest-path perfbench/Cargo.toml

echo "==> differential suite (bp/pa/tabu vs exact enumeration)"
cargo test --release -q -p qac-solvers --test differential

echo "==> sampler suites (packed and hardware-model goldens + lane equivalence + partial-word masking)"
cargo test --release -q -p qac-solvers --test golden_samples --test golden_dwave --test multispin_lanes

echo "==> batch engine suite (determinism at 1/2/8 workers)"
cargo test --release -q -p qac-engine

echo "==> telemetry export smoke (JSONL + Prometheus round-trip)"
tmpdir="$(mktemp -d)"
trap 'rm -rf "$tmpdir"' EXIT
cargo run --release -q -p qac-bench --bin experiments -- \
    figure2_3 --trace-json "$tmpdir/trace.jsonl" --metrics "$tmpdir/metrics.prom" \
    > /dev/null
# The routing-work budgets are machine-independent: the counters are
# deterministic per seed (figure2_3 currently routes with ~308k heap
# pops / ~1.8M edge relaxations / ~24k weight updates / 11 rip-up
# iterations), so they only trip when the router algorithmically
# regresses, never because the CI host is slow. Budgets carry headroom
# over today's values (~30% on weight updates). The same run takes one
# C16 hardware-model read: 64 sweeps over the 47 qubits the embedding
# uses, 3,008 spin updates today (~30% headroom). An anneal over the
# whole 2,048-qubit fabric would count 131,072, so this budget checks
# that the anneal stays on the embedded qubits.
cargo run --release -q -p qac-bench --bin telemetry_check -- \
    "$tmpdir/trace.jsonl" "$tmpdir/metrics.prom" \
    --counter-max qac_embed_heap_pops_total=800000 \
    --counter-max qac_embed_edge_relaxations_total=4700000 \
    --counter-max qac_embed_weight_updates_total=31000 \
    --counter-max qac_route_iterations_total=20 \
    --counter-max 'qac_sampler_spin_updates_total{sampler="dwave"}=3900'

echo "==> topology gate (per-fabric routing-work budgets)"
cargo run --release -q -p qac-bench --bin experiments -- \
    topology --trace-json "$tmpdir/topology.jsonl" --metrics "$tmpdir/topology.prom" \
    > /dev/null
# Same machine-independence argument as above, but per hardware family:
# the topology experiment routes the §6 workloads on every supported
# fabric with a fixed seed, and each fabric gets its own labeled
# counter budget (~30% headroom over today's values), so a router
# regression is pinned to the topology that regressed. Zephyr is the
# one fabric no golden chain fixture pins (golden_router covers Chimera,
# Pegasus and the king's graph byte-for-byte), so its figure2 chain
# sizes get budgets here too: 24 physical qubits, max chain 2 today.
cargo run --release -q -p qac-bench --bin telemetry_check -- \
    "$tmpdir/topology.jsonl" "$tmpdir/topology.prom" \
    --counter-max 'qac_embed_heap_pops_total{topology="chimera"}=9000000' \
    --counter-max 'qac_embed_edge_relaxations_total{topology="chimera"}=53000000' \
    --counter-max 'qac_route_iterations_total{topology="chimera"}=90' \
    --counter-max 'qac_embed_weight_updates_total{topology="chimera"}=150000' \
    --counter-max 'qac_embed_heap_pops_total{topology="pegasus"}=1500000' \
    --counter-max 'qac_embed_edge_relaxations_total{topology="pegasus"}=19000000' \
    --counter-max 'qac_route_iterations_total{topology="pegasus"}=45' \
    --counter-max 'qac_embed_weight_updates_total{topology="pegasus"}=39000' \
    --counter-max 'qac_embed_heap_pops_total{topology="zephyr"}=1300000' \
    --counter-max 'qac_embed_edge_relaxations_total{topology="zephyr"}=22000000' \
    --counter-max 'qac_route_iterations_total{topology="zephyr"}=40' \
    --counter-max 'qac_embed_weight_updates_total{topology="zephyr"}=29000' \
    --counter-max 'qac_embed_physical_qubits{workload="figure2",topology="zephyr"}=31' \
    --counter-max 'qac_embed_max_chain{workload="figure2",topology="zephyr"}=3' \
    --counter-max 'qac_embed_heap_pops_total{topology="king"}=98000000' \
    --counter-max 'qac_embed_edge_relaxations_total{topology="king"}=750000000' \
    --counter-max 'qac_route_iterations_total{topology="king"}=850' \
    --counter-max 'qac_embed_weight_updates_total{topology="king"}=1200000'

echo "==> samplers gate (deterministic sweep/flip work budgets)"
cargo run --release -q -p qac-bench --bin experiments -- \
    samplers --trace-json "$tmpdir/samplers.jsonl" --metrics "$tmpdir/samplers.prom" \
    > /dev/null
# The sweep and flip counters are deterministic per seed (the packed
# kernel's RNG streams are fixed by the seed families), so these are
# machine-independent budgets like the routing-work ones above: they
# trip only when a sampler algorithmically does more work — an extra
# descent pass, a widened schedule, a resampling loop that stops
# converging — never because the runner was slow. ~30% headroom over
# today's values (bp/pa flips ~4.4M; pa resamples 93 times).
cargo run --release -q -p qac-bench --bin telemetry_check -- \
    "$tmpdir/samplers.jsonl" "$tmpdir/samplers.prom" \
    --counter-max 'qac_sampler_sweeps_total{sampler="bp"}=4000' \
    --counter-max 'qac_sampler_sweeps_total{sampler="pa"}=4000' \
    --counter-max 'qac_sampler_flips_total{sampler="bp"}=5800000' \
    --counter-max 'qac_sampler_flips_total{sampler="pa"}=5800000' \
    --counter-max 'qac_sampler_pa_resamples_total=130'

echo "==> incremental gate (edit turnaround: skip/splice budgets + speedup floor)"
cargo run --release -q -p qac-bench --bin experiments -- \
    edit --trace-json "$tmpdir/edit.jsonl" --metrics "$tmpdir/edit.prom" \
    > /dev/null
# The stage-miss and re-embed counters are deterministic: the canonical
# one-gate edit re-runs exactly 9 stages per workload (18 across the
# two, certify included) and repairs both embeddings without falling back to full
# routing, so the budgets are exact — one extra miss means a stage lost
# its incrementality, and `--gauge-min qac_incr_reembed_partial_total=2`
# (floors read any Prometheus sample) asserts neither re-embed took the
# full-routing fallback. The speedup floors are same-machine ratios:
# warm-vs-cold on the same host, so they hold on slow CI runners too
# (today: ~260x on australia, ~22x on figure2). The certify counters
# pin the warm re-proof work exactly: the dirty cones across the two
# edits re-prove 39 obligations while fingerprint reuse splices exactly
# 9 — a skipped count above 9 means certification is reusing proofs for
# cones the edit dirtied, and below 9 (the --gauge-min floor) means the
# splice path stopped reusing clean-cone proofs.
cargo run --release -q -p qac-bench --bin telemetry_check -- \
    "$tmpdir/edit.jsonl" "$tmpdir/edit.prom" \
    --counter-max qac_incr_stage_miss_total=18 \
    --counter-max qac_incr_reembed_partial_total=2 \
    --gauge-min qac_incr_reembed_partial_total=2 \
    --counter-max qac_cert_obligations_skipped_total=9 \
    --gauge-min qac_cert_obligations_skipped_total=9 \
    --gauge-min 'qac_bench_incremental_speedup{workload="australia"}=10' \
    --gauge-min 'qac_bench_incremental_speedup{workload="figure2"}=2'

echo "==> incremental gate self-test (an impossible floor must fail)"
if cargo run --release -q -p qac-bench --bin telemetry_check -- \
    "$tmpdir/edit.jsonl" "$tmpdir/edit.prom" \
    --gauge-min 'qac_bench_incremental_speedup{workload="australia"}=100000' \
    > /dev/null 2>&1; then
    echo "ERROR: the file-mode gauge floor passed at an impossible threshold" >&2
    exit 1
fi

analyze_gate

echo "==> certify gate (translation validation over the workload corpus)"
# Every workload certificate must verify, and the obligation counters
# are deterministic (the corpus and its cone widths are fixed): today
# the corpus proves 48 obligations and skips 0, so the budgets carry
# headroom for new obligations but trip if certification silently stops
# proving (proved collapses toward 0 is caught by --gauge-min on the
# Prometheus sample) or starts skipping wide/undriven cones.
cargo run --release -q -p qac-bench --bin experiments -- \
    certify --cert-dir "$tmpdir/certs" \
    --trace-json "$tmpdir/certify.jsonl" --metrics "$tmpdir/certify.prom" \
    > /dev/null
cargo run --release -q -p qac-bench --bin telemetry_check -- \
    "$tmpdir/certify.jsonl" "$tmpdir/certify.prom" \
    --counter-max qac_cert_obligations_proved_total=65 \
    --counter-max qac_cert_obligations_skipped_total=5 \
    --gauge-min qac_cert_obligations_proved_total=48
# The written certificates must re-verify offline through the
# independent checker (the `certify verify` CLI path users run).
cargo run --release -q -p qac-bench --bin experiments -- \
    certify verify "$tmpdir"/certs/*.cert.json

echo "==> unsafe-code gate (#![forbid(unsafe_code)] in every crate but qac-alloc)"
# qac-alloc is the one crate allowed unsafe (the counting allocator's
# GlobalAlloc impl); everything else must forbid it at the crate root so a
# stray unsafe block is a compile error, not a review nit.
for lib in crates/*/src/lib.rs; do
    crate_dir="$(basename "$(dirname "$(dirname "$lib")")")"
    [ "$crate_dir" = "alloc" ] && continue
    if ! grep -q '#!\[forbid(unsafe_code)\]' "$lib"; then
        echo "ERROR: $lib is missing #![forbid(unsafe_code)]" >&2
        exit 1
    fi
done

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc --workspace --no-deps (rustdoc warnings are errors)"
# A doc link left pointing at a deleted or private item fails here. The
# offline vendor/ stand-ins are excluded: their docs are not ours (the
# proptest stand-in has an ambiguous `vec` link).
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q \
    --exclude criterion --exclude crossbeam --exclude parking_lot --exclude proptest \
    --exclude rand --exclude serde --exclude serde_derive

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> ci.sh: all checks passed"
