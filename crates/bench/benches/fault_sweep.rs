//! `fault_sweep`: cost of the fault-injection layer on the distributed
//! runtime (experiment E20's bench companion).
//!
//! For each LCP workload the harness times four paths over the same
//! honestly-labeled instance:
//!
//! * `direct` — centralized view assembly (`decoder::run`), the
//!   non-distributed baseline;
//! * `broadcast-clean` — the r-round broadcast simulation with no fault
//!   plan at all (`run_distributed`);
//! * `broadcast-plan-none` — the fault-injecting path with an all-zero
//!   [`FaultPlan`], isolating the injector's bookkeeping overhead;
//! * `broadcast-r15` — a uniform 15% drop/duplicate/corrupt/delay plan,
//!   the degradation harness's middle operating point.
//!
//! A fifth group, `fault-sweep-labelings`, times the sweep-shaped side of
//! the fault pipeline — the fault-free distributed reference scan the
//! degradation harness runs over the adversarial battery to find its
//! false-accept candidates (each item is a full r-round broadcast
//! simulation) — under delta stepping, whose symmetry quotient the fault
//! path inherits.
//!
//! Medians land in `BENCH_faults.json` at the repository root, in the
//! same `benches`/`summary`/`stats` shape as `BENCH_engine.json` and
//! `BENCH_panel.json`: `summary` carries each group's headline ratios
//! (injector overhead, fault cost), `stats` the fault
//! events one 15% run actually fires per workload.
//!
//! ```text
//! cargo bench -p hiding-lcp-bench --bench fault_sweep
//! ```

use criterion::{BenchResult, Criterion};
use hiding_lcp_bench::report::{self, ReportDoc};
use hiding_lcp_bench::throughput_workloads;
use hiding_lcp_certs::revealing::{adversary_alphabet, RevealingDecoder};
use hiding_lcp_core::decoder::run;
use hiding_lcp_core::instance::Instance;
use hiding_lcp_core::network::{
    run_distributed, run_distributed_faulty, FaultPlan, FaultRates, FaultStats,
};
use hiding_lcp_core::verify::{
    Coverage, ExecMode, ItemCtx, PropertyCheck, SweepOutcome, SweepSession, SweepStrategy,
    SymmetrySpec, Universe, UniverseItem,
};
use hiding_lcp_graph::generators;
use std::hint::black_box;

const WORKLOAD_N: usize = 12;
const FAULT_RATE: f64 = 0.15;
const PLAN_SEED: u64 = 20;
/// Cycle size of the adversarial-battery sweep group (3^8 labelings).
const SWEEP_N: usize = 8;

/// Per-workload fault telemetry: what one 15% plan actually fires.
struct WorkloadStats {
    group: String,
    nodes: usize,
    stats: FaultStats,
}

/// The degradation harness's reference pass as a sweep: each labeling is
/// run through the fault-free distributed broadcast, and the rejecting
/// ones — the false-accept candidates — are counted with their orbit
/// multiplicities. The distributed run of an anonymous decoder commutes
/// with port-preserving automorphisms, so the check declares automorphism
/// symmetry (label swaps are left out: the adversary alphabet is not
/// class-symmetric in general).
struct FaultFreeRejectScan<'d> {
    decoder: &'d RevealingDecoder,
}

impl PropertyCheck for FaultFreeRejectScan<'_> {
    type Partial = u64;
    type Verdict = u64;

    fn inspect(&self, item: &UniverseItem<'_>, ctx: &ItemCtx<'_>) -> Option<u64> {
        let li = item.instance.clone().with_labeling(item.labeling.clone());
        let verdicts = run_distributed(self.decoder, &li);
        verdicts
            .iter()
            .any(|v| !v.is_accept())
            .then(|| ctx.multiplicity())
    }

    fn symmetry_class(
        &self,
        _alphabet: &[hiding_lcp_core::label::Certificate],
    ) -> Option<SymmetrySpec> {
        Some(SymmetrySpec {
            automorphisms: true,
            alphabet_classes: None,
        })
    }

    fn reduce(
        &self,
        _universe: &Universe,
        partials: Vec<(usize, u64)>,
        _outcome: &SweepOutcome,
    ) -> u64 {
        partials.iter().map(|&(_, m)| m).sum()
    }
}

/// Every 2-color-adversary labeling of the symmetric `SWEEP_N`-cycle —
/// the universe the degradation harness's false-accept scan walks.
fn sweep_universe() -> Universe {
    let g = generators::cycle(SWEEP_N);
    let ports = hiding_lcp_graph::ports::cycle_symmetric(&g);
    let instance = Instance::new(g, ports, hiding_lcp_graph::IdAssignment::canonical(SWEEP_N))
        .expect("symmetric cycle ports are valid");
    Universe::all_labelings_of(instance, adversary_alphabet(2), Coverage::Sampled)
        .expect("3^8 fits")
}

fn fault_sweep(c: &mut Criterion, telemetry: &mut Vec<WorkloadStats>) {
    let none = FaultPlan::none();
    let faulty = FaultPlan::new(PLAN_SEED, FaultRates::uniform(FAULT_RATE));
    for (name, decoder, li) in throughput_workloads(WORKLOAD_N) {
        // Determinism contract before timing: the injecting path with an
        // empty plan must agree with the plain broadcast verdict-for-verdict.
        let clean = run_distributed(decoder.as_ref(), &li);
        let (via_plan, stats) = run_distributed_faulty(decoder.as_ref(), &li, &none);
        assert_eq!(clean, via_plan, "empty plan changes nothing ({name})");
        assert_eq!(stats.total(), 0, "empty plan fires no faults ({name})");

        let mut g = c.benchmark_group(format!("fault-sweep-{name}"));
        g.sample_size(20);
        g.bench_function("direct", |b| {
            b.iter(|| black_box(run(decoder.as_ref(), black_box(&li))))
        });
        g.bench_function("broadcast-clean", |b| {
            b.iter(|| black_box(run_distributed(decoder.as_ref(), black_box(&li))))
        });
        g.bench_function("broadcast-plan-none", |b| {
            b.iter(|| {
                black_box(run_distributed_faulty(
                    decoder.as_ref(),
                    black_box(&li),
                    &none,
                ))
            })
        });
        g.bench_function("broadcast-r15", |b| {
            b.iter(|| {
                black_box(run_distributed_faulty(
                    decoder.as_ref(),
                    black_box(&li),
                    &faulty,
                ))
            })
        });
        g.finish();

        let (_, fired) = run_distributed_faulty(decoder.as_ref(), &li, &faulty);
        telemetry.push(WorkloadStats {
            group: format!("fault-sweep-{name}"),
            nodes: li.graph().node_count(),
            stats: fired,
        });
    }

    // The sweep-shaped side of the pipeline: the fault-free reference
    // scan over the adversarial battery. The quotiented delta walk's
    // weighted reject count must be exactly the oracle's full walk's —
    // that is the quotient's product-law contract.
    let universe = sweep_universe();
    let decoder = RevealingDecoder::new(2);
    let check = FaultFreeRejectScan { decoder: &decoder };
    let delta = SweepSession::over(&universe)
        .mode(ExecMode::Sequential)
        .run(&check);
    let full = SweepSession::over(&universe)
        .mode(ExecMode::Sequential)
        .strategy(SweepStrategy::DecodeOracle)
        .run(&check);
    assert_eq!(
        delta.verdict, full.verdict,
        "the quotient changes the weighted reject count"
    );
    assert_eq!(
        delta.checked, full.checked,
        "the quotient changes the frontier"
    );

    let mut g = c.benchmark_group("fault-sweep-labelings");
    g.sample_size(10);
    g.bench_function("reject-scan-delta", |b| {
        b.iter(|| {
            black_box(
                SweepSession::over(black_box(&universe))
                    .mode(ExecMode::Sequential)
                    .run(&check),
            )
        })
    });
    g.finish();
}

fn write_json(results: &[BenchResult], stats: &[WorkloadStats]) {
    let median = |name: &str| report::median(results, name);
    let mut doc = ReportDoc::new();
    doc.scalar("workload_n", WORKLOAD_N)
        .scalar("fault_rate", FAULT_RATE)
        .scalar("plan_seed", PLAN_SEED)
        .section("benches", &report::bench_rows(results));

    // Per-group headline ratios, mirroring BENCH_panel.json's summary.
    let mut rows: Vec<String> = Vec::new();
    for ws in stats {
        let g = &ws.group;
        let (Some(clean), Some(none), Some(r15)) = (
            median(&format!("{g}/broadcast-clean")),
            median(&format!("{g}/broadcast-plan-none")),
            median(&format!("{g}/broadcast-r15")),
        ) else {
            continue;
        };
        #[allow(clippy::cast_precision_loss)]
        rows.push(format!(
            "    {{ \"group\": \"{g}\", \"clean_ns\": {clean}, \"plan_none_ns\": {none}, \
             \"r15_ns\": {r15}, \"injector_overhead\": {:.2}, \"fault_cost\": {:.2} }}",
            none as f64 / clean as f64,
            r15 as f64 / clean as f64,
        ));
    }
    if let Some(delta) = median("fault-sweep-labelings/reject-scan-delta") {
        rows.push(format!(
            "    {{ \"group\": \"fault-sweep-labelings\", \"delta_ns\": {delta} }}"
        ));
    }
    doc.section("summary", &rows);

    // Per-group fault telemetry, mirroring BENCH_engine.json's stats.
    let rows: Vec<String> = stats
        .iter()
        .map(|ws| {
            let f = &ws.stats;
            format!(
                "    {{ \"group\": \"{}\", \"nodes\": {}, \"dropped\": {}, \
                 \"duplicated\": {}, \"corrupted\": {}, \"delayed\": {}, \"expired\": {}, \
                 \"suppressed\": {}, \"decode_panics\": {} }}",
                ws.group,
                ws.nodes,
                f.dropped,
                f.duplicated,
                f.corrupted,
                f.delayed,
                f.expired,
                f.suppressed,
                f.decode_panics,
            )
        })
        .collect();
    doc.section("stats", &rows);
    report::write("BENCH_faults.json", &doc.finish());
}

fn main() {
    // Corrupted certificates legitimately panic strict decoders; the
    // faulty runtime catches those panics and counts them as rejections,
    // so silence the default hook's per-panic spam for the whole run.
    std::panic::set_hook(Box::new(|_| {}));
    let mut c = Criterion::new();
    let mut stats = Vec::new();
    fault_sweep(&mut c, &mut stats);
    let _ = std::panic::take_hook();
    write_json(&c.results, &stats);
}
