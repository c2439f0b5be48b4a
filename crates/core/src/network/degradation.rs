//! How gracefully does a certification scheme degrade under
//! communication faults?
//!
//! Strong soundness (paper, Section 2.3) is exactly a degradation
//! guarantee: *whatever* subset of nodes ends up accepting, that subset
//! must induce a yes-instance. The fault-free test suites verify the
//! guarantee over adversarial certificates; this harness measures it
//! under adversarial *channels*. For one decoder and one honestly
//! labeled yes-instance it sweeps a uniform fault rate and reports, per
//! rate:
//!
//! * **availability** — how many nodes reject the honest labeling once
//!   messages drop, arrive late, or carry corrupted certificates
//!   (completeness erosion: faults cost liveness);
//! * **strong soundness under faults** — whether the surviving accepting
//!   set still induces a yes-instance (the paper's guarantee, now
//!   measured on a mangled execution);
//! * **false accepts** — trials where an adversarial labeling that the
//!   fault-free verifier rejects is unanimously accepted because the
//!   faults masked every rejecting view.
//!
//! Every trial derives its [`FaultPlan`] seed from the sweep seed, the
//! rate index and the trial index, so the whole report is a pure
//! function of its arguments — the regression tests assert two runs are
//! byte-identical.

use super::faults::{splitmix64, FaultPlan, FaultRates, FaultStats};
use super::run_distributed_faulty;
use crate::decoder::Decoder;
use crate::instance::LabeledInstance;
use crate::label::Labeling;
use crate::language::KCol;
use crate::verify::{
    Coverage, DynPropertyCheck, ItemCtx, PropertyCheck, PropertyTag, SweepOutcome, SweepSession,
    Universe, UniverseItem,
};
use crate::view::IdMode;

/// One point of the sweep: everything measured at a single fault rate.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationPoint {
    /// The uniform per-message fault rate (drop = duplicate = corrupt =
    /// delay).
    pub rate: f64,
    /// Honest-labeling trials run at this rate.
    pub trials: usize,
    /// Mean number of rejecting nodes per honest trial (0 at rate 0 by
    /// completeness).
    pub avg_rejecting: f64,
    /// Honest trials whose accepting set induced a graph **outside**
    /// `G(L)` — violations of strong soundness under faults.
    pub strong_violations: usize,
    /// Adversarial trials (labelings rejected by the fault-free
    /// verifier) that the faulty execution unanimously accepted.
    pub false_accepts: usize,
    /// Adversarial trials run at this rate.
    pub adversarial_trials: usize,
    /// Fault events that fired, summed over every trial at this rate.
    pub stats: FaultStats,
}

/// A full sweep for one decoder on one instance.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradationReport {
    /// The decoder's name.
    pub decoder: String,
    /// Nodes in the instance.
    pub nodes: usize,
    /// The sweep seed.
    pub seed: u64,
    /// One point per requested rate, in request order.
    pub points: Vec<DegradationPoint>,
}

impl DegradationReport {
    /// Total strong-soundness violations across all rates.
    pub fn total_strong_violations(&self) -> usize {
        self.points.iter().map(|p| p.strong_violations).sum()
    }
}

/// The per-trial plan seed: a pure function of the sweep seed, the rate
/// index and the trial index.
fn trial_seed(seed: u64, rate_idx: usize, trial: usize, salt: u64) -> u64 {
    #[cfg(conformance_mutants)]
    let salt = if crate::mutants::active("degradation_salt_swap") {
        match salt {
            H_SALT => A_SALT,
            A_SALT => H_SALT,
            other => other,
        }
    } else {
        salt
    };
    splitmix64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (rate_idx as u64) << 32
            ^ (trial as u64) << 8
            ^ salt,
    )
}

/// Sweeps `rates` over `(decoder, honest)` with `trials` fault plans per
/// rate, measuring availability, strong soundness under faults and — for
/// each labeling in `adversarial` that the fault-free verifier rejects —
/// fault-masked false accepts.
///
/// `honest` should be a yes-instance the decoder accepts everywhere in
/// the fault-free run (the completeness fixture); `adversarial` are
/// corrupted labelings of the *same* instance, e.g. the structured
/// battery of `hiding-lcp-certs::adversary`. Labelings the decoder
/// already accepts fault-free are skipped (they carry no false-accept
/// signal).
pub fn degradation_sweep<D: Decoder + ?Sized>(
    decoder: &D,
    language: &KCol,
    honest: &LabeledInstance,
    adversarial: &[Labeling],
    rates: &[f64],
    trials: usize,
    seed: u64,
) -> DegradationReport {
    let points = degradation_sweep_slice(
        decoder,
        language,
        honest,
        adversarial,
        rates,
        trials,
        seed,
        0..rates.len(),
    );
    DegradationReport {
        decoder: decoder.name(),
        nodes: honest.graph().node_count(),
        seed,
        points,
    }
}

/// One honest trial's measurements: availability + strong soundness.
#[derive(Debug, Clone)]
struct HonestTrial {
    rejecting: usize,
    strong_violation: bool,
    stats: FaultStats,
}

/// The honest side of a rate's trials, aggregated.
#[derive(Debug, Clone)]
struct HonestAggregate {
    rejecting_total: usize,
    strong_violations: usize,
    stats: FaultStats,
}

/// The honest-trial audit as a panel member: universe item `t` *is* trial
/// `t` — the honest labeling run under the fault plan seeded from the
/// trial index — so one panel enumeration drives both trial kinds.
struct HonestTrialProbe<'a, D: ?Sized> {
    decoder: &'a D,
    language: &'a KCol,
    seed: u64,
    rate_idx: usize,
    rate: f64,
}

impl<D: Decoder + ?Sized> PropertyCheck for HonestTrialProbe<'_, D> {
    type Partial = HonestTrial;
    type Verdict = HonestAggregate;

    fn view_configs(&self) -> Vec<(usize, IdMode)> {
        // Trials run the distributed faulty execution, not skeleton views.
        Vec::new()
    }

    fn inspect(&self, item: &UniverseItem<'_>, _ctx: &ItemCtx<'_>) -> Option<HonestTrial> {
        let li = LabeledInstance::new(item.instance.clone(), item.labeling.clone());
        let plan = FaultPlan::new(
            trial_seed(self.seed, self.rate_idx, item.index, H_SALT),
            FaultRates::uniform(self.rate),
        );
        let (verdicts, stats) = run_distributed_faulty(self.decoder, &li, &plan);
        let accepting: Vec<usize> = verdicts
            .iter()
            .enumerate()
            .filter_map(|(v, verdict)| verdict.is_accept().then_some(v))
            .collect();
        let (induced, _) = li.graph().induced(&accepting);
        Some(HonestTrial {
            rejecting: li.graph().node_count() - accepting.len(),
            strong_violation: !self.language.is_yes_graph(&induced),
            stats,
        })
    }

    fn reduce(
        &self,
        _universe: &Universe,
        partials: Vec<(usize, HonestTrial)>,
        _outcome: &SweepOutcome,
    ) -> HonestAggregate {
        let mut agg = HonestAggregate {
            rejecting_total: 0,
            strong_violations: 0,
            stats: FaultStats::default(),
        };
        for (_, trial) in partials {
            agg.rejecting_total += trial.rejecting;
            agg.strong_violations += usize::from(trial.strong_violation);
            agg.stats = sum_stats(agg.stats, trial.stats);
        }
        agg
    }
}

/// One adversarial trial's measurements.
#[derive(Debug, Clone)]
struct AdversarialTrial {
    false_accept: bool,
    stats: FaultStats,
}

/// The adversarial side of a rate's trials, aggregated.
#[derive(Debug, Clone)]
struct AdversarialAggregate {
    adversarial_trials: usize,
    false_accepts: usize,
    stats: FaultStats,
}

/// The false-accept audit as the panel's second member: it shares the
/// honest member's enumeration but ignores the item's labeling, running
/// trial `t` on the `t`-th (cyclically) fault-free-rejected adversarial
/// labeling instead.
struct FalseAcceptProbe<'a, D: ?Sized> {
    decoder: &'a D,
    rejected: &'a [&'a Labeling],
    seed: u64,
    rate_idx: usize,
    rate: f64,
}

impl<D: Decoder + ?Sized> PropertyCheck for FalseAcceptProbe<'_, D> {
    type Partial = AdversarialTrial;
    type Verdict = AdversarialAggregate;

    fn view_configs(&self) -> Vec<(usize, IdMode)> {
        Vec::new()
    }

    fn inspect(&self, item: &UniverseItem<'_>, _ctx: &ItemCtx<'_>) -> Option<AdversarialTrial> {
        let labeling = self.rejected[item.index % self.rejected.len()];
        let li = LabeledInstance::new(item.instance.clone(), labeling.clone());
        let plan = FaultPlan::new(
            trial_seed(self.seed, self.rate_idx, item.index, A_SALT),
            FaultRates::uniform(self.rate),
        );
        let (verdicts, stats) = run_distributed_faulty(self.decoder, &li, &plan);
        Some(AdversarialTrial {
            false_accept: verdicts.iter().all(|v| v.is_accept()),
            stats,
        })
    }

    fn reduce(
        &self,
        _universe: &Universe,
        partials: Vec<(usize, AdversarialTrial)>,
        _outcome: &SweepOutcome,
    ) -> AdversarialAggregate {
        let mut agg = AdversarialAggregate {
            adversarial_trials: 0,
            false_accepts: 0,
            stats: FaultStats::default(),
        };
        for (_, trial) in partials {
            agg.adversarial_trials += 1;
            agg.false_accepts += usize::from(trial.false_accept);
            agg.stats = sum_stats(agg.stats, trial.stats);
        }
        agg
    }
}

/// The points of [`degradation_sweep`] for the rate indices in
/// `rate_range` only — and *exactly* those points: every trial seed is
/// derived from the rate's **global** index in `rates`, so a budgeted
/// caller can split a sweep into arbitrary consecutive (or even
/// re-run, overlapping) slices and concatenate the results into the
/// byte-identical uninterrupted report. Used by the conformance suite to
/// prove resume-chain determinism.
///
/// Each rate's trials run as one fused two-member panel
/// ([`SweepSession::run_panel`]): the honest availability/strong audit
/// and the adversarial false-accept audit walk the trial indices once
/// together. Every per-trial value is a pure function of the sweep
/// arguments, so the report is byte-identical to the pre-panel
/// trial-by-trial loop (fault tallies are sums, which commute).
///
/// # Panics
///
/// Panics if `rate_range` reaches beyond `rates.len()`.
#[allow(clippy::too_many_arguments)]
pub fn degradation_sweep_slice<D: Decoder + ?Sized>(
    decoder: &D,
    language: &KCol,
    honest: &LabeledInstance,
    adversarial: &[Labeling],
    rates: &[f64],
    trials: usize,
    seed: u64,
    rate_range: std::ops::Range<usize>,
) -> Vec<DegradationPoint> {
    // Keep only adversarial labelings the fault-free verifier rejects:
    // a unanimous accept under faults is only *false* if the clean run
    // said no.
    let rejected: Vec<&Labeling> = adversarial
        .iter()
        .filter(|l| {
            let li = honest.instance().clone().with_labeling((*l).clone());
            !crate::decoder::run(decoder, &li)
                .iter()
                .all(|v| v.is_accept())
        })
        .collect();
    rates[rate_range.clone()]
        .iter()
        .enumerate()
        .map(|(offset, &rate)| {
            let ri = rate_range.start + offset;
            // Item t of the universe is trial t: the honest labeling,
            // enumerated once for both panel members.
            let universe = Universe::labelings_of(
                honest.instance().clone(),
                vec![honest.labeling().clone(); trials],
                Coverage::Sampled,
            )
            .expect("materialized trial labelings fit usize");
            let mut members = vec![DynPropertyCheck::new(
                PropertyTag::Custom,
                "degradation-honest",
                HonestTrialProbe {
                    decoder,
                    language,
                    seed,
                    rate_idx: ri,
                    rate,
                },
            )];
            if !rejected.is_empty() {
                members.push(DynPropertyCheck::new(
                    PropertyTag::Custom,
                    "degradation-adversarial",
                    FalseAcceptProbe {
                        decoder,
                        rejected: &rejected,
                        seed,
                        rate_idx: ri,
                        rate,
                    },
                ));
            }
            let report = SweepSession::over(&universe).run_panel(&members);
            let honest_agg = report.members[0]
                .verdict
                .get::<HonestAggregate>()
                .expect("honest member aggregates honest trials")
                .clone();
            let adv_agg = report
                .members
                .get(1)
                .map(|m| {
                    m.verdict
                        .get::<AdversarialAggregate>()
                        .expect("adversarial member aggregates adversarial trials")
                        .clone()
                })
                .unwrap_or(AdversarialAggregate {
                    adversarial_trials: 0,
                    false_accepts: 0,
                    stats: FaultStats::default(),
                });
            DegradationPoint {
                rate,
                trials,
                avg_rejecting: honest_agg.rejecting_total as f64 / trials.max(1) as f64,
                strong_violations: honest_agg.strong_violations,
                false_accepts: adv_agg.false_accepts,
                adversarial_trials: adv_agg.adversarial_trials,
                stats: sum_stats(honest_agg.stats, adv_agg.stats),
            }
        })
        .collect()
}

/// Salt distinguishing honest-trial plans from adversarial-trial plans.
const H_SALT: u64 = 0x68;
const A_SALT: u64 = 0x61;

fn sum_stats(a: FaultStats, b: FaultStats) -> FaultStats {
    FaultStats {
        dropped: a.dropped + b.dropped,
        duplicated: a.duplicated + b.duplicated,
        corrupted: a.corrupted + b.corrupted,
        delayed: a.delayed + b.delayed,
        expired: a.expired + b.expired,
        suppressed: a.suppressed + b.suppressed,
        decode_panics: a.decode_panics + b.decode_panics,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::Verdict;
    use crate::instance::Instance;
    use crate::label::Certificate;
    use crate::view::{IdMode, View};
    use hiding_lcp_graph::generators;

    /// Accepts iff the node's certificate differs from all neighbors'.
    struct LocalDiff;
    impl Decoder for LocalDiff {
        fn name(&self) -> String {
            "local-diff".into()
        }
        fn radius(&self) -> usize {
            1
        }
        fn id_mode(&self) -> IdMode {
            IdMode::Anonymous
        }
        fn decide(&self, view: &View) -> Verdict {
            let mine = view.center_label();
            Verdict::from(
                view.center_arcs()
                    .iter()
                    .all(|arc| view.node(arc.to).label != *mine),
            )
        }
    }

    fn fixture() -> (LabeledInstance, Vec<Labeling>) {
        // C6 with a proper 2-coloring: LocalDiff accepts everywhere.
        let inst = Instance::canonical(generators::cycle(6));
        let labels: Labeling = (0..6)
            .map(|v| Certificate::from_byte((v % 2) as u8))
            .collect();
        let honest = inst.with_labeling(labels);
        // All-zero labeling: rejected at every node, a clean false-accept
        // probe.
        let adversarial = vec![Labeling::uniform(6, Certificate::from_byte(0))];
        (honest, adversarial)
    }

    #[test]
    fn zero_rate_point_is_clean() {
        let (honest, adversarial) = fixture();
        let report = degradation_sweep(
            &LocalDiff,
            &KCol::new(2),
            &honest,
            &adversarial,
            &[0.0],
            4,
            1,
        );
        let p = &report.points[0];
        assert_eq!(p.avg_rejecting, 0.0, "completeness holds fault-free");
        assert_eq!(p.strong_violations, 0);
        assert_eq!(p.false_accepts, 0, "fault-free adversary stays rejected");
        assert_eq!(p.stats, FaultStats::default());
    }

    #[test]
    fn faults_erode_availability_not_strong_soundness() {
        let (honest, adversarial) = fixture();
        let report = degradation_sweep(
            &LocalDiff,
            &KCol::new(2),
            &honest,
            &adversarial,
            &[0.0, 0.3],
            6,
            7,
        );
        let faulty = &report.points[1];
        assert!(
            faulty.stats.total() > 0,
            "a 30% rate must fire some fault events"
        );
        // LocalDiff's accepting set always carries a locally proper
        // 2-coloring, so the induced subgraph is 2-colorable no matter
        // what the channel does: strong soundness survives faults.
        assert_eq!(report.total_strong_violations(), 0);
    }

    #[test]
    fn sweep_is_deterministic() {
        let (honest, adversarial) = fixture();
        let run = || {
            degradation_sweep(
                &LocalDiff,
                &KCol::new(2),
                &honest,
                &adversarial,
                &[0.0, 0.1, 0.4],
                5,
                99,
            )
        };
        assert_eq!(run(), run(), "same seed, byte-identical report");
        // A different seed perturbs at least the fault tallies.
        let other = degradation_sweep(
            &LocalDiff,
            &KCol::new(2),
            &honest,
            &adversarial,
            &[0.0, 0.1, 0.4],
            5,
            100,
        );
        assert_ne!(run().points[2].stats, other.points[2].stats);
    }
}
