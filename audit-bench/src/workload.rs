//! The four audit workloads, how one audit of each runs, and the
//! correctness gate every audit's output must pass.

use std::path::{Path, PathBuf};
use std::process::Command;

use hiding_lcp_certs::{degree_one, revealing};
use hiding_lcp_conformance::oracle;
use hiding_lcp_core::decoder::Decoder;
use hiding_lcp_core::instance::Instance;
use hiding_lcp_core::label::Certificate;
use hiding_lcp_core::language::KCol;
use hiding_lcp_core::prover::Prover;
use hiding_lcp_core::verify::{
    AuditPlan, Block, Coverage, ExecMode, InstanceSet, LabelSource, PropertyTag, Universe,
};
use hiding_lcp_graph::algo::components::is_connected;
use hiding_lcp_graph::{generators, ports, Graph, IdAssignment, PortAssignment};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Worker threads of every audit: the core count of the 2-core hosts the
/// benchmark was sized on, so one audit is the whole load.
pub const THREADS: usize = 2;

/// Every workload audits a certification of 2-coloring.
const K: usize = 2;

/// The Lemma 3.1 family size of the CLI workloads.
const LEMMA31_MAX_N: usize = 4;

/// Graphs in the seeded random family.
const RANDOM_GRAPHS: usize = 16;
/// The stream the random family's graph shapes are drawn from.
const SHAPE_SEED: u64 = 0x5EED;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `audit --decoder degree-one --max-n 4`: bound by the odometer walk.
    Lemma31DegreeOne,
    /// The same audit through `--shards 2`: the process boundary.
    Lemma31DegreeOneShards2,
    /// In-process audit of the symmetric-port panel family at n = 8:
    /// bound by the Lemma 3.1 scan and its reduce.
    FamilyN8Revealing,
    /// In-process audit of 16 seeded random 8-node graphs: many skeleton
    /// classes and memo misses.
    RandomN8Revealing,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::Lemma31DegreeOne,
        Workload::Lemma31DegreeOneShards2,
        Workload::FamilyN8Revealing,
        Workload::RandomN8Revealing,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Lemma31DegreeOne => "lemma31-degree-one",
            Workload::Lemma31DegreeOneShards2 => "lemma31-degree-one-shards2",
            Workload::FamilyN8Revealing => "family-n8-revealing",
            Workload::RandomN8Revealing => "random-n8-revealing",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether an audit is a spawn of the `audit` binary (else an
    /// in-process `AuditPlan::run`).
    pub(crate) fn is_cli(self) -> bool {
        matches!(
            self,
            Workload::Lemma31DegreeOne | Workload::Lemma31DegreeOneShards2
        )
    }
}

/// Everything one workload's audits share, built once per process.
pub struct Fixture {
    pub workload: Workload,
    pub seed: u64,
    decoder: Box<dyn Decoder>,
    prover: Box<dyn Prover>,
    alphabet: Vec<Certificate>,
    /// The explicit family of the in-process workloads; empty for the
    /// Lemma 3.1 ones, whose family the universe constructor enumerates.
    instances: Vec<Instance>,
    audit_bin: Option<PathBuf>,
    /// `TMPDIR` of spawned audits, whose shard coordinator writes its
    /// shard reports there: `audit-bench/tmp` in the binary's target
    /// directory, so a run writes nothing outside it.
    audit_tmp: Option<PathBuf>,
}

impl Fixture {
    /// Builds the workload's inputs from `seed`. CLI workloads need the
    /// `audit` binary; in-process ones ignore `audit_bin`.
    pub fn new(workload: Workload, seed: u64, audit_bin: Option<&Path>) -> Result<Fixture, String> {
        if workload.is_cli() && !audit_bin.is_some_and(Path::exists) {
            return Err(format!(
                "workload {} needs the audit binary{}; build it with \
                 `cargo build --release --bin audit` at the repository root",
                workload.name(),
                audit_bin.map_or(String::new(), |p| format!(" at {}", p.display())),
            ));
        }
        let audit_tmp = match audit_bin.and_then(Path::parent).and_then(Path::parent) {
            Some(target) if workload.is_cli() => {
                let tmp = target.join("audit-bench").join("tmp");
                std::fs::create_dir_all(&tmp)
                    .map_err(|e| format!("cannot create {}: {e}", tmp.display()))?;
                Some(tmp)
            }
            _ => None,
        };
        let (decoder, prover, alphabet): (Box<dyn Decoder>, Box<dyn Prover>, _) =
            if workload.is_cli() {
                (
                    Box::new(degree_one::DegreeOneDecoder),
                    Box::new(degree_one::DegreeOneProver),
                    degree_one::adversary_alphabet(),
                )
            } else {
                (
                    Box::new(revealing::RevealingDecoder::new(K)),
                    Box::new(revealing::RevealingProver::new(K)),
                    revealing::adversary_alphabet(K),
                )
            };
        Ok(Fixture {
            workload,
            seed,
            decoder,
            prover,
            alphabet,
            instances: if workload.is_cli() {
                Vec::new()
            } else {
                enumerate_family(workload, seed)
            },
            audit_bin: audit_bin.map(Path::to_path_buf),
            audit_tmp,
        })
    }

    pub(crate) fn decoder(&self) -> &dyn Decoder {
        self.decoder.as_ref()
    }

    pub(crate) fn language(&self) -> KCol {
        KCol::new(K)
    }

    /// The audit as a plan: what the CLI compiles for the CLI workloads,
    /// the in-process audit for the others.
    pub(crate) fn plan(&self) -> AuditPlan<'_> {
        let instances = if self.workload.is_cli() {
            InstanceSet::Lemma31 {
                max_n: LEMMA31_MAX_N,
            }
        } else {
            InstanceSet::Explicit {
                instances: self.instances.clone(),
                coverage: Coverage::Sampled,
            }
        };
        AuditPlan::new(self.decoder.as_ref(), K, instances, self.alphabet.clone())
            .prover(self.prover.as_ref())
            .mode(ExecMode::Parallel(THREADS))
            .seed(self.seed)
    }

    /// The labelings universe through its public constructor — the
    /// workload's set-up step.
    pub(crate) fn universe(&self) -> Universe {
        if self.workload.is_cli() {
            Universe::lemma31(LEMMA31_MAX_N, self.alphabet.clone()).expect("n = 4 family fits")
        } else {
            let blocks = self
                .instances
                .iter()
                .map(|inst| {
                    Block::new(
                        inst.clone(),
                        LabelSource::All {
                            alphabet: self.alphabet.clone(),
                        },
                    )
                })
                .collect();
            Universe::new(blocks, Coverage::Sampled).expect("8-node family fits")
        }
    }

    /// The `audit` flags of the CLI workloads.
    pub(crate) fn cli_args(&self) -> Vec<String> {
        let mut args: Vec<String> = ["--decoder", "degree-one", "--stable"]
            .map(String::from)
            .to_vec();
        for (flag, value) in [
            ("--max-n", LEMMA31_MAX_N as u64),
            ("--threads", THREADS as u64),
            ("--seed", self.seed),
        ] {
            args.extend([flag.to_string(), value.to_string()]);
        }
        if self.workload == Workload::Lemma31DegreeOneShards2 {
            args.extend(["--shards".to_string(), "2".to_string()]);
        }
        args
    }

    /// One audit, from spawn or call to rendered stable JSON. Fails on a
    /// spawn error or an exit code other than 0.
    pub fn audit(&self) -> Result<String, String> {
        if self.workload.is_cli() {
            self.spawn_audit(&self.cli_args())
        } else {
            Ok(self.plan().run().to_stable_json())
        }
    }

    /// Runs the `audit` binary with `args` and returns its standard output.
    pub(crate) fn spawn_audit(&self, args: &[String]) -> Result<String, String> {
        let bin = self.audit_bin.as_ref().ok_or("no audit binary")?;
        let mut command = Command::new(bin);
        if let Some(tmp) = &self.audit_tmp {
            command.env("TMPDIR", tmp);
        }
        let out = command
            .args(args)
            .output()
            .map_err(|e| format!("cannot spawn {}: {e}", bin.display()))?;
        if !out.status.success() {
            return Err(format!(
                "audit exited with {}: {}",
                out.status,
                String::from_utf8_lossy(&out.stderr).trim()
            ));
        }
        String::from_utf8(out.stdout).map_err(|_| "audit printed non-UTF-8 output".to_string())
    }

    /// The correctness gate on a workload's first audit output: the fixed
    /// verdict table, sharded ≡ unsharded bytes, and (random family) the
    /// brute-force oracles per instance.
    pub fn gate(&self, stable_json: &str) -> Result<(), String> {
        let hiding = if self.workload.is_cli() {
            Some(true)
        } else {
            None
        };
        check_verdicts(stable_json, &expected_verdicts(hiding))?;
        if self.workload == Workload::Lemma31DegreeOneShards2 {
            let unsharded = Fixture::new(
                Workload::Lemma31DegreeOne,
                self.seed,
                self.audit_bin.as_deref(),
            )?;
            if unsharded.audit()? != stable_json {
                return Err("--shards 2 stable output differs from the unsharded audit".into());
            }
        }
        if self.workload == Workload::RandomN8Revealing {
            self.check_oracles()?;
        }
        Ok(())
    }

    /// Soundness and strong soundness per instance, by the engine (a
    /// one-instance plan) and by the conformance oracles.
    fn check_oracles(&self) -> Result<(), String> {
        let language = self.language();
        for (i, inst) in self.instances.iter().enumerate() {
            let report = AuditPlan::new(
                self.decoder.as_ref(),
                K,
                InstanceSet::Explicit {
                    instances: vec![inst.clone()],
                    coverage: Coverage::Sampled,
                },
                self.alphabet.clone(),
            )
            .properties([PropertyTag::Soundness, PropertyTag::Strong])
            .mode(ExecMode::Parallel(THREADS))
            .seed(self.seed)
            .run()
            .to_stable_json();
            let engine = member_verdicts(&report);
            let verdict = |p: &str| engine.iter().find(|(name, _)| name == p).map(|v| v.1);
            let strong = oracle::strong(self.decoder.as_ref(), K, inst, &self.alphabet).is_ok();
            if verdict("strong") != Some(Some(strong)) {
                return Err(format!(
                    "instance {i}: engine strong verdict {:?}, oracle {strong}",
                    verdict("strong")
                ));
            }
            // Soundness quantifies over no-instances only.
            if !language.is_yes_graph(inst.graph()) {
                let sound = oracle::soundness(self.decoder.as_ref(), inst, &self.alphabet).is_ok();
                if verdict("soundness") != Some(Some(sound)) {
                    return Err(format!(
                        "instance {i}: engine soundness verdict {:?}, oracle {sound}",
                        verdict("soundness")
                    ));
                }
            }
        }
        Ok(())
    }
}

/// The workload's instance family, enumerated from scratch: the Lemma 3.1
/// graphs and port assignments for the CLI workloads (which the universe
/// constructor rebuilds itself, so nothing is kept), the panel family or
/// the seeded random family otherwise.
pub(crate) fn enumerate_family(workload: Workload, seed: u64) -> Vec<Instance> {
    match workload {
        Workload::Lemma31DegreeOne | Workload::Lemma31DegreeOneShards2 => {
            for g in generators::connected_graphs_up_to(LEMMA31_MAX_N) {
                std::hint::black_box(ports::all_port_assignments(&g, 100_000));
            }
            Vec::new()
        }
        Workload::FamilyN8Revealing => panel_family(8),
        Workload::RandomN8Revealing => random_family(seed),
    }
}

/// The `panel` bench's family: all cycles `3..=max_n`, cliques
/// `4..max_n`, and dense yes-instances (`K_{2,4}`, `K_{3,3}`, `Q_3`,
/// `K_{4,4}`), with symmetric ports wherever the shape admits them.
fn panel_family(max_n: usize) -> Vec<Instance> {
    let with_ports = |g: Graph, ports: fn(&Graph) -> PortAssignment| {
        let n = g.node_count();
        let prt = ports(&g);
        Instance::new(g, prt, IdAssignment::canonical(n)).expect("symmetric ports are valid")
    };
    let mut instances: Vec<Instance> = (3..=max_n)
        .map(|n| with_ports(generators::cycle(n), ports::cycle_symmetric))
        .collect();
    instances
        .extend((4..max_n).map(|n| with_ports(generators::complete(n), ports::complete_symmetric)));
    if max_n >= 6 {
        instances.push(Instance::canonical(generators::complete_bipartite(2, 4)));
        instances.push(with_ports(
            generators::complete_bipartite(3, 3),
            ports::balanced_bipartite_symmetric,
        ));
    }
    if max_n >= 8 {
        instances.push(with_ports(
            generators::hypercube(3),
            ports::hypercube_symmetric,
        ));
        instances.push(with_ports(
            generators::complete_bipartite(4, 4),
            ports::balanced_bipartite_symmetric,
        ));
    }
    instances
}

/// 16 connected 8-node graphs, alternating `random_bipartite(4, 4, 0.5)`
/// (yes-instances) and `gnp(8, 0.35)` (mostly no-instances), with ports
/// and ids below 64 drawn from `seed`. The graph shapes come from a fixed
/// stream: the shapes set how much work and memory an audit takes, so
/// drawing them per seed would spread one workload's numbers over
/// different amounts of work. Random ports and ids still leave every
/// block without symmetry and give each seed its own views.
fn random_family(seed: u64) -> Vec<Instance> {
    let mut shapes = StdRng::seed_from_u64(SHAPE_SEED);
    let mut rng = StdRng::seed_from_u64(seed);
    (0..RANDOM_GRAPHS)
        .map(|i| {
            let g = loop {
                let g = if i % 2 == 0 {
                    generators::random_bipartite(4, 4, 0.5, &mut shapes)
                } else {
                    generators::gnp(8, 0.35, &mut shapes)
                };
                if is_connected(&g) {
                    break g;
                }
            };
            let ports = PortAssignment::random(&g, &mut rng);
            let ids = IdAssignment::random(8, 64, &mut rng);
            Instance::new(g, ports, ids).expect("random ports and ids fit their graph")
        })
        .collect()
}

/// The verdict every audit of a workload must report, per property in
/// report order; `hiding` differs between the hiding and the revealing
/// decoder.
fn expected_verdicts(hiding: Option<bool>) -> [(&'static str, Option<bool>); 7] {
    [
        ("soundness", Some(true)),
        ("strong", Some(true)),
        ("hiding", hiding),
        ("quantified", None),
        ("completeness", Some(true)),
        ("erasure", None),
        ("invariance", Some(true)),
    ]
}

/// `(property, passed)` of every member line of a rendered report, in
/// report order.
fn member_verdicts(json: &str) -> Vec<(String, Option<bool>)> {
    json.lines()
        .filter_map(|line| {
            let property = line.split("\"property\": \"").nth(1)?.split('"').next()?;
            let passed = match line.split("\"passed\": ").nth(1)? {
                v if v.starts_with("true") => Some(true),
                v if v.starts_with("false") => Some(false),
                _ => None,
            };
            Some((property.to_string(), passed))
        })
        .collect()
}

fn check_verdicts(json: &str, expected: &[(&str, Option<bool>)]) -> Result<(), String> {
    let got = member_verdicts(json);
    let want: Vec<(String, Option<bool>)> =
        expected.iter().map(|&(p, v)| (p.to_string(), v)).collect();
    if got == want {
        Ok(())
    } else {
        Err(format!("verdicts {got:?}, expected {want:?}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdict_lines_parse_in_order() {
        let json =
            "{\n  \"panels\": [\n        {\"property\": \"soundness\", \"label\": \"soundness\", \
                    \"passed\": true, \"detail\": \"x\"},\n        {\"property\": \"quantified\", \
                    \"label\": \"q\", \"passed\": null, \"detail\": \"y\"},\n        \
                    {\"property\": \"strong\", \"passed\": false}\n  ]\n}\n";
        assert_eq!(
            member_verdicts(json),
            [
                ("soundness".to_string(), Some(true)),
                ("quantified".to_string(), None),
                ("strong".to_string(), Some(false)),
            ]
        );
        assert!(check_verdicts(json, &[("soundness", Some(true))]).is_err());
    }

    #[test]
    fn random_family_draws_ports_from_the_seed() {
        let a = random_family(7);
        assert_eq!(a.len(), RANDOM_GRAPHS);
        assert!(a
            .iter()
            .all(|i| i.graph().node_count() == 8 && is_connected(i.graph())));
        let edges = |f: &[Instance]| -> Vec<Vec<(usize, usize)>> {
            f.iter().map(|i| i.graph().edges().collect()).collect()
        };
        let ports = |f: &[Instance]| -> Vec<String> {
            f.iter().map(|i| format!("{:?}", i.ports())).collect()
        };
        let b = random_family(8);
        assert_eq!(edges(&a), edges(&b), "shapes do not depend on the seed");
        assert_eq!(ports(&a), ports(&random_family(7)));
        assert_ne!(ports(&a), ports(&b));
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
