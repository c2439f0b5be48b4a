//! `repro` — regenerates every experiment of `EXPERIMENTS.md`, printing
//! the paper's claim next to the measured outcome.
//!
//! ```text
//! cargo run --release --bin repro            # all experiments
//! cargo run --release --bin repro -- E2 E9   # a selection
//! ```

use hiding_lcp::certs::edge3::{Edge3Decoder, Edge3Prover};
use hiding_lcp::certs::{degree_one, even_cycle, revealing, shatter, union, watermelon};
use hiding_lcp::core::decoder::{run, Decoder};
use hiding_lcp::core::extract::Extractor;
use hiding_lcp::core::instance::Instance;
use hiding_lcp::core::language::KCol;
use hiding_lcp::core::lower::{refute, search_cycle_decoders, RefutationOutcome};
use hiding_lcp::core::properties::{completeness, strong};
use hiding_lcp::core::prover::Prover;
use hiding_lcp::core::ramsey::monochromatic_subset;
use hiding_lcp::core::realize::{find_plan, realize};
use hiding_lcp::core::view::IdMode;
use hiding_lcp::core::walks::{expansion_walk, repair_walk};
use hiding_lcp::graph::algo::{bfs, bipartite};
use hiding_lcp::graph::classes::forgetful;
use hiding_lcp::graph::generators;
use hiding_lcp_bench as workloads;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

fn header(id: &str, title: &str, claim: &str) {
    println!("\n================================================================");
    println!("{id}: {title}");
    println!("paper: {claim}");
    println!("----------------------------------------------------------------");
}

fn e1() {
    header(
        "E1",
        "r-forgetfulness and Lemma 2.1 (diam >= 2r+1)",
        "grids/tori/long cycles are r-forgetful; r-forgetful => diam >= 2r+1",
    );
    println!(
        "{:<14} {:>3} {:>11} {:>6} {:>8}",
        "graph", "r", "forgetful?", "diam", "2r+1"
    );
    let cases: Vec<(&str, hiding_lcp::graph::Graph, usize)> = vec![
        ("cycle6", generators::cycle(6), 1),
        ("cycle10", generators::cycle(10), 2),
        ("cycle4", generators::cycle(4), 1),
        ("torus6x6", generators::torus(6, 6), 1),
        ("torus7x7", generators::torus(7, 7), 1),
        ("torus10x10", generators::torus(10, 10), 2),
        ("grid4x4", generators::grid(4, 4), 1),
        ("path10", generators::path(10), 1),
        ("K4", generators::complete(4), 1),
        ("petersen", generators::petersen(), 1),
    ];
    let mut lemma_checked = 0;
    for (name, g, r) in cases {
        let forgetful = forgetful::is_r_forgetful(&g, r);
        let diam = bfs::diameter(&g).unwrap();
        if forgetful {
            assert!(diam > 2 * r, "Lemma 2.1 violated");
            lemma_checked += 1;
        }
        println!(
            "{:<14} {:>3} {:>11} {:>6} {:>8}",
            name,
            r,
            if forgetful { "yes" } else { "no" },
            diam,
            2 * r + 1
        );
    }
    println!("measured: Lemma 2.1 held on all {lemma_checked} r-forgetful cases");
    println!("note: finite grids fail at corners, finite paths at leaves - see DESIGN.md");
}

#[allow(clippy::too_many_arguments)]
fn dossier(
    id: &str,
    title: &str,
    claim: &str,
    decoder: &dyn Decoder,
    prover: &dyn Prover,
    yes_instances: Vec<Instance>,
    no_instances: Vec<Instance>,
    structured: &dyn Fn(&Instance) -> Vec<hiding_lcp::core::label::Labeling>,
    alphabet: Vec<hiding_lcp::core::label::Certificate>,
    nbhd: hiding_lcp::core::nbhd::NbhdGraph,
) {
    header(id, title, claim);
    let yes_count = yes_instances.len();
    let report = completeness::check_completeness(decoder, prover, yes_instances);
    println!(
        "completeness : {}/{} promise instances unanimously accepted (max cert {} bits)",
        report.passed, yes_count, report.max_certificate_bits
    );
    assert!(report.all_passed());
    let two_col = KCol::new(2);
    let mut rng = StdRng::seed_from_u64(2025);
    let mut structured_total = 0usize;
    let mut random_total = 0usize;
    for inst in &no_instances {
        for labeling in structured(inst) {
            structured_total += 1;
            strong::strong_holds_for(decoder, &two_col, inst, &labeling).expect("strong soundness");
        }
        if !alphabet.is_empty() {
            strong::check_strong_random(decoder, &two_col, inst, &alphabet, 2_000, &mut rng)
                .expect("strong soundness");
            random_total += 2_000;
        }
    }
    println!(
        "strong sound : {} structured + {} random forgeries on {} no-instances, all safe",
        structured_total,
        random_total,
        no_instances.len()
    );
    match nbhd.odd_cycle() {
        Some(walk) => println!(
            "hiding       : odd closed walk of length {} in V(D,.) ({} views, {} edges) - Lemma 3.2 => hiding",
            walk.len(),
            nbhd.view_count(),
            nbhd.edge_count()
        ),
        None => println!("hiding       : NOT OBSERVED (unexpected)"),
    }
}

fn no_instance_pack() -> Vec<Instance> {
    vec![
        Instance::canonical(generators::cycle(3)),
        Instance::canonical(generators::cycle(5)),
        Instance::canonical(generators::complete(4)),
        Instance::canonical(generators::pendant_path(5, 2)),
        Instance::canonical(generators::watermelon(&[2, 3])),
    ]
}

fn e2() {
    dossier(
        "E2",
        "Lemma 4.1 - degree-one LCP (anonymous, O(1) bits)",
        "strong and hiding on graphs with min degree one; Figs. 3/4 odd cycle",
        &degree_one::DegreeOneDecoder,
        &degree_one::DegreeOneProver,
        vec![
            Instance::canonical(generators::path(2)),
            Instance::canonical(generators::path(40)),
            Instance::canonical(generators::star(8)),
            Instance::canonical(generators::caterpillar(6, 2)),
            Instance::canonical(generators::balanced_tree(2, 4)),
            Instance::canonical(generators::pendant_path(8, 3)),
        ],
        no_instance_pack(),
        &|inst| {
            hiding_lcp::certs::adversary::battery(
                &degree_one::DegreeOneProver,
                inst,
                &[Instance::canonical(generators::path(6))],
                &degree_one::adversary_alphabet(),
            )
        },
        degree_one::adversary_alphabet(),
        workloads::degree_one_nbhd(),
    );
}

fn e3() {
    dossier(
        "E3",
        "Lemma 4.2 - even-cycle edge-coloring LCP (anonymous, O(1) bits)",
        "strong and hiding on even cycles; hides the coloring EVERYWHERE (Figs. 5/6)",
        &even_cycle::EvenCycleDecoder,
        &even_cycle::EvenCycleProver,
        [4usize, 6, 8, 16, 64]
            .into_iter()
            .map(|n| Instance::canonical(generators::cycle(n)))
            .collect(),
        no_instance_pack(),
        &|inst| {
            hiding_lcp::certs::adversary::battery(
                &even_cycle::EvenCycleProver,
                inst,
                &[Instance::canonical(generators::cycle(6))],
                &even_cycle::adversary_alphabet(),
            )
        },
        even_cycle::adversary_alphabet(),
        workloads::even_cycle_nbhd(),
    );
    // The distinguished feature of Lemma 4.2: the witness is a SELF-LOOP
    // (identical adjacent views), i.e. hiding at every node.
    let nbhd = workloads::even_cycle_nbhd();
    println!(
        "self-loops   : {} - two adjacent nodes share one view; no node learns its color",
        nbhd.self_loop_views().len()
    );
}

fn e4() {
    header(
        "E4",
        "Theorem 1.1 - the union LCP on H1 + H2",
        "one anonymous constant-size LCP covering both classes",
    );
    let mixed = generators::path(5)
        .disjoint_union(&generators::cycle(6))
        .disjoint_union(&generators::star(3))
        .disjoint_union(&generators::cycle(8));
    let instances = vec![
        Instance::canonical(mixed),
        Instance::canonical(generators::cycle(10)),
        Instance::canonical(generators::balanced_tree(2, 3)),
    ];
    let count = instances.len();
    let report =
        completeness::check_completeness(&union::UnionDecoder, &union::UnionProver, instances);
    println!(
        "completeness : {}/{} mixed instances accepted (max cert {} bits)",
        report.passed, count, report.max_certificate_bits
    );
    assert!(report.all_passed());
    let two_col = KCol::new(2);
    let mut rng = StdRng::seed_from_u64(7);
    for inst in no_instance_pack() {
        strong::check_strong_random(
            &union::UnionDecoder,
            &two_col,
            &inst,
            &union::adversary_alphabet(),
            2_000,
            &mut rng,
        )
        .expect("strong soundness");
    }
    println!("strong sound : 10000 random cross-tag forgeries, all safe");
}

fn e5() {
    dossier(
        "E5",
        "Theorem 1.3 - shatter-point LCP (O(min(D^2,n) + log n) bits)",
        "strong and hiding on graphs with a shatter point; P1/P2 view coincidence",
        &shatter::ShatterDecoder,
        &shatter::ShatterProver,
        vec![
            Instance::canonical(generators::path(8)),
            Instance::canonical(generators::path(24)),
            Instance::canonical(generators::caterpillar(8, 1)),
        ],
        no_instance_pack(),
        &shatter::adversary_labelings,
        Vec::new(),
        workloads::shatter_nbhd(),
    );
    let ws = shatter::hiding_witness_instances();
    println!(
        "coincidence  : view(w3) equal across P1/P2: {}; view(z2) equal: {}",
        ws[0].view(0, 1, IdMode::Full) == ws[1].view(0, 1, IdMode::Full),
        ws[0].view(7, 1, IdMode::Full) == ws[1].view(6, 1, IdMode::Full)
    );
}

fn e6() {
    dossier(
        "E6",
        "Theorem 1.4 - watermelon LCP (O(log n) bits)",
        "strong and hiding on watermelon graphs; id-swap odd cycle on P8",
        &watermelon::WatermelonDecoder,
        &watermelon::WatermelonProver,
        vec![
            Instance::canonical(generators::watermelon(&[2, 2])),
            Instance::canonical(generators::watermelon(&[2, 4, 6])),
            Instance::canonical(generators::watermelon(&[3; 5])),
            Instance::canonical(generators::watermelon(&[4; 16])),
            Instance::canonical(generators::cycle(12)),
            Instance::canonical(generators::path(8)),
        ],
        no_instance_pack(),
        &watermelon::adversary_labelings,
        Vec::new(),
        workloads::watermelon_nbhd(),
    );
}

fn e7() {
    header(
        "E7",
        "Lemmas 3.1/3.2 - neighborhood graph + extraction decoder",
        "V(D,n) computable; D hiding iff V(D,n) not 2-colorable; extractor otherwise",
    );
    let start = Instant::now();
    let nbhd = workloads::revealing_nbhd(4);
    println!(
        "revealing LCP: exhaustive universe n<=4 -> V(D,4): {} views, {} edges ({:?})",
        nbhd.view_count(),
        nbhd.edge_count(),
        start.elapsed()
    );
    println!("2-colorable  : {} (=> NOT hiding)", nbhd.k_colorable(2));
    let extractor = Extractor::from_nbhd(nbhd, 2).expect("colorable");
    let mut successes = 0;
    // Cycles and paths beyond the n <= 4 bound still extract because
    // their anonymous views recur in small instances; a 2x4 grid would
    // not (its degree-3 views need neighbors of degree >= 2, which no
    // bipartite 4-node graph supplies).
    let cases = [
        generators::cycle(4),
        generators::cycle(10),
        generators::path(9),
        generators::star(3),
    ];
    let total = cases.len();
    for g in cases {
        let inst = Instance::canonical(g);
        let labeling = revealing::RevealingProver::new(2).certify(&inst).unwrap();
        if extractor.extraction_succeeds(&inst.with_labeling(labeling)) {
            successes += 1;
        }
    }
    println!("extraction   : {successes}/{total} accepted instances yield proper 2-colorings");
    for (name, nbhd) in [
        ("degree-one", workloads::degree_one_nbhd()),
        ("even-cycle", workloads::even_cycle_nbhd()),
        ("shatter", workloads::shatter_nbhd()),
        ("watermelon", workloads::watermelon_nbhd()),
    ] {
        println!(
            "{:<13}: V not 2-colorable: {} => no extractor exists: {}",
            name,
            !nbhd.k_colorable(2),
            Extractor::from_nbhd(nbhd, 2).is_none()
        );
    }
}

fn e8() {
    header(
        "E8",
        "Lemmas 5.1-5.3 - realizability and the G_bad merge",
        "realizable view subgraphs merge into instances reproducing every view",
    );
    for (name, g, r) in [
        ("cycle8", generators::cycle(8), 1usize),
        ("path6", generators::path(6), 2),
        ("grid2x3", generators::grid(2, 3), 1),
    ] {
        let inst = Instance::canonical(g);
        let n = inst.graph().node_count();
        let labeling = hiding_lcp::core::label::Labeling::empty(n);
        let views: Vec<_> = (0..n)
            .map(|v| inst.view(&labeling, v, r, IdMode::Full))
            .collect();
        let plan = find_plan(&views, &[]).expect("self-realizable");
        let realization = realize(&plan).expect("merge succeeds");
        let reproduced = views.iter().filter(|mu| realization.reproduces(mu)).count();
        println!(
            "{:<8} r={r}: G_bad has {} nodes / {} edges; {}/{} views reproduced exactly",
            name,
            realization.labeled.graph().node_count(),
            realization.labeled.graph().edge_count(),
            reproduced,
            n
        );
        assert_eq!(reproduced, n);
    }
}

fn e9() {
    header(
        "E9",
        "Theorem 1.5 - refutation pipeline (Lemmas 5.4/5.5 machinery)",
        "no decoder is hiding AND strong: both witnesses found for cheats",
    );
    // Route 1 (adversarial): edge-3-coloring decoder.
    let universe: Vec<_> = [generators::path(2), generators::hypercube(3)]
        .into_iter()
        .filter_map(|g| {
            let inst = Instance::canonical(g);
            let labeling = Edge3Prover.certify(&inst)?;
            Some(inst.with_labeling(labeling))
        })
        .collect();
    let k4 = Instance::canonical(generators::complete(4));
    let k4_labeling = Edge3Prover.certify(&k4).unwrap();
    match refute(
        &Edge3Decoder,
        universe,
        IdMode::Anonymous,
        bipartite::is_bipartite,
        &[(k4, vec![k4_labeling])],
    ) {
        RefutationOutcome::Refuted(r) => println!(
            "edge3        : REFUTED - odd walk len {}, violation on K4 (via realization: {})",
            r.odd_walk.len(),
            r.via_realization
        ),
        other => println!("edge3        : unexpected {other:?}"),
    }
    // Upper-bound LCPs resist.
    let g = generators::path(4);
    let mut universe = Vec::new();
    for ports in hiding_lcp::graph::ports::all_port_assignments(&g, 100) {
        let inst = Instance::new(
            g.clone(),
            ports,
            hiding_lcp::graph::IdAssignment::canonical(4),
        )
        .unwrap();
        for labeling in degree_one::accepting_labelings(&inst) {
            universe.push(inst.clone().with_labeling(labeling));
        }
    }
    let trap = Instance::canonical(generators::pendant_path(3, 1));
    let all: Vec<_> = hiding_lcp::core::prover::all_labelings(
        trap.graph().node_count(),
        &degree_one::adversary_alphabet(),
    )
    .collect();
    match refute(
        &degree_one::DegreeOneDecoder,
        universe,
        IdMode::Anonymous,
        |g| bipartite::is_bipartite(g) && g.min_degree() == Some(1),
        &[(trap, all)],
    ) {
        RefutationOutcome::HidingOnly { odd_walk } => println!(
            "degree-one   : hiding (odd walk len {}) but NOT refutable - it is strong",
            odd_walk.len()
        ),
        other => println!("degree-one   : unexpected {other:?}"),
    }
    // Lemma 5.4/5.5 machinery on a torus / theta.
    let torus = Instance::canonical(generators::torus(6, 6))
        .with_labeling(hiding_lcp::core::label::Labeling::empty(36));
    let w_e = expansion_walk(&torus, 0, 1, 1).expect("torus expansion");
    println!(
        "Lemma 5.4    : expansion walk W_e on torus6x6: {} nodes, even: {}",
        w_e.len(),
        w_e.len().is_multiple_of(2)
    );
    let theta_graph = generators::theta(2, 2, 4);
    let first_nbr = theta_graph.neighbors(0)[0];
    let theta =
        Instance::canonical(theta_graph).with_labeling(hiding_lcp::core::label::Labeling::empty(7));
    let repair = repair_walk(&theta, 0, first_nbr).expect("theta repair");
    println!(
        "Lemma 5.5    : repair walk through the second cycle: {} nodes ({} edges, odd)",
        repair.len(),
        repair.len() - 1
    );
    // The neighborhood-level driver: replace a V(D,.)-edge by the lifted
    // odd detour.
    struct AcceptEverything;
    impl Decoder for AcceptEverything {
        fn name(&self) -> String {
            "accept-everything".into()
        }
        fn radius(&self) -> usize {
            1
        }
        fn id_mode(&self) -> IdMode {
            hiding_lcp::core::view::IdMode::Full
        }
        fn decide(&self, _v: &hiding_lcp::core::view::View) -> hiding_lcp::core::decoder::Verdict {
            hiding_lcp::core::decoder::Verdict::Accept
        }
    }
    let nbhd = hiding_lcp::core::nbhd::NbhdGraph::build(
        &AcceptEverything,
        IdMode::Full,
        vec![theta],
        bipartite::is_bipartite,
    );
    // View insertion order equals node order here, so the V(D,.)-edge
    // between node 0's and its neighbor's views is (0, first_nbr).
    match hiding_lcp::core::walks::repair_edge(&nbhd, 0, first_nbr) {
        Some(lifted) => println!(
            "repair_edge  : V(D,.)-edge (0,{first_nbr}) replaced by a lifted odd walk of {} views",
            lifted.len()
        ),
        None => println!("repair_edge  : no second cycle available (unexpected on a theta)"),
    }
}

fn e10() {
    header(
        "E10",
        "Lemmas 6.1/6.2 - finite Ramsey search and order-invariantization",
        "monochromatic id sets exist; decoders become order-invariant on them",
    );
    let universe: Vec<u64> = (1..=18).collect();
    let (set, color) =
        monochromatic_subset(&universe, 2, 9, |p| (p[0] + p[1]) % 2).expect("Ramsey");
    println!(
        "Ramsey       : pairs of [1..18] colored by sum parity -> monochromatic 9-set {set:?} (color {color})"
    );
    let pentagon = |p: &[u64]| -> u64 {
        let d = (p[1] + 5 - p[0]) % 5;
        u64::from(d == 1 || d == 4)
    };
    println!(
        "R(3,3)=6     : pentagon coloring on 5 elements avoids monochromatic triples: {}",
        monochromatic_subset(&(0..5).collect::<Vec<_>>(), 2, 3, pentagon).is_none()
    );
}

fn e11() {
    header(
        "E11",
        "Theorem 1.2 ablation - exhaustive 64-decoder search on cycles",
        "cycles are the exempt class: strong+hiding possible there, but 1-bit port-oblivious decoders cannot cover all even cycles",
    );
    let start = Instant::now();
    let single = search_cycle_decoders(&[4], &[3, 4, 5]);
    println!(
        "C4 only      : complete {} strong {} hiding {} | all three: {:?}",
        single.complete.len(),
        single.strong.len(),
        single.hiding.len(),
        single.all_three
    );
    let double = search_cycle_decoders(&[4, 6], &[3, 4, 5, 6]);
    println!(
        "C4 and C6    : complete {} strong {} hiding {} | all three: {:?} ({:?})",
        double.complete.len(),
        double.strong.len(),
        double.hiding.len(),
        double.all_three,
        start.elapsed()
    );
    println!("=> covering every even cycle at 1 bit requires reading ports, as Lemma 4.2 does");
}

fn e12() {
    header(
        "E12",
        "certificate sizes vs n (bits, honest provers)",
        "O(1) for Theorem 1.1 schemes; O(log n) for Theorem 1.4; O(k + log n) for Theorem 1.3",
    );
    println!(
        "{:<6} {:>10} {:>11} {:>11} {:>9} {:>11}",
        "n", "revealing", "degree-one", "even-cycle", "shatter", "watermelon"
    );
    for n in [8usize, 16, 32, 64, 128, 256] {
        let bits = |l: Option<hiding_lcp::core::label::Labeling>| {
            l.map_or("-".into(), |x| x.max_bits().to_string())
        };
        let r = bits(
            revealing::RevealingProver::new(2).certify(&Instance::canonical(generators::cycle(n))),
        );
        let d =
            bits(degree_one::DegreeOneProver.certify(&Instance::canonical(generators::path(n))));
        let e =
            bits(even_cycle::EvenCycleProver.certify(&Instance::canonical(generators::cycle(n))));
        let s = bits(shatter::ShatterProver.certify(&Instance::canonical(generators::path(n))));
        let w = bits(watermelon::WatermelonProver.certify(&Instance::canonical(
            generators::watermelon(&vec![4usize; n / 4]),
        )));
        println!("{n:<6} {r:>10} {d:>11} {e:>11} {s:>9} {w:>11}");
    }
}

fn e13() {
    header(
        "E13",
        "verification throughput (full decoder rounds)",
        "one-round verification is local: cost scales linearly in n",
    );
    println!(
        "{:<12} {:>8} {:>14} {:>16}",
        "decoder", "n", "total", "per node"
    );
    for n in [64usize, 256, 1024] {
        for (name, decoder, li) in workloads::throughput_workloads(n) {
            let nodes = li.graph().node_count();
            let start = Instant::now();
            let reps = 10;
            for _ in 0..reps {
                let verdicts = run(decoder.as_ref(), &li);
                assert!(verdicts.iter().all(|v| v.is_accept()));
            }
            let per_round = start.elapsed() / reps;
            println!(
                "{:<12} {:>8} {:>14?} {:>14?}",
                name,
                nodes,
                per_round,
                per_round / nodes as u32
            );
        }
    }
}

fn e14() {
    header(
        "E14",
        "hiding spectrum - chi(V(D,.)) per LCP",
        "an LCP hides K-colorings for every K < chi(V); the separation program of Section 1 needs chi > 3",
    );
    println!(
        "{:<12} {:>6} {:>11} {:>22}",
        "LCP", "views", "chi(V)", "hides K-colorings for"
    );
    for (name, nbhd) in [
        ("revealing", workloads::revealing_nbhd(3)),
        ("degree-one", workloads::degree_one_nbhd()),
        ("even-cycle", workloads::even_cycle_nbhd()),
        ("shatter", workloads::shatter_nbhd()),
        ("watermelon", workloads::watermelon_nbhd()),
    ] {
        let (chi, hides) = match nbhd.chromatic_number() {
            Some(chi) => (chi.to_string(), format!("K < {chi}")),
            None => ("inf (self-loop)".into(), "every K".into()),
        };
        println!(
            "{:<12} {:>6} {:>11} {:>22}",
            name,
            nbhd.view_count(),
            chi,
            hides
        );
    }
    println!("(chi over a partial universe lower-bounds the true chi: the 'hides' column");
    println!(" is conclusive, the upper end is universe-relative.)");
    println!("=> only Lemma 4.2's edge-coloring scheme hides a 3-coloring - exactly what");
    println!("   the promise-free SLOCAL/online-LOCAL separation recipe demands.");
}

fn e15() {
    header(
        "E15",
        "the LCL problem Pi - 3-coloring under a 2-colorability certificate",
        "strong soundness makes Pi solvable on ANY input; self-loops defeat every view-based rule",
    );
    use hiding_lcp::core::lcl::{view_rule_counterexample, PiProblem};
    let pi = PiProblem::new(degree_one::DegreeOneDecoder);
    let mut rng = StdRng::seed_from_u64(99);
    let mut solved = 0;
    let mut total = 0;
    for g in [
        generators::path(10),
        generators::cycle(7),
        generators::pendant_path(5, 2),
        generators::complete(4),
        generators::petersen(),
    ] {
        let inst = Instance::canonical(g);
        for _ in 0..50 {
            let labeling = hiding_lcp::core::prover::random_labeling(
                inst.graph().node_count(),
                &degree_one::adversary_alphabet(),
                &mut rng,
            );
            let li = inst.clone().with_labeling(labeling);
            total += 1;
            let outputs = pi.solve_by_bipartition(&li).expect("strong soundness");
            if pi.is_valid_output(&li, &outputs) {
                solved += 1;
            }
        }
    }
    println!(
        "solver       : {solved}/{total} adversarially-labeled instances 3-colored on their valid regions"
    );
    let nbhd = workloads::even_cycle_nbhd();
    match view_rule_counterexample(&nbhd) {
        Some((idx, (u, v))) => {
            let w = &nbhd.instances()[idx];
            println!(
                "view rules   : defeated - instance {idx} has adjacent nodes {u},{v} with identical views: {}",
                w.view(u, 1, IdMode::Anonymous) == w.view(v, 1, IdMode::Anonymous)
            );
        }
        None => println!("view rules   : no self-loop witness (unexpected for even-cycle)"),
    }
}

fn e16() {
    header(
        "E16",
        "quantified hiding - fraction of nodes NO decoder can color",
        "future work in the paper: 'at least a constant fraction of nodes fail'; Lemma 4.1 hides at one pocket, Lemma 4.2 everywhere",
    );
    use hiding_lcp::core::nbhd::NbhdGraph;
    use hiding_lcp::core::properties::quantified::ExtractabilityMap;

    // The metric is universe-relative: a decoder must answer consistently
    // across every instance the prover might have labeled. We report the
    // hidden fraction of one accepted instance under (a) a universe of
    // just that instance and (b) the full witness universe.
    println!(
        "{:<12} {:>24} {:>24}",
        "LCP", "single-instance universe", "witness universe"
    );

    // Degree-one on P4 (hidden pendant at node 0).
    let inst = Instance::canonical(generators::path(4));
    let labeling = degree_one::certify_hiding_at(&inst, Some(0)).unwrap();
    let li = inst.with_labeling(labeling);
    let single = NbhdGraph::build(
        &degree_one::DegreeOneDecoder,
        IdMode::Anonymous,
        vec![li.clone()],
        bipartite::is_bipartite,
    );
    let f_single = ExtractabilityMap::new(&single, 2).hidden_fraction(&single, &li);
    let full = workloads::degree_one_nbhd();
    // The witness universe uses canonical-id P4s; evaluate on one of its
    // own hidden-pendant instances.
    let li_full = workloads::degree_one_universe().swap_remove(1);
    let f_full = ExtractabilityMap::new(&full, 2).hidden_fraction(&full, &li_full);
    println!("{:<12} {:>24.3} {:>24.3}", "degree-one", f_single, f_full);

    // Even-cycle on C4 with the port assignment that makes adjacent
    // labels coincide: nodes 0,1 reach each other through port 1, and the
    // far side mirrors them, so view(0) = view(1) - a self-loop from ONE
    // instance.
    let g = generators::cycle(4);
    let ports = hiding_lcp::graph::PortAssignment::from_order(
        &g,
        vec![vec![1, 3], vec![0, 2], vec![1, 3], vec![0, 2]],
    )
    .unwrap();
    let inst = Instance::new(g, ports, hiding_lcp::graph::IdAssignment::canonical(4)).unwrap();
    let labeling = even_cycle::certify_with_polarity(&inst, 0).unwrap();
    let li = inst.with_labeling(labeling);
    let single = NbhdGraph::build(
        &even_cycle::EvenCycleDecoder,
        IdMode::Anonymous,
        vec![li.clone()],
        bipartite::is_bipartite,
    );
    let f_single = ExtractabilityMap::new(&single, 2).hidden_fraction(&single, &li);
    let full = workloads::even_cycle_nbhd();
    let li_full = workloads::even_cycle_universe().swap_remove(0);
    let f_full = ExtractabilityMap::new(&full, 2).hidden_fraction(&full, &li_full);
    println!("{:<12} {:>24.3} {:>24.3}", "even-cycle", f_single, f_full);

    // Revealing baseline over its exhaustive n<=4 universe.
    let full = workloads::revealing_nbhd(4);
    let inst = Instance::canonical(generators::cycle(4));
    let labeling = revealing::RevealingProver::new(2).certify(&inst).unwrap();
    let li = inst.with_labeling(labeling);
    let single = NbhdGraph::build(
        &revealing::RevealingDecoder::new(2),
        IdMode::Anonymous,
        vec![li.clone()],
        bipartite::is_bipartite,
    );
    let f_single = ExtractabilityMap::new(&single, 2).hidden_fraction(&single, &li);
    let f_full = ExtractabilityMap::new(&full, 2).hidden_fraction(&full, &li);
    println!("{:<12} {:>24.3} {:>24.3}", "revealing", f_single, f_full);

    println!("(fraction of instance nodes in non-2-colorable components of V(D,.): a lower");
    println!(" bound on every decoder's failure fraction. Lemma 4.2's scheme hides 100%");
    println!(" already against a SINGLE instance - its self-loop needs no second instance -");
    println!(" while Lemma 4.1 needs the prover's freedom of pendant/polarity choice, and");
    println!(" the revealing baseline hides nothing either way.)");
}

fn e17() {
    header(
        "E17",
        "erasure sensitivity - contrast with resilient labeling schemes",
        "FOS22 resilient schemes stay complete under erasures; the paper's LCPs promise soundness instead and reject locally",
    );
    use hiding_lcp::core::properties::erasure::random_erasure_trials;
    let mut rng = StdRng::seed_from_u64(13);
    println!(
        "{:<12} {:>4} {:>4} {:>22}",
        "LCP", "n", "f", "avg rejecting nodes"
    );
    for f in [1usize, 2, 4] {
        for (name, decoder, li) in workloads::throughput_workloads(16) {
            let outcomes = random_erasure_trials(decoder.as_ref(), &li, f, 30, &mut rng);
            let avg: f64 =
                outcomes.iter().map(|o| o.rejecting as f64).sum::<f64>() / outcomes.len() as f64;
            println!(
                "{:<12} {:>4} {:>4} {:>22.2}",
                name,
                li.graph().node_count(),
                f,
                avg
            );
        }
    }
    println!("=> every erasure is caught by its own node (and usually its neighbors):");
    println!("   completeness-under-erasure is NOT a goal of strong LCPs, soundness is.");
}

fn e18() {
    header(
        "E18",
        "hiding onset - how many instances until V(D,.) turns odd",
        "hiding witnesses are universe phenomena: Lemma 4.1 needs several accepted labelings, Lemma 4.2 only one",
    );
    use hiding_lcp::core::nbhd::NbhdGraph;
    // Degree-one: grow a prefix of P4's accepting labelings (canonical
    // ports) one labeling at a time, rebuilding V(D,.) over it, until an
    // odd closed walk appears.
    let g = generators::path(4);
    let mut prefix = Vec::new();
    'outer: for ports in hiding_lcp::graph::ports::all_port_assignments(&g, 100) {
        let inst = Instance::new(
            g.clone(),
            ports,
            hiding_lcp::graph::IdAssignment::canonical(4),
        )
        .unwrap();
        for labeling in degree_one::accepting_labelings(&inst) {
            prefix.push(inst.clone().with_labeling(labeling));
            let nbhd = NbhdGraph::build(
                &degree_one::DegreeOneDecoder,
                IdMode::Anonymous,
                prefix.clone(),
                bipartite::is_bipartite,
            );
            if nbhd.odd_cycle().is_some() {
                break 'outer;
            }
        }
    }
    let count = prefix.len();
    println!("degree-one   : odd closed walk first appears after {count} accepted labelings of P4");
    // Even-cycle: the self-loop port assignment needs exactly one.
    let g = generators::cycle(4);
    let ports = hiding_lcp::graph::PortAssignment::from_order(
        &g,
        vec![vec![1, 3], vec![0, 2], vec![1, 3], vec![0, 2]],
    )
    .unwrap();
    let inst = Instance::new(g, ports, hiding_lcp::graph::IdAssignment::canonical(4)).unwrap();
    let labeling = even_cycle::certify_with_polarity(&inst, 0).unwrap();
    let nbhd = NbhdGraph::build(
        &even_cycle::EvenCycleDecoder,
        IdMode::Anonymous,
        vec![inst.with_labeling(labeling)],
        bipartite::is_bipartite,
    );
    println!(
        "even-cycle   : odd closed walk after 1 instance (self-loop: {})",
        nbhd.odd_cycle() == Some(vec![0]) || nbhd.odd_cycle().map(|w| w.len()) == Some(1)
    );
}

fn e19() {
    header(
        "E19",
        "the universal LCP (Section 1.1) - O(n^2) bits, zero hiding",
        "adjacency-matrix certificates certify everything and hide nothing",
    );
    use hiding_lcp::certs::universal::{UniversalDecoder, UniversalExtractor, UniversalProver};
    println!(
        "{:<8} {:>12} {:>12} {:>16}",
        "n", "cert bits", "accepted?", "nodes extracting"
    );
    for n in [4usize, 8, 16, 32] {
        let inst = Instance::canonical(generators::cycle(n));
        let labeling = UniversalProver.certify(&inst).unwrap();
        let bits = labeling.max_bits();
        let li = inst.with_labeling(labeling);
        let accepted = hiding_lcp::core::decoder::accepts_all(&UniversalDecoder, &li);
        let extracting = UniversalExtractor
            .extract_all(&li)
            .iter()
            .filter(|o| o.is_some())
            .count();
        println!("{n:<8} {bits:>12} {accepted:>12} {extracting:>13}/{n}");
    }
    println!("=> quadratic certificates, every node leaks its color: the baseline the");
    println!("   paper's O(1)/O(log n) hiding constructions improve on in both respects.");
}

/// Writes the neighborhood graphs behind Figs. 4 and 6 (and the Theorem
/// 1.3/1.4 witnesses) as Graphviz files.
fn write_figures(dir: &str) {
    std::fs::create_dir_all(dir).expect("create figure directory");
    for (file, nbhd) in [
        ("fig4_degree_one_nbhd.dot", workloads::degree_one_nbhd()),
        ("fig6_even_cycle_nbhd.dot", workloads::even_cycle_nbhd()),
        ("thm13_shatter_nbhd.dot", workloads::shatter_nbhd()),
        ("thm14_watermelon_nbhd.dot", workloads::watermelon_nbhd()),
    ] {
        let path = format!("{dir}/{file}");
        std::fs::write(&path, nbhd.to_dot()).expect("write figure");
        println!(
            "wrote {path} ({} views, {} edges)",
            nbhd.view_count(),
            nbhd.edge_count()
        );
    }
}

fn main() {
    let mut raw: Vec<String> = std::env::args().skip(1).collect();
    if let Some(pos) = raw.iter().position(|a| a == "--dot") {
        let dir = raw
            .get(pos + 1)
            .cloned()
            .unwrap_or_else(|| "figures".to_string());
        write_figures(&dir);
        raw.drain(pos..(pos + 2).min(raw.len()));
        if raw.is_empty() {
            return;
        }
    }
    let args: Vec<String> = raw.iter().map(|a| a.to_uppercase()).collect();
    let want = |id: &str| args.is_empty() || args.iter().any(|a| a == id);
    let all: Vec<(&str, fn())> = vec![
        ("E1", e1),
        ("E2", e2),
        ("E3", e3),
        ("E4", e4),
        ("E5", e5),
        ("E6", e6),
        ("E7", e7),
        ("E8", e8),
        ("E9", e9),
        ("E10", e10),
        ("E11", e11),
        ("E12", e12),
        ("E13", e13),
        ("E14", e14),
        ("E15", e15),
        ("E16", e16),
        ("E17", e17),
        ("E18", e18),
        ("E19", e19),
    ];
    let start = Instant::now();
    for (id, f) in all {
        if want(id) {
            f();
        }
    }
    println!(
        "\nall requested experiments completed in {:?}",
        start.elapsed()
    );
}
