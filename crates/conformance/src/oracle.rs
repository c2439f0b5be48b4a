//! Brute-force reference oracles for the seven LCP properties.
//!
//! Every function here is written straight off the paper's definitions
//! (PAPER.md, Sections 2–3) in the most naive way that terminates:
//! quantifiers become nested loops, "k-colorable" becomes enumeration of
//! all `k^n` color assignments, "induced subgraph" is rebuilt edge by
//! edge. None of it touches the production [`Universe`], sweep executor,
//! interner, memo, or the graph crate's DSATUR / canonical-form
//! algorithms — those are exactly the layers the differential suites
//! compare *against* these oracles, so sharing code with them would make
//! the comparison vacuous.
//!
//! The one production surface the oracles do share is the data model
//! itself ([`Instance`], [`Labeling`], [`View`] extraction via
//! [`Instance::view`]): that layer defines what a view *is*, so both
//! sides must read it. Structural properties of view extraction get
//! their own direct probes in [`crate::probes`] instead of differential
//! ones.
//!
//! [`Universe`]: hiding_lcp_core::verify::Universe

use hiding_lcp_core::decoder::{Decoder, Verdict};
use hiding_lcp_core::instance::{Instance, LabeledInstance};
use hiding_lcp_core::label::{Certificate, Labeling};
use hiding_lcp_core::properties::completeness::{CompletenessFailure, CompletenessReport};
use hiding_lcp_core::properties::erasure::ErasureOutcome;
use hiding_lcp_core::properties::invariance::InvarianceViolation;
use hiding_lcp_core::properties::soundness::SoundnessViolation;
use hiding_lcp_core::properties::strong::StrongViolation;
use hiding_lcp_core::prover::Prover;
use hiding_lcp_core::view::{IdMode, View};
use hiding_lcp_graph::graph::Graph;
use hiding_lcp_graph::IdAssignment;

/// Runs `decoder` on every node by the paper's definition: extract the
/// radius-r view in the decoder's id mode, decide, collect.
pub fn run_by_definition<D: Decoder + ?Sized>(
    decoder: &D,
    instance: &Instance,
    labeling: &Labeling,
) -> Vec<Verdict> {
    let (radius, id_mode) = (decoder.radius(), decoder.id_mode());
    instance
        .graph()
        .nodes()
        .map(|v| decoder.decide(&instance.view(labeling, v, radius, id_mode)))
        .collect()
}

/// All `|alphabet|^n` labelings in odometer order with node 0 as the least
/// significant digit — the same enumeration order the production
/// `Universe` documents, re-derived independently here.
///
/// # Panics
///
/// Panics if `alphabet` is empty while `n > 0`.
pub fn all_labelings(n: usize, alphabet: &[Certificate]) -> Vec<Labeling> {
    if n == 0 {
        return vec![Labeling::empty(0)];
    }
    assert!(!alphabet.is_empty(), "labelings need an alphabet");
    let mut out = Vec::new();
    let mut digits = vec![0usize; n];
    loop {
        out.push(digits.iter().map(|&d| alphabet[d].clone()).collect());
        let mut i = 0;
        while i < n {
            digits[i] += 1;
            if digits[i] < alphabet.len() {
                break;
            }
            digits[i] = 0;
            i += 1;
        }
        if i == n {
            return out;
        }
    }
}

/// The instances of the Lemma 3.1 family in the flat order the
/// production universe documents: each connected graph on `1..=max_n`
/// nodes in the graph enumerator's order, under each of its port
/// assignments in enumeration order, with canonical identifiers. Crossed
/// with every labeling in odometer order ([`all_labelings`]) they are the
/// full family, nothing skipped, which [`LabelingsWalk`] walks.
pub fn lemma31_instances(max_n: usize) -> Vec<Instance> {
    let mut instances = Vec::new();
    for g in hiding_lcp_graph::generators::connected_graphs_up_to(max_n) {
        let n = g.node_count();
        for ports in hiding_lcp_graph::ports::all_port_assignments(&g, 100_000) {
            instances.push(
                Instance::new(g.clone(), ports, IdAssignment::canonical(n))
                    .expect("enumerated port assignments fit their graph"),
            );
        }
    }
    instances
}

/// Whether `g` admits a proper `k`-coloring, by enumerating all `k^n`
/// assignments. Deliberately *not* the graph crate's DSATUR search.
pub fn k_colorable(g: &Graph, k: usize) -> bool {
    let n = g.node_count();
    if n == 0 {
        return true;
    }
    if k == 0 {
        return false;
    }
    let mut colors = vec![0usize; n];
    loop {
        if g.edges().all(|(u, v)| colors[u] != colors[v]) {
            return true;
        }
        let mut i = 0;
        while i < n {
            colors[i] += 1;
            if colors[i] < k {
                break;
            }
            colors[i] = 0;
            i += 1;
        }
        if i == n {
            return false;
        }
    }
}

/// The subgraph of `g` induced by `keep` (which must be sorted, as the
/// production checkers pass accepting sets), rebuilt by hand: new node `i`
/// is old node `keep[i]`, and an edge survives iff both endpoints are
/// kept. Deliberately *not* [`Graph::induced`].
pub fn induced(g: &Graph, keep: &[usize]) -> Graph {
    let mut new_of_old = vec![usize::MAX; g.node_count()];
    for (new, &old) in keep.iter().enumerate() {
        new_of_old[old] = new;
    }
    let mut sub = Graph::new(keep.len());
    for (u, v) in g.edges() {
        let (nu, nv) = (new_of_old[u], new_of_old[v]);
        if nu != usize::MAX && nv != usize::MAX {
            sub.add_edge(nu, nv).expect("kept endpoints are in range");
        }
    }
    sub
}

/// Completeness by definition: for each instance in order, the prover must
/// certify and every node must accept. Mirrors the shape of the
/// production [`CompletenessReport`] exactly so differential tests can
/// `assert_eq!` whole reports.
pub fn completeness<D: Decoder + ?Sized, P: Prover + ?Sized>(
    decoder: &D,
    prover: &P,
    instances: &[Instance],
) -> CompletenessReport {
    let mut report = CompletenessReport {
        passed: 0,
        failures: Vec::new(),
        max_certificate_bits: 0,
    };
    for (idx, instance) in instances.iter().enumerate() {
        let Some(labeling) = prover.certify(instance) else {
            report
                .failures
                .push(CompletenessFailure::ProverDeclined { instance: idx });
            continue;
        };
        let bits = labeling.max_bits();
        let verdicts = run_by_definition(decoder, instance, &labeling);
        match verdicts.iter().position(|v| !v.is_accept()) {
            Some(node) => report.failures.push(CompletenessFailure::NodeRejected {
                instance: idx,
                node,
            }),
            None => {
                report.passed += 1;
                report.max_certificate_bits = report.max_certificate_bits.max(bits);
            }
        }
    }
    report
}

/// Soundness by definition: the first labeling (in odometer order) that
/// every node accepts, or `Ok(count)` after exhausting the alphabet.
pub fn soundness<D: Decoder + ?Sized>(
    decoder: &D,
    instance: &Instance,
    alphabet: &[Certificate],
) -> Result<usize, SoundnessViolation> {
    let n = instance.graph().node_count();
    let mut checked = 0;
    for labeling in all_labelings(n, alphabet) {
        checked += 1;
        if run_by_definition(decoder, instance, &labeling)
            .iter()
            .all(|v| v.is_accept())
        {
            return Err(SoundnessViolation { labeling });
        }
    }
    Ok(checked)
}

/// The number of unanimously accepted labelings — soundness without the
/// short-circuit, for metamorphic relations that compare whole counts
/// across transformed instances.
pub fn unanimous_count<D: Decoder + ?Sized>(
    decoder: &D,
    instance: &Instance,
    alphabet: &[Certificate],
) -> usize {
    all_labelings(instance.graph().node_count(), alphabet)
        .iter()
        .filter(|l| {
            run_by_definition(decoder, instance, l)
                .iter()
                .all(|v| v.is_accept())
        })
        .count()
}

/// Strong soundness by definition: for the first labeling whose accepting
/// set induces a graph with no proper `k`-coloring, the violation; else
/// `Ok(count)`. Colorability and the induced subgraph are both
/// brute-forced here, independent of the graph crate.
pub fn strong<D: Decoder + ?Sized>(
    decoder: &D,
    k: usize,
    instance: &Instance,
    alphabet: &[Certificate],
) -> Result<usize, StrongViolation> {
    let n = instance.graph().node_count();
    let mut checked = 0;
    for labeling in all_labelings(n, alphabet) {
        checked += 1;
        let accepting: Vec<usize> = run_by_definition(decoder, instance, &labeling)
            .iter()
            .enumerate()
            .filter_map(|(v, verdict)| verdict.is_accept().then_some(v))
            .collect();
        if !k_colorable(&induced(instance.graph(), &accepting), k) {
            return Err(StrongViolation {
                labeling,
                accepting,
            });
        }
    }
    Ok(checked)
}

/// An audit's labelings panel by definition, walked over every item.
pub struct LabelingsWalk {
    /// How many items the walk visited.
    pub items: usize,
    /// The first item of a no-instance (no proper `k`-coloring) that
    /// every node accepts, with its labeling: where soundness stops.
    pub soundness_stop: Option<(usize, Labeling)>,
    /// The first item whose accepting set induces a graph with no proper
    /// `k`-coloring, with its labeling: where strong soundness stops.
    pub strong_stop: Option<(usize, Labeling)>,
    /// `V(D, ·)` over the `k`-colorable instances.
    pub views: ViewGraph,
}

impl LabelingsWalk {
    /// Walks every labeling over `alphabet` of every instance, in order
    /// (e.g. [`lemma31_instances`]), deciding every node by definition.
    pub fn new<D: Decoder + ?Sized>(
        decoder: &D,
        k: usize,
        instances: &[Instance],
        alphabet: &[Certificate],
    ) -> Self {
        let mut walk = LabelingsWalk {
            items: 0,
            soundness_stop: None,
            strong_stop: None,
            views: ViewGraph::empty(),
        };
        for instance in instances {
            let g = instance.graph();
            let yes = k_colorable(g, k);
            for labeling in all_labelings(g.node_count(), alphabet) {
                let i = walk.items;
                walk.items += 1;
                let verdicts = run_by_definition(decoder, instance, &labeling);
                let accepting: Vec<usize> = (0..verdicts.len())
                    .filter(|&v| verdicts[v].is_accept())
                    .collect();
                if walk.soundness_stop.is_none() && !yes && accepting.len() == verdicts.len() {
                    walk.soundness_stop = Some((i, labeling.clone()));
                }
                if walk.strong_stop.is_none() && !k_colorable(&induced(g, &accepting), k) {
                    walk.strong_stop = Some((i, labeling.clone()));
                }
                if yes {
                    walk.views
                        .add(decoder.radius(), instance, &labeling, &verdicts);
                }
            }
        }
        walk
    }
}

/// The accepting neighborhood graph `V(D, ·)` by definition (paper,
/// Section 3): one vertex per distinct accepting view (in the extractor's
/// anonymous mode, first-seen order), one edge per pair of adjacent
/// accepting nodes of some labeled yes-instance. `self_loops[i]` marks
/// views adjacent to an equal copy of themselves.
pub struct ViewGraph {
    /// Distinct accepting views, in first-seen (instance, node) order.
    pub views: Vec<View>,
    /// Undirected edges between distinct view indices, deduplicated.
    pub edges: Vec<(usize, usize)>,
    /// `self_loops[i]` ⇔ view `i` is yes-instance-adjacent to itself.
    pub self_loops: Vec<bool>,
}

impl ViewGraph {
    /// Builds `V(D, ·)` over `items`, keeping only those whose graph
    /// passes `is_yes`.
    pub fn build<D: Decoder + ?Sized, F: Fn(&Graph) -> bool>(
        decoder: &D,
        items: &[LabeledInstance],
        is_yes: F,
    ) -> ViewGraph {
        let mut graph = ViewGraph::empty();
        for li in items.iter().filter(|li| is_yes(li.graph())) {
            let verdicts = run_by_definition(decoder, li.instance(), li.labeling());
            graph.add(decoder.radius(), li.instance(), li.labeling(), &verdicts);
        }
        graph
    }

    fn empty() -> ViewGraph {
        ViewGraph {
            views: Vec::new(),
            edges: Vec::new(),
            self_loops: Vec::new(),
        }
    }

    /// Adds one labeled yes-instance, given its node verdicts: its
    /// accepting views and the edges between them.
    fn add(
        &mut self,
        radius: usize,
        instance: &Instance,
        labeling: &Labeling,
        verdicts: &[Verdict],
    ) {
        // Index of each accepting node's anonymous view, interning by
        // linear search (these graphs are tiny by construction).
        let idx_of: Vec<Option<usize>> = instance
            .graph()
            .nodes()
            .map(|v| {
                verdicts[v].is_accept().then(|| {
                    let view = instance.view(labeling, v, radius, IdMode::Anonymous);
                    match self.views.iter().position(|w| *w == view) {
                        Some(i) => i,
                        None => {
                            self.views.push(view);
                            self.self_loops.push(false);
                            self.views.len() - 1
                        }
                    }
                })
            })
            .collect();
        for (u, v) in instance.graph().edges() {
            if let (Some(a), Some(b)) = (idx_of[u], idx_of[v]) {
                if a == b {
                    self.self_loops[a] = true;
                } else {
                    let e = (a.min(b), a.max(b));
                    if !self.edges.contains(&e) {
                        self.edges.push(e);
                    }
                }
            }
        }
    }

    /// Whether the view graph admits a proper `k`-coloring: no self-loops
    /// and a brute-forced proper coloring of the loop-free part.
    pub fn k_colorable(&self, k: usize) -> bool {
        if self.self_loops.iter().any(|&l| l) {
            return false;
        }
        let mut g = Graph::new(self.views.len());
        for &(a, b) in &self.edges {
            g.add_edge(a, b).expect("view indices in range");
        }
        k_colorable(&g, k)
    }

    /// The hiding predicate of Lemma 3.2: `D` is hiding iff `V(D, n)` is
    /// **not** `k`-colorable.
    pub fn hiding(&self, k: usize) -> bool {
        !self.k_colorable(k)
    }

    /// Connected components of the view graph (a self-loop keeps its view
    /// in its component), by plain BFS.
    pub fn components(&self) -> Vec<Vec<usize>> {
        let mut adj = vec![Vec::new(); self.views.len()];
        for &(a, b) in &self.edges {
            adj[a].push(b);
            adj[b].push(a);
        }
        let mut seen = vec![false; self.views.len()];
        let mut comps = Vec::new();
        for start in 0..self.views.len() {
            if seen[start] {
                continue;
            }
            let mut comp = vec![start];
            seen[start] = true;
            let mut frontier = vec![start];
            while let Some(v) = frontier.pop() {
                for &w in &adj[v] {
                    if !seen[w] {
                        seen[w] = true;
                        comp.push(w);
                        frontier.push(w);
                    }
                }
            }
            comp.sort_unstable();
            comps.push(comp);
        }
        comps
    }

    /// Per-view unextractability (the quantified-hiding measure): a view
    /// is unextractable iff its connected component — self-loops
    /// included — has no proper `k`-coloring.
    pub fn unextractable(&self, k: usize) -> Vec<bool> {
        let mut flags = vec![false; self.views.len()];
        for comp in self.components() {
            let poisoned = comp.iter().any(|&i| self.self_loops[i]);
            let sub = {
                let mut idx_of = vec![usize::MAX; self.views.len()];
                for (new, &old) in comp.iter().enumerate() {
                    idx_of[old] = new;
                }
                let mut g = Graph::new(comp.len());
                for &(a, b) in &self.edges {
                    if idx_of[a] != usize::MAX && idx_of[b] != usize::MAX {
                        g.add_edge(idx_of[a], idx_of[b]).expect("component edge");
                    }
                }
                g
            };
            if poisoned || !k_colorable(&sub, k) {
                for &i in &comp {
                    flags[i] = true;
                }
            }
        }
        flags
    }

    /// The hidden fraction of `li`'s nodes: those whose anonymous view is
    /// absent from the graph or sits in an unextractable component.
    pub fn hidden_fraction(&self, radius: usize, li: &LabeledInstance, k: usize) -> f64 {
        let n = li.graph().node_count();
        if n == 0 {
            return 0.0;
        }
        let unext = self.unextractable(k);
        let hidden = li
            .graph()
            .nodes()
            .filter(|&v| {
                let view = li.view(v, radius, IdMode::Anonymous);
                match self.views.iter().position(|w| *w == view) {
                    Some(i) => unext[i],
                    None => true,
                }
            })
            .count();
        hidden as f64 / n as f64
    }
}

/// Erasure reaction by definition: blank the targets' certificates and
/// count rejecting nodes with a fresh per-node decode.
pub fn erasure<D: Decoder + ?Sized>(
    decoder: &D,
    li: &LabeledInstance,
    targets: &[usize],
) -> ErasureOutcome {
    let mut labeling = li.labeling().clone();
    for &v in targets {
        labeling.set(v, Certificate::empty());
    }
    let rejecting = run_by_definition(decoder, li.instance(), &labeling)
        .iter()
        .filter(|v| !v.is_accept())
        .count();
    ErasureOutcome {
        erased: targets.len(),
        rejecting,
    }
}

/// Invariance by definition: for each identifier variant in order, the
/// first node whose verdict differs from the baseline assignment's.
pub fn invariance<D: Decoder + ?Sized>(
    decoder: &D,
    instance: &Instance,
    labeling: &Labeling,
    variants: &[IdAssignment],
) -> Result<(), InvarianceViolation> {
    let base = run_by_definition(decoder, instance, labeling);
    for ids in variants {
        let alt = instance
            .replace_ids(ids.clone())
            .expect("variant ids fit the graph");
        let verdicts = run_by_definition(decoder, &alt, labeling);
        if let Some(node) = (0..base.len()).find(|&v| base[v] != verdicts[v]) {
            return Err(InvarianceViolation {
                ids: ids.clone(),
                node,
            });
        }
    }
    Ok(())
}
