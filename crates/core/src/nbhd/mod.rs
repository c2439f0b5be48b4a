//! The accepting neighborhood graph `V(D, n)` (paper, Section 3).
//!
//! `AViews(D, n)` is the set of views accepted by `D` somewhere in a
//! labeled yes-instance; `V(D, n)` connects two accepting views iff they
//! are *yes-instance-compatible* (they occur at the two endpoints of an
//! edge of some labeled yes-instance). Lemma 3.1 constructs `V(D, n)` by
//! iterating over labeled yes-instances; [`NbhdGraph::build`] is that
//! algorithm over a caller-supplied instance universe, and
//! [`sources`] produces the universes (exhaustive for small n, or the
//! paper's seeded figures). The one construction is the engine sweep
//! [`NbhdSweep`].
//!
//! Lemma 3.2 then characterizes hiding: `D` hides a k-coloring iff
//! `V(D, n)` is not k-colorable — i.e. iff [`NbhdGraph::odd_cycle`]
//! succeeds (for k = 2) or [`NbhdGraph::k_colorable`] fails.

pub mod sources;

use crate::decoder::Decoder;
use crate::instance::LabeledInstance;
use crate::verify::{
    Coverage, InternerReport, ItemCtx, PropertyCheck, SweepOutcome, SweepSession, SymmetrySpec,
    Universe, UniverseItem, VerificationReport, ViewId, ViewInterner,
};
use crate::view::{IdMode, View};
use hiding_lcp_graph::algo::{bipartite, coloring};
use hiding_lcp_graph::Graph;
use std::collections::{BTreeSet, HashMap};

/// Per-item evidence of the Lemma 3.1 sweep: every node's canonical view
/// (in the neighborhood graph's id mode) as an id into the sweep's
/// [`ViewInterner`], plus its acceptance flag and how many items of the
/// universe the item stands for ([`ItemCtx::multiplicity`]). Interned ids
/// keep the per-item evidence at two machine words per node — the sweep
/// no longer clones one [`View`] per node per labeling.
#[derive(Debug, Clone)]
pub struct NbhdScan {
    view_ids: Vec<ViewId>,
    accepts: Vec<bool>,
    multiplicity: u64,
}

/// The Lemma 3.1 construction as a [`PropertyCheck`]: inspection scans one
/// labeled yes-instance (no-instances yield no partial), and the reduce
/// step builds [`NbhdGraph`] in two passes over the retained partials in
/// item order: accepting views first, then the compatibility edges of
/// every retained item. Each view, edge and self-loop keeps its first
/// witness in that order.
///
/// Views are hash-consed through an owned [`ViewInterner`]: within one
/// sweep every distinct view is stamped and stored once, and wherever the
/// walk supplies odometer digits the interner's dense front cache resolves
/// a repeat view with one relaxed load, without stamping it, locking or
/// hashing. The interner is part of the check's state, so a
/// budgeted/resumed chain must reuse the *same* check instance for its
/// ids to stay meaningful (ids are opaque and run-specific; the reduce
/// step derives all ordering from item order, never id order). A check
/// instance is likewise tied to the universe it was built for, and to the
/// member list it first walks in: the front cache is keyed by the engine's
/// skeleton classes.
pub struct NbhdSweep<'a, D: ?Sized> {
    decoder: &'a D,
    id_mode: IdMode,
    /// Whether each universe block's graph passed the `is_yes` filter
    /// (evaluated once per block, not once per labeling).
    block_yes: Vec<bool>,
    interner: ViewInterner,
}

impl<'a, D: Decoder + ?Sized> NbhdSweep<'a, D> {
    /// Prepares a sweep of `universe`, retaining only blocks whose graph
    /// satisfies `is_yes`.
    pub fn new<F>(decoder: &'a D, id_mode: IdMode, universe: &Universe, is_yes: F) -> Self
    where
        F: Fn(&Graph) -> bool,
    {
        let block_yes = universe
            .blocks()
            .iter()
            .map(|b| is_yes(b.instance().graph()))
            .collect();
        NbhdSweep {
            decoder,
            id_mode,
            block_yes,
            interner: ViewInterner::new(),
        }
    }

    /// `(front-cache hits, misses)` of the sweep's view interner so far: a
    /// hit resolved a node's view id from its front-cache slot without
    /// stamping the view.
    pub fn interner_stats(&self) -> (usize, usize) {
        self.interner.stats()
    }
}

impl<D: Decoder + ?Sized> PropertyCheck for NbhdSweep<'_, D> {
    type Partial = NbhdScan;
    type Verdict = NbhdGraph;

    fn view_configs(&self) -> Vec<(usize, IdMode)> {
        vec![
            (self.decoder.radius(), self.decoder.id_mode()),
            (self.decoder.radius(), self.id_mode),
        ]
    }

    fn inspect(&self, item: &UniverseItem<'_>, ctx: &ItemCtx<'_>) -> Option<NbhdScan> {
        if !self.block_yes[item.block] {
            return None;
        }
        let accepts = ctx
            .verdicts(item, self.decoder)
            .iter()
            .map(|v| v.is_accept())
            .collect();
        let view_ids = self
            .interner
            .intern_views(item, ctx, self.decoder.radius(), self.id_mode);
        Some(NbhdScan {
            view_ids,
            accepts,
            multiplicity: ctx.multiplicity(),
        })
    }

    fn verdict_decoder(&self) -> Option<&dyn Decoder> {
        Some(&self.decoder)
    }

    fn uses_verdicts(&self, block: usize) -> bool {
        // No-instance blocks are dropped before any verdict is read, so
        // the executor shouldn't maintain verdicts there at all.
        self.block_yes[block]
    }

    // Automorphisms only: permuting an anonymous labeling permutes which
    // node holds which view but not the *set* of (view, accept) pairs the
    // scan contributes, and yes-instance-compatibility edges are read off
    // adjacent node pairs, which automorphisms preserve. Certificate swaps
    // are NOT declared -- they change the views themselves, so a quotient
    // over them would drop views from `AViews(D, n)`.
    fn symmetry_class(&self, _alphabet: &[crate::label::Certificate]) -> Option<SymmetrySpec> {
        (self.decoder.id_mode() == IdMode::Anonymous && self.id_mode == IdMode::Anonymous)
            .then_some(SymmetrySpec {
                automorphisms: true,
                alphabet_classes: None,
            })
    }

    fn interner_report(&self) -> Option<InternerReport> {
        Some(self.interner.report())
    }

    fn reduce(
        &self,
        universe: &Universe,
        partials: Vec<(usize, NbhdScan)>,
        _outcome: &SweepOutcome,
    ) -> NbhdGraph {
        // Resolve ids once; `at[id]` = the view's NbhdGraph index, filled
        // in deterministic insertion order below (ids themselves are
        // run-specific and never ordered on). Until the end, witnesses
        // name retained positions: indices into `partials`.
        let table = self.interner.snapshot();
        let mut at: Vec<Option<usize>> = vec![None; table.len()];
        let mut nbhd = NbhdGraph {
            radius: self.decoder.radius(),
            id_mode: self.id_mode,
            views: Vec::new(),
            index: HashMap::new(),
            adj: Vec::new(),
            view_witness: Vec::new(),
            edge_witness: HashMap::new(),
            self_loops: HashMap::new(),
            instances: Vec::new(),
            retained: partials.iter().map(|(_, scan)| scan.multiplicity).sum(),
        };
        // Pass 1: retained items in item order, nodes in order, accepting
        // views dedup-inserted.
        for (pos, (_, scan)) in partials.iter().enumerate() {
            for (v, &id) in scan.view_ids.iter().enumerate() {
                if !scan.accepts[v] || at[id as usize].is_some() {
                    continue;
                }
                let view = &table[id as usize];
                let idx = nbhd.views.len();
                at[id as usize] = Some(idx);
                nbhd.index.insert(view.clone(), idx);
                nbhd.views.push(view.clone());
                nbhd.adj.push(BTreeSet::new());
                nbhd.view_witness.push((pos, v));
            }
        }
        // Pass 2: yes-instance-compatibility edges over all retained
        // items, read off each item's block graph. Both endpoint views
        // must lie in AViews; the witnessing nodes need not accept in the
        // witnessing item, so a later item's view can activate an edge of
        // an earlier one.
        for (pos, (item, scan)) in partials.iter().enumerate() {
            let block = &universe.blocks()[universe.locate(*item).0];
            for (u, v) in block.instance().graph().edges() {
                let a = at[scan.view_ids[u] as usize];
                let b = at[scan.view_ids[v] as usize];
                if let (Some(a), Some(b)) = (a, b) {
                    if a == b {
                        #[cfg(conformance_mutants)]
                        if crate::mutants::active("nbhd_selfloop_dropped") {
                            continue;
                        }
                        nbhd.self_loops.entry(a).or_insert((pos, (u, v)));
                    } else {
                        nbhd.adj[a].insert(b);
                        nbhd.adj[b].insert(a);
                        nbhd.edge_witness
                            .entry((a.min(b), a.max(b)))
                            .or_insert((pos, (u, v)));
                    }
                }
            }
        }
        // Materialize only the named positions, in item order, and
        // renumber every witness into that list.
        let mut named: Vec<usize> = nbhd.view_witness.iter().map(|w| w.0).collect();
        named.extend(
            nbhd.edge_witness
                .values()
                .chain(nbhd.self_loops.values())
                .map(|w| w.0),
        );
        named.sort_unstable();
        named.dedup();
        let rank = |pos: usize| {
            let rank = named.binary_search(&pos).expect("every witness is named");
            #[cfg(conformance_mutants)]
            if crate::mutants::active("witness_remap_off_by_one") {
                return (rank + 1) % named.len();
            }
            rank
        };
        for w in &mut nbhd.view_witness {
            w.0 = rank(w.0);
        }
        for w in nbhd
            .edge_witness
            .values_mut()
            .chain(nbhd.self_loops.values_mut())
        {
            w.0 = rank(w.0);
        }
        nbhd.instances = named
            .iter()
            .map(|&pos| universe.labeled_instance(partials[pos].0))
            .collect();
        nbhd
    }
}

/// The accepting neighborhood graph, with full provenance: every view,
/// edge and self-loop remembers a witnessing instance. Of the labeled
/// yes-instances it swept, the graph keeps the witnessing ones
/// ([`NbhdGraph::instances`]) and a count of all
/// ([`NbhdGraph::retained_count`]).
///
/// # Example
///
/// ```
/// use hiding_lcp_core::nbhd::NbhdGraph;
/// use hiding_lcp_core::decoder::{Decoder, Verdict};
/// use hiding_lcp_core::instance::Instance;
/// use hiding_lcp_core::label::Labeling;
/// use hiding_lcp_core::view::{IdMode, View};
/// use hiding_lcp_graph::generators;
///
/// struct AcceptAll;
/// impl Decoder for AcceptAll {
///     fn name(&self) -> String { "accept-all".into() }
///     fn radius(&self) -> usize { 1 }
///     fn id_mode(&self) -> IdMode { IdMode::Full }
///     fn decide(&self, _v: &View) -> Verdict { Verdict::Accept }
/// }
///
/// let li = Instance::canonical(generators::path(3)).with_labeling(Labeling::empty(3));
/// let nbhd = NbhdGraph::build(&AcceptAll, IdMode::Full, vec![li], |g| {
///     hiding_lcp_graph::algo::bipartite::is_bipartite(g)
/// });
/// assert_eq!(nbhd.view_count(), 3);
/// assert_eq!(nbhd.edge_count(), 2);
/// assert!(nbhd.odd_cycle().is_none());
/// ```
#[derive(Debug, Clone)]
pub struct NbhdGraph {
    radius: usize,
    id_mode: IdMode,
    views: Vec<View>,
    index: HashMap<View, usize>,
    adj: Vec<BTreeSet<usize>>,
    /// For each view: (index into `instances`, node) where it is accepted.
    view_witness: Vec<(usize, usize)>,
    /// For each edge (a < b): (index into `instances`, edge endpoints)
    /// realizing yes-instance compatibility.
    edge_witness: HashMap<(usize, usize), (usize, (usize, usize))>,
    /// Views that are yes-instance-compatible **with themselves**: two
    /// adjacent nodes of a yes-instance share this exact view. A self-loop
    /// makes `V(D, n)` non-k-colorable for every k (an extractor would
    /// have to give one view two different colors), so by Lemma 3.2 it
    /// immediately certifies hiding.
    self_loops: HashMap<usize, (usize, (usize, usize))>,
    /// The witnessing instances: every retained labeled yes-instance some
    /// witness names, in item order.
    instances: Vec<LabeledInstance>,
    /// How many labeled yes-instances the construction retained, each
    /// item counted with its multiplicity.
    retained: u64,
}

impl NbhdGraph {
    /// Lemma 3.1: constructs `V(D, ·)` over the given instance universe.
    ///
    /// * Only instances whose graph satisfies `is_yes` participate
    ///   (labeled **yes**-instances; for `2-col` pass bipartiteness or the
    ///   promise class H, per Section 2.5).
    /// * Views are canonicalized with `id_mode` — the identifier
    ///   sensitivity of the *extractor class* being reasoned about, which
    ///   for an anonymous LCP is [`IdMode::Anonymous`] (the hiding
    ///   definition quantifies over anonymous decoders `D'`) and for the
    ///   general model is [`IdMode::Full`].
    /// * Acceptance is decided by `decoder` on views canonicalized to the
    ///   decoder's **own** id mode, independent of `id_mode`.
    pub fn build<D, F>(
        decoder: &D,
        id_mode: IdMode,
        instances: Vec<LabeledInstance>,
        is_yes: F,
    ) -> Self
    where
        D: Decoder + ?Sized,
        F: Fn(&Graph) -> bool,
    {
        let universe = Universe::from_labeled(instances, Coverage::Sampled)
            .expect("one item per materialized instance fits usize");
        Self::from_sweep(decoder, id_mode, &universe, is_yes).verdict
    }

    /// Lemma 3.1 on the verification engine: sweeps `universe` (see
    /// [`crate::verify::Universe`] for exhaustive constructors) and returns
    /// the neighborhood graph together with the sweep's
    /// [`VerificationReport`] evidence — instances checked, view-cache
    /// hits, elapsed time, thread count. [`NbhdGraph::build`] is this with
    /// the evidence discarded.
    pub fn from_sweep<D, F>(
        decoder: &D,
        id_mode: IdMode,
        universe: &Universe,
        is_yes: F,
    ) -> VerificationReport<NbhdGraph>
    where
        D: Decoder + ?Sized,
        F: Fn(&Graph) -> bool,
    {
        let check = NbhdSweep::new(decoder, id_mode, universe, is_yes);
        SweepSession::over(universe).run(&check)
    }

    /// The verification radius `r`.
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// The identifier mode views were canonicalized with.
    pub fn id_mode(&self) -> IdMode {
        self.id_mode
    }

    /// Number of accepting views (nodes of `V(D, n)`).
    pub fn view_count(&self) -> usize {
        self.views.len()
    }

    /// Number of compatibility edges.
    pub fn edge_count(&self) -> usize {
        self.edge_witness.len()
    }

    /// The view at index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn view(&self, i: usize) -> &View {
        &self.views[i]
    }

    /// All views in insertion (deterministic) order.
    pub fn views(&self) -> &[View] {
        &self.views
    }

    /// The index of a view, if present.
    pub fn index_of(&self, view: &View) -> Option<usize> {
        self.index.get(view).copied()
    }

    /// Neighbors of view `i`, sorted.
    pub fn neighbors(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.adj[i].iter().copied()
    }

    /// Whether views `a` and `b` are yes-instance-compatible.
    pub fn has_edge(&self, a: usize, b: usize) -> bool {
        self.adj.get(a).is_some_and(|s| s.contains(&b))
    }

    /// The witnessing instances: each retained labeled yes-instance some
    /// witness names, once, in item order. The witness accessors index
    /// into this slice; [`NbhdGraph::retained_count`] counts all retained.
    pub fn instances(&self) -> &[LabeledInstance] {
        &self.instances
    }

    /// How many labeled yes-instances of the universe the sweep retained:
    /// the multiplicities ([`ItemCtx::multiplicity`]) of the retained
    /// items summed, so a walk that jumps copy blocks or skips orbit
    /// members reports the full walk's count.
    pub fn retained_count(&self) -> usize {
        usize::try_from(self.retained).expect("a retained count fits the flat index space")
    }

    /// `(i, v)`: view `index` is accepted at node `v` of
    /// [`instances`](Self::instances)`()[i]`, its first such node in item order.
    pub fn view_witness(&self, index: usize) -> (usize, usize) {
        self.view_witness[index]
    }

    /// `(i, (u, v))`: `{u, v}` is the first edge in item order whose
    /// endpoint views are `a` and `b` (either way round), an edge of
    /// [`instances`](Self::instances)`()[i]`. `None` if `{a, b}` is no edge.
    pub fn edge_witness(&self, a: usize, b: usize) -> Option<(usize, (usize, usize))> {
        self.edge_witness.get(&(a.min(b), a.max(b))).copied()
    }

    /// Views that are compatible with themselves, sorted.
    pub fn self_loop_views(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self.self_loops.keys().copied().collect();
        out.sort_unstable();
        out
    }

    /// The witness of a self-loop at view `i`: `(j, (u, v))`, the first edge
    /// in item order whose endpoints both have view `i`, an edge of
    /// [`instances`](Self::instances)`()[j]`. `None` without a self-loop.
    pub fn self_loop_witness(&self, i: usize) -> Option<(usize, (usize, usize))> {
        self.self_loops.get(&i).copied()
    }

    /// `V(D, n)` as a plain loop-free [`Graph`] (same node indexing);
    /// self-loops are reported separately via [`Self::self_loop_views`].
    pub fn to_graph(&self) -> Graph {
        let mut g = Graph::new(self.views.len());
        for &(a, b) in self.edge_witness.keys() {
            g.add_edge(a, b).expect("edge witnesses are valid");
        }
        g
    }

    /// An odd closed walk in `V(D, n)`, if one exists — by Lemma 3.2 this
    /// certifies that the decoder hides a 2-coloring (w.r.t. the explored
    /// universe). A self-loop counts as an odd closed walk of length 1.
    pub fn odd_cycle(&self) -> Option<Vec<usize>> {
        if let Some(&i) = self.self_loops.keys().min() {
            return Some(vec![i]);
        }
        bipartite::bipartition(&self.to_graph()).err()
    }

    /// Whether `V(D, n)` is k-colorable. For an exhaustive universe,
    /// `true` means the decoder is **not** hiding (Lemma 3.2 constructs an
    /// extractor; see [`crate::extract`]). Any self-loop makes the graph
    /// non-colorable for every k.
    pub fn k_colorable(&self, k: usize) -> bool {
        self.self_loops.is_empty() && coloring::is_k_colorable(&self.to_graph(), k)
    }

    /// The lexicographically first proper k-coloring of `V(D, n)` in view
    /// insertion order — the deterministic coloring `c` from the proof of
    /// Lemma 3.2. `None` if not k-colorable (in particular whenever a
    /// self-loop exists).
    pub fn lex_coloring(&self, k: usize) -> Option<Vec<usize>> {
        if !self.self_loops.is_empty() {
            return None;
        }
        coloring::lex_first_coloring(&self.to_graph(), k)
    }

    /// Renders `V(D, ·)` in Graphviz DOT format, one node per view with
    /// its [`View::describe`] text — used to regenerate the paper's
    /// Figs. 4 and 6. Self-loop views are annotated.
    pub fn to_dot(&self) -> String {
        let labels: Vec<String> = self
            .views
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let mark = if self.self_loops.contains_key(&i) {
                    " [self-loop]"
                } else {
                    ""
                };
                format!("{}{}", v.describe(), mark)
            })
            .collect();
        hiding_lcp_graph::dot::to_dot(&self.to_graph(), Some(&labels))
    }

    /// The chromatic number of `V(D, ·)`, or `None` when a self-loop makes
    /// it infinite.
    ///
    /// By the contrapositive of Lemma 3.2 this is the decoder's *hiding
    /// spectrum*: a K-coloring can be extracted iff `χ(V(D, ·)) ≤ K`, so
    /// the decoder hides exactly the K-colorings with `K < χ`. The paper's
    /// promise-free-separation program (Section 1) needs a bipartiteness
    /// certificate that hides a **3**-coloring, i.e. `χ(V) > 3`; a
    /// self-loop (as in Lemma 4.2's scheme) hides every `K`.
    pub fn chromatic_number(&self) -> Option<usize> {
        if !self.self_loops.is_empty() {
            return None;
        }
        Some(coloring::chromatic_number(&self.to_graph()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::decoder::{TableDecoder, Verdict};
    use crate::instance::Instance;
    use crate::label::{Certificate, Labeling};
    use hiding_lcp_graph::generators;

    /// Accepts iff the node's certificate differs from all neighbors'
    /// (the revealing 2-coloring LCP, anonymously).
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

    /// A 2-colored cycle with rotation-symmetric ports, so anonymous views
    /// depend only on the center's color.
    fn two_colored_cycle(n: usize) -> LabeledInstance {
        let g = generators::cycle(n);
        let ports = hiding_lcp_graph::ports::cycle_symmetric(&g);
        let inst = Instance::new(g, ports, hiding_lcp_graph::IdAssignment::canonical(n)).unwrap();
        let labels = (0..n)
            .map(|v| Certificate::from_byte((v % 2) as u8))
            .collect();
        inst.with_labeling(labels)
    }

    #[test]
    fn revealing_lcp_has_bipartite_nbhd() {
        let instances = vec![two_colored_cycle(4), two_colored_cycle(6)];
        let nbhd = NbhdGraph::build(&LocalDiff, IdMode::Anonymous, instances, |g| {
            bipartite::is_bipartite(g)
        });
        // Anonymous views on a 2-colored cycle: label 0 with two 1s, or
        // label 1 with two 0s — exactly two views, one edge.
        assert_eq!(nbhd.view_count(), 2);
        assert_eq!(nbhd.edge_count(), 1);
        assert!(nbhd.odd_cycle().is_none());
        assert!(nbhd.k_colorable(2));
        assert_eq!(nbhd.lex_coloring(2), Some(vec![0, 1]));
    }

    #[test]
    fn no_instances_are_filtered_out() {
        let odd = {
            let inst = Instance::canonical(generators::cycle(5));
            inst.with_labeling(Labeling::uniform(5, Certificate::from_byte(0)))
        };
        let nbhd = NbhdGraph::build(&LocalDiff, IdMode::Anonymous, vec![odd], |g| {
            bipartite::is_bipartite(g)
        });
        assert_eq!(nbhd.view_count(), 0);
        assert_eq!(nbhd.instances().len(), 0);
        assert_eq!(nbhd.retained_count(), 0);
    }

    #[test]
    fn rejecting_nodes_contribute_no_views() {
        // A half-bad labeling of C6: nodes 0..3 properly colored, rest
        // constant. Only properly-separated nodes accept.
        let inst = Instance::canonical(generators::cycle(6));
        let labels = Labeling::new(vec![
            Certificate::from_byte(0),
            Certificate::from_byte(1),
            Certificate::from_byte(0),
            Certificate::from_byte(1),
            Certificate::from_byte(1),
            Certificate::from_byte(1),
        ]);
        let li = inst.with_labeling(labels);
        let nbhd = NbhdGraph::build(&LocalDiff, IdMode::Anonymous, vec![li], |g| {
            bipartite::is_bipartite(g)
        });
        // Accepting nodes: 0 (nbrs 1, 1), 1 (nbrs 0,0), 2 (nbrs 1,1),
        // 3 (nbrs 0, 1)? node 3 has neighbors 2 (label 0) and 4 (label 1)
        // = label 1 equals neighbor 4 -> reject. Node 5: label 1,
        // neighbors 4 (1) and 0 (0) -> reject. Node 4: label 1, nbrs 1,1
        // -> reject.
        assert!(nbhd.view_count() >= 2);
        let g = nbhd.to_graph();
        assert!(bipartite::is_bipartite(&g));
        // Provenance round-trips.
        for i in 0..nbhd.view_count() {
            let (inst_idx, node) = nbhd.view_witness(i);
            let li = &nbhd.instances()[inst_idx];
            assert_eq!(li.view(node, 1, IdMode::Anonymous), *nbhd.view(i));
        }
    }

    #[test]
    fn identical_adjacent_views_form_self_loops() {
        // Accept-everything on an unlabeled C4: anonymously all four views
        // coincide, so the single view is compatible with itself.
        struct YesMan;
        impl Decoder for YesMan {
            fn name(&self) -> String {
                "yes-man".into()
            }
            fn radius(&self) -> usize {
                1
            }
            fn id_mode(&self) -> IdMode {
                IdMode::Anonymous
            }
            fn decide(&self, _view: &View) -> Verdict {
                Verdict::Accept
            }
        }
        let g = generators::cycle(4);
        let ports = hiding_lcp_graph::ports::cycle_symmetric(&g);
        let inst = Instance::new(g, ports, hiding_lcp_graph::IdAssignment::canonical(4)).unwrap();
        let li = inst.with_labeling(Labeling::empty(4));
        let nbhd = NbhdGraph::build(&YesMan, IdMode::Anonymous, vec![li], |g| {
            bipartite::is_bipartite(g)
        });
        assert_eq!(nbhd.view_count(), 1);
        assert_eq!(nbhd.self_loop_views(), vec![0]);
        assert!(nbhd.self_loop_witness(0).is_some());
        assert_eq!(nbhd.odd_cycle(), Some(vec![0]));
        assert!(!nbhd.k_colorable(7), "self-loops defeat every palette");
        assert_eq!(nbhd.lex_coloring(2), None);
    }

    #[test]
    fn dot_export_renders_views_and_marks_self_loops() {
        struct YesMan2;
        impl Decoder for YesMan2 {
            fn name(&self) -> String {
                "yes".into()
            }
            fn radius(&self) -> usize {
                1
            }
            fn id_mode(&self) -> IdMode {
                IdMode::Anonymous
            }
            fn decide(&self, _v: &View) -> Verdict {
                Verdict::Accept
            }
        }
        let g = generators::cycle(4);
        let ports = hiding_lcp_graph::ports::cycle_symmetric(&g);
        let inst = Instance::new(g, ports, hiding_lcp_graph::IdAssignment::canonical(4)).unwrap();
        let li = inst.with_labeling(Labeling::empty(4));
        let nbhd = NbhdGraph::build(&YesMan2, IdMode::Anonymous, vec![li], |g| {
            bipartite::is_bipartite(g)
        });
        let dot = nbhd.to_dot();
        assert!(dot.starts_with("graph {"));
        assert!(dot.contains("[self-loop]"));
    }

    #[test]
    fn incremental_extension_matches_batch_build() {
        // Growing the universe one instance at a time and rebuilding over
        // each prefix ends at the batch build's graph.
        let universe = vec![
            two_colored_cycle(4),
            two_colored_cycle(6),
            two_colored_cycle(8),
        ];
        let batch = NbhdGraph::build(&LocalDiff, IdMode::Anonymous, universe.clone(), |g| {
            bipartite::is_bipartite(g)
        });
        let mut incremental = NbhdGraph::build(
            &LocalDiff,
            IdMode::Anonymous,
            Vec::new(),
            bipartite::is_bipartite,
        );
        for end in 1..=universe.len() {
            let grown = NbhdGraph::build(
                &LocalDiff,
                IdMode::Anonymous,
                universe[..end].to_vec(),
                bipartite::is_bipartite,
            );
            assert!(
                grown.view_count() >= incremental.view_count(),
                "AViews only grow"
            );
            assert!(
                grown.edge_count() >= incremental.edge_count(),
                "edges only grow"
            );
            incremental = grown;
        }
        assert_eq!(incremental.view_count(), batch.view_count());
        assert_eq!(incremental.edge_count(), batch.edge_count());
        assert_eq!(incremental.self_loop_views(), batch.self_loop_views());
        for i in 0..batch.view_count() {
            let j = incremental.index_of(batch.view(i)).expect("same views");
            let batch_nbrs: Vec<_> = batch.neighbors(i).map(|x| batch.view(x).clone()).collect();
            for nbr in batch_nbrs {
                let jn = incremental.index_of(&nbr).unwrap();
                assert!(incremental.has_edge(j, jn));
            }
        }
    }

    #[test]
    fn extension_activates_old_instances_edges() {
        // An instance where only one endpoint of an edge accepts: the edge
        // is absent until a richer acceptance set over a grown universe
        // makes the other view accepting.
        let inst = Instance::canonical(generators::path(2));
        let li_a = inst.clone().with_labeling(Labeling::new(vec![
            Certificate::from_byte(0),
            Certificate::from_byte(1),
        ]));
        let view_of_zero = li_a.view(0, 1, IdMode::Anonymous);
        let view_of_one = li_a.view(1, 1, IdMode::Anonymous);
        // A decoder that accepts only node 0's view.
        let only_zero = TableDecoder::new(
            "only-zero",
            1,
            IdMode::Anonymous,
            [view_of_zero.clone()],
            Verdict::Reject,
        );
        let nbhd = NbhdGraph::build(&only_zero, IdMode::Anonymous, vec![li_a.clone()], |_| true);
        assert_eq!(nbhd.view_count(), 1);
        assert_eq!(nbhd.edge_count(), 0, "partner view not accepting yet");
        // A decoder accepting both views (simulating a richer acceptance
        // set) over the grown universe: the OLD instance's edge must now
        // appear.
        let both = TableDecoder::new(
            "both",
            1,
            IdMode::Anonymous,
            [view_of_zero, view_of_one],
            Verdict::Reject,
        );
        let nbhd = NbhdGraph::build(&both, IdMode::Anonymous, vec![li_a.clone(), li_a], |_| true);
        assert_eq!(nbhd.view_count(), 2);
        assert_eq!(nbhd.edge_count(), 1, "old edge activated by the new view");
    }

    #[test]
    fn an_earlier_instance_witnesses_an_edge_a_later_one_activates() {
        // The decoder reads identifiers, the graph's views do not: on P2
        // labeled (0, 1) it accepts the node with id 1 only. Instance A
        // (ids 1, 2) accepts node 0; instance B (ids 2, 1) accepts node 1,
        // whose anonymous view equals A's rejecting node 1. So A's edge
        // joins two accepting views although A accepts one endpoint.
        struct OddId;
        impl Decoder for OddId {
            fn name(&self) -> String {
                "odd-id".into()
            }
            fn radius(&self) -> usize {
                1
            }
            fn id_mode(&self) -> IdMode {
                IdMode::Full
            }
            fn decide(&self, view: &View) -> Verdict {
                Verdict::from(view.center_id() == Some(1))
            }
        }
        let labeled = |ids: Vec<u64>| {
            Instance::with_ids(
                generators::path(2),
                hiding_lcp_graph::IdAssignment::from_ids(ids, 64).unwrap(),
            )
            .unwrap()
            .with_labeling(Labeling::new(vec![
                Certificate::from_byte(0),
                Certificate::from_byte(1),
            ]))
        };
        let (a, b) = (labeled(vec![1, 2]), labeled(vec![2, 1]));
        let alone = NbhdGraph::build(&OddId, IdMode::Anonymous, vec![a.clone()], |_| true);
        assert_eq!((alone.view_count(), alone.edge_count()), (1, 0));
        let nbhd = NbhdGraph::build(
            &OddId,
            IdMode::Anonymous,
            vec![a.clone(), b.clone()],
            |_| true,
        );
        assert_eq!(nbhd.view_count(), 2);
        assert_eq!(nbhd.retained_count(), 2);
        // View 1 is first accepted in B; the edge's first witness is A.
        assert_eq!(nbhd.instances(), &[a, b][..]);
        assert_eq!(nbhd.view_witness(0), (0, 0));
        assert_eq!(nbhd.view_witness(1), (1, 1));
        assert_eq!(nbhd.edge_witness(0, 1), Some((0, (0, 1))));
    }

    #[test]
    fn only_witnessing_instances_are_kept() {
        // Three copies of one 2-colored C4: the first witnesses every view
        // and edge, the other two are counted, not kept.
        let universe = vec![two_colored_cycle(4); 3];
        let nbhd = NbhdGraph::build(
            &LocalDiff,
            IdMode::Anonymous,
            universe.clone(),
            bipartite::is_bipartite,
        );
        assert_eq!(nbhd.retained_count(), 3);
        assert_eq!(nbhd.instances(), &universe[..1]);
        assert_eq!(nbhd.view_witness(0).0, 0);
        assert_eq!(nbhd.edge_witness(0, 1).map(|w| w.0), Some(0));
    }

    #[test]
    fn edge_witnesses_are_recorded() {
        let nbhd = NbhdGraph::build(
            &LocalDiff,
            IdMode::Anonymous,
            vec![two_colored_cycle(4)],
            bipartite::is_bipartite,
        );
        assert_eq!(nbhd.view_count(), 2);
        assert!(nbhd.has_edge(0, 1));
        let (inst_idx, (u, v)) = nbhd.edge_witness(0, 1).unwrap();
        assert_eq!(inst_idx, 0);
        assert!(nbhd.instances()[0].graph().has_edge(u, v));
        assert!(nbhd.edge_witness(0, 5).is_none());
    }
}
