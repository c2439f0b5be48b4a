//! The accepting neighborhood graph `V(D, n)` (paper, Section 3).
//!
//! `AViews(D, n)` is the set of views accepted by `D` somewhere in a
//! labeled yes-instance; `V(D, n)` connects two accepting views iff they
//! are *yes-instance-compatible* (they occur at the two endpoints of an
//! edge of some labeled yes-instance). Lemma 3.1 constructs `V(D, n)` by
//! iterating over labeled yes-instances; [`NbhdGraph::from_sweep`] is that
//! algorithm over a [`Universe`]: the exhaustive family
//! [`Universe::lemma31`] for small n, any other family of
//! [`LabelSource::All`](crate::verify::LabelSource::All) blocks, or, through
//! [`NbhdGraph::build`], a materialized list such as the paper's seeded
//! figures ([`sources`]). The one construction is the engine sweep
//! [`NbhdSweep`]. It keeps no per-item record: each worker keeps only the
//! lowest witness of every accepting view, edge and self-loop it meets,
//! and the reduce reads those witnesses, never the walked items. By
//! Lemma 3.1 the vertices of `V(D, n)` are accepting views, so where a
//! rejecting view can never accept (the scan's views determine the
//! decoder's), the scan does not even intern it.
//!
//! Lemma 3.2 then characterizes hiding: `D` hides a k-coloring iff
//! `V(D, n)` is not k-colorable — i.e. iff [`NbhdGraph::odd_cycle`]
//! succeeds (for k = 2) or [`NbhdGraph::k_colorable`] fails.

pub mod sources;

use crate::decoder::Decoder;
use crate::instance::LabeledInstance;
use crate::verify::{
    Coverage, ItemCtx, PropertyCheck, SweepOutcome, SweepSession, SymmetrySpec, Universe,
    UniverseItem, VerificationReport, ViewId, ViewInterner,
};
use crate::view::{IdMode, View};
use hiding_lcp_graph::algo::{bipartite, coloring};
use hiding_lcp_graph::Graph;
use std::collections::{BTreeSet, HashMap};

/// One item's witnesses in the Lemma 3.1 sweep: the accepting nodes and
/// the edges of a labeled yes-instance, each named by the interned ids of
/// its views in the neighborhood graph's id mode ([`ViewInterner`]). As
/// the engine walks, a worker keeps only the witnesses it has not seen at
/// a lower item ([`PropertyCheck::fold`]), so an item that adds nothing
/// records nothing and the walk's record names only witnessing items.
#[derive(Debug, Clone)]
pub struct NbhdScan {
    /// `(view, node)`: an accepting node and its view, in node order.
    views: Vec<(ViewId, usize)>,
    /// `((a, b), position)`: the edge at `position` of the block graph's
    /// edge list, whose endpoints have views `a ≤ b` (`a == b`: a
    /// self-loop), in edge order.
    edges: Vec<((ViewId, ViewId), usize)>,
}

/// The fold key of view `id`. Ids never reach [`ViewId::MAX`], so no edge
/// key has it as its low half.
fn view_key(id: ViewId) -> u64 {
    u64::from(id) << 32 | u64::from(ViewId::MAX)
}

/// The fold key of an edge (or, for `a == b`, a self-loop) between views
/// `a ≤ b`.
fn edge_key(a: ViewId, b: ViewId) -> u64 {
    u64::from(a) << 32 | u64::from(b)
}

/// Nodes whose view ids an item scan keeps on the stack; a larger block
/// graph takes one heap buffer per item.
const INLINE_NODES: usize = 16;

/// The Lemma 3.1 construction as a [`PropertyCheck`]: inspection scans one
/// labeled yes-instance (no-instances yield no partial) into the accepting
/// views and compatibility edges it witnesses, each worker keeping only
/// each view's, edge's and self-loop's lowest (item, node) or (item, edge
/// position) witness ([`PropertyCheck::fold`]). The reduce reads those
/// witnesses alone, never the walked items: each view, edge and self-loop
/// keeps its first witness in item order, and the views enter `V(D, n)` in
/// the order of their witnesses.
///
/// A decoder's verdict is a function of its view, so when the scan's id
/// mode is at least as fine as the decoder's (every anonymous decoder
/// under the anonymous scan), a rejecting node's view is rejected in every
/// item and never enters `AViews(D, n)`: only accepting nodes' views are
/// interned, and an edge counts where both its endpoints accept. With a
/// coarser scan (a decoder that reads identifiers the views drop), one
/// view can accept in one item and reject in another, so every view is
/// interned and an edge enters `V(D, n)` when both its views are accepted
/// somewhere.
///
/// Views are hash-consed through an owned [`ViewInterner`], one id per
/// distinct view, and named through [`ItemCtx::view_id`]: wherever the
/// walk supplies odometer digits, the walk's view-id table resolves a
/// repeat view with one relaxed load, without stamping it, locking or
/// hashing. The table belongs to the walk; the interner is part of the
/// check's state, so a budgeted/resumed chain must reuse the *same* check
/// instance for its ids to stay meaningful (ids are opaque and
/// run-specific; the reduce step derives all ordering from item order,
/// never id order), and one check may walk solo or beside any other
/// members. A check instance is tied to the universe it was built for:
/// it filters that universe's blocks once, at construction.
pub struct NbhdSweep<'a, D: ?Sized> {
    decoder: &'a D,
    id_mode: IdMode,
    /// Whether the scan's views determine the decoder's (its id mode is
    /// at least as fine), so only accepting views can lie in AViews.
    accepting_only: bool,
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
            // `IdMode` runs from the finest (`Full`) to the coarsest
            // (`Anonymous`) view.
            accepting_only: id_mode <= decoder.id_mode(),
            block_yes,
            interner: ViewInterner::new(),
        }
    }

    /// Distinct views interned so far, over every walk of this check.
    /// Where the scan interns only accepting views, this is the view count
    /// of `V(D, n)`.
    pub fn interned_views(&self) -> usize {
        self.interner.len()
    }

    /// Scans one item: every accepting node's view, then every edge whose
    /// endpoints both have a view id, each kept when `claim` admits its
    /// key. The decoder runs before the first claim.
    fn scan(
        &self,
        item: &UniverseItem<'_>,
        ctx: &ItemCtx<'_>,
        claim: &mut dyn FnMut(u64) -> bool,
    ) -> Option<NbhdScan> {
        if !self.block_yes[item.block] {
            return None;
        }
        let verdicts = ctx.verdicts(item, self.decoder);
        let accepts = |v: usize| verdicts[v].is_accept();
        let n = verdicts.len();
        let (mut inline, mut heap) = ([None; INLINE_NODES], Vec::new());
        let ids = if n <= INLINE_NODES {
            &mut inline[..n]
        } else {
            heap.resize(n, None);
            &mut heap[..]
        };
        let config = (self.decoder.radius(), self.id_mode);
        for (v, id) in ids.iter_mut().enumerate() {
            *id = (!self.accepting_only || accepts(v))
                .then(|| ctx.view_id(item, v, config, &self.interner));
        }
        let mut scan = NbhdScan {
            views: Vec::new(),
            edges: Vec::new(),
        };
        for (v, id) in ids.iter().enumerate() {
            if let Some(id) = id.filter(|&id| accepts(v) && claim(view_key(id))) {
                scan.views.push((id, v));
            }
        }
        for (position, (u, v)) in item.instance.graph().edges().enumerate() {
            let (Some(a), Some(b)) = (ids[u], ids[v]) else {
                continue;
            };
            let (a, b) = (a.min(b), a.max(b));
            if claim(edge_key(a, b)) {
                scan.edges.push(((a, b), position));
            }
        }
        (!scan.views.is_empty() || !scan.edges.is_empty()).then_some(scan)
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

    /// Every accepting node and every edge of the item, first witnesses
    /// or not: the scan of a walk that keeps every partial.
    fn inspect(&self, item: &UniverseItem<'_>, ctx: &ItemCtx<'_>) -> Option<NbhdScan> {
        self.scan(item, ctx, &mut |_| true)
    }

    fn fold(
        &self,
        item: &UniverseItem<'_>,
        ctx: &ItemCtx<'_>,
        claim: &mut dyn FnMut(u64) -> bool,
    ) -> Option<NbhdScan> {
        self.scan(item, ctx, claim)
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

    fn reduce(
        &self,
        universe: &Universe,
        partials: Vec<(usize, NbhdScan)>,
        outcome: &SweepOutcome,
    ) -> NbhdGraph {
        // Each view, edge and self-loop's first witness in item order. A
        // record can list a witness that a lower item also holds (another
        // worker's, another shard's), never one it misses.
        let mut view_at: HashMap<ViewId, (usize, usize)> = HashMap::new();
        let mut edge_at: HashMap<(ViewId, ViewId), (usize, usize)> = HashMap::new();
        for (item, scan) in &partials {
            for &(id, v) in &scan.views {
                view_at.entry(id).or_insert((*item, v));
            }
            for &(ends, position) in &scan.edges {
                edge_at.entry(ends).or_insert((*item, position));
            }
        }
        // V(D, n)'s views in the order of their witnesses. An edge needs
        // both views in AViews; where the scan interns only accepting
        // views that always holds, while with a coarser scan the
        // witnessing nodes need not accept, so a later item's view can
        // activate an edge of an earlier one.
        let mut order: Vec<((usize, usize), ViewId)> =
            view_at.iter().map(|(&id, &at)| (at, id)).collect();
        order.sort_unstable();
        let mut edges: Vec<((usize, usize), (ViewId, ViewId))> = edge_at
            .into_iter()
            .filter(|((a, b), _)| view_at.contains_key(a) && view_at.contains_key(b))
            .map(|(ends, at)| (at, ends))
            .collect();
        edges.sort_unstable();
        // Materialize only the named items, in item order, and number
        // every witness into that list.
        let mut named: Vec<usize> = order.iter().map(|&((i, _), _)| i).collect();
        named.extend(edges.iter().map(|&((i, _), _)| i));
        named.sort_unstable();
        named.dedup();
        let instances: Vec<LabeledInstance> = named
            .iter()
            .map(|&i| universe.labeled_instance(i))
            .collect();
        let position = |i: usize| named.binary_search(&i).expect("every witness is named");
        let rank = |i: usize| {
            let rank = position(i);
            #[cfg(conformance_mutants)]
            if crate::mutants::active("witness_remap_off_by_one") {
                return (rank + 1) % named.len();
            }
            rank
        };
        let radius = self.decoder.radius();
        let mut nbhd = NbhdGraph {
            radius,
            id_mode: self.id_mode,
            views: Vec::with_capacity(order.len()),
            index: HashMap::with_capacity(order.len()),
            adj: vec![BTreeSet::new(); order.len()],
            view_witness: Vec::with_capacity(order.len()),
            edge_witness: HashMap::new(),
            self_loops: HashMap::new(),
            instances: Vec::new(),
            retained: retained(universe, &self.block_yes, outcome),
        };
        let mut at: HashMap<ViewId, usize> = HashMap::with_capacity(order.len());
        for (idx, &((i, v), id)) in order.iter().enumerate() {
            let view = instances[position(i)].view(v, radius, self.id_mode);
            at.insert(id, idx);
            nbhd.index.insert(view.clone(), idx);
            nbhd.views.push(view);
            nbhd.view_witness.push((rank(i), v));
        }
        for ((i, position_in_item), (a, b)) in edges {
            let edge = instances[position(i)]
                .graph()
                .edges()
                .nth(position_in_item)
                .expect("a witnessed edge of its instance");
            let (a, b) = (at[&a], at[&b]);
            if a == b {
                #[cfg(conformance_mutants)]
                if crate::mutants::active("nbhd_selfloop_dropped") {
                    continue;
                }
                nbhd.self_loops.insert(a, (rank(i), edge));
            } else {
                nbhd.adj[a].insert(b);
                nbhd.adj[b].insert(a);
                nbhd.edge_witness
                    .insert((a.min(b), a.max(b)), (rank(i), edge));
            }
        }
        nbhd.instances = instances;
        nbhd
    }
}

/// The labeled yes-instances a walk retained, in closed form: every item
/// of a yes-block in the walked prefix `[0, checked)`, less the items the
/// errored inspections stood for.
fn retained(universe: &Universe, block_yes: &[bool], outcome: &SweepOutcome) -> u64 {
    let mut start = 0usize;
    let mut walked = 0u64;
    for (block, &yes) in universe.blocks().iter().zip(block_yes) {
        let end = start + block.len();
        if yes {
            walked += (end.min(outcome.checked).saturating_sub(start)) as u64;
        }
        start = end;
    }
    walked.saturating_sub(outcome.errored)
}

/// The accepting neighborhood graph, with full provenance: every view,
/// edge and self-loop remembers a witnessing instance. Of the labeled
/// yes-instances it swept, the graph keeps the witnessing ones
/// ([`NbhdGraph::instances`]) and a count of all
/// ([`NbhdGraph::retained_count`]). Two graphs are equal when they agree
/// view for view in order, edge for edge, witness for witness, on the
/// witnessing instances and on the retained count.
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
#[derive(Debug, Clone, PartialEq, Eq)]
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
    /// every item of a yes-instance block in the walked prefix, counted
    /// in closed form from the universe's blocks, less the items whose
    /// inspection panicked (each with its [`ItemCtx::multiplicity`]), so
    /// a walk that jumps copy blocks or skips orbit members reports the
    /// full walk's count.
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
