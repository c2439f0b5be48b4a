//! Radius-r views (paper, Section 2.2).
//!
//! The view of `v` is the tuple `(G_v^r, prt|_{N^r(v)}, Id|_{N^r(v)},
//! I|_{N^r(v)})` where `G_v^r` is the union of all paths of length ≤ r from
//! `v` — it "contains the full structure of G up to r−1 hops away from v
//! but not any connections between nodes that are at r hops away".
//! Concretely, an edge `{a, b}` is visible iff both endpoints are in
//! `N^r(v)` and `min(dist(a), dist(b)) ≤ r − 1`.
//!
//! # Canonical encoding
//!
//! Port numbers make views *rigid*: starting from the center and exploring
//! visible edges in port order yields a deterministic traversal that
//! assigns every view node a canonical index (the center is index 0). Two
//! views are equal — as mathematical objects and under `Eq`/`Hash` — iff
//! this canonical encoding agrees, which is what lets the accepting
//! neighborhood graph of Section 3 deduplicate views across instances.
//!
//! # Identifier modes
//!
//! [`IdMode`] controls how identifiers enter the encoding:
//! * [`IdMode::Full`] keeps the numeric identifiers and the bound `N` —
//!   the general (non-anonymous) LCP model;
//! * [`IdMode::OrderOnly`] replaces identifiers by their ranks within the
//!   view — order-invariant decoders (Section 6) see exactly this;
//! * [`IdMode::Anonymous`] drops identifiers entirely — anonymous decoders
//!   (Theorem 1.1) see exactly this.

use crate::instance::Instance;
use crate::label::{Certificate, Labeling};
use std::collections::VecDeque;

/// A resolved port-annotated edge between two identifiers:
/// `((id_a, port_a), (id_b, port_b))`. The knowledge sets of
/// [`crate::network`] and [`View::from_local_knowledge`] speak this type.
pub type KnownEdge = ((u64, u16), (u64, u16));

/// How much identifier information a view retains; see the module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum IdMode {
    /// Numeric identifiers and the bound `N` are visible.
    Full,
    /// Only the relative order of identifiers is visible.
    OrderOnly,
    /// No identifier information at all.
    Anonymous,
}

/// A directed, port-annotated edge inside a view.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ViewArc {
    /// Canonical index of the other endpoint.
    pub to: usize,
    /// The port number at this node (`prt(x, e)`, 1-based, original value).
    pub port_here: u16,
    /// The port number at the other endpoint (`prt(y, e)`).
    pub port_there: u16,
}

/// One node of a view.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ViewNode {
    /// The identifier under the view's [`IdMode`]: the numeric identifier
    /// (`Full`), the rank within the view (`OrderOnly`), or `None`
    /// (`Anonymous`).
    pub id: Option<u64>,
    /// The node's certificate.
    pub label: Certificate,
    /// Distance from the center.
    pub dist: usize,
    /// Visible incident edges, sorted by `port_here`.
    pub arcs: Vec<ViewArc>,
}

/// The canonicalized radius-r view of a node. Center is index 0.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct View {
    radius: usize,
    id_mode: IdMode,
    /// The identifier bound `N` (0 unless [`IdMode::Full`]).
    id_bound: u64,
    nodes: Vec<ViewNode>,
}

/// The labeling-independent part of a view: BFS distances, the canonical
/// port-order traversal, identifier canonicalization and visible arcs —
/// everything [`View::extract`] computes *except* the certificates.
///
/// Canonicalization is the hot path of the Lemma 3.1 sweep, yet it only
/// depends on `(instance, node, radius, id_mode)` — not on the labeling.
/// The verification engine ([`crate::verify`]) therefore computes one
/// skeleton per node and [stamps](ViewSkeleton::stamp) each of the
/// `|alphabet|^n` labelings onto it in `O(|view|)`, instead of re-running
/// the BFS per labeling. `View::extract` itself is implemented as
/// `compute + stamp`, so stamped views are identical (bitwise, and under
/// `Eq`/`Hash`) to directly extracted ones.
#[derive(Debug, Clone)]
pub struct ViewSkeleton {
    /// The fully canonicalized view with empty certificates.
    proto: View,
    /// Canonical index → original node index (for label stamping).
    order: Vec<usize>,
    /// Node count of the host graph (stamping validates labeling arity).
    host_nodes: usize,
}

impl ViewSkeleton {
    /// Computes the skeleton of `v`'s radius-`radius` view.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn compute(instance: &Instance, v: usize, radius: usize, id_mode: IdMode) -> ViewSkeleton {
        #[cfg(conformance_mutants)]
        let radius = if crate::mutants::active("view_radius_shrink") {
            radius.saturating_sub(1)
        } else {
            radius
        };
        let g = instance.graph();
        assert!(v < g.node_count(), "node {v} out of range");
        // 1. BFS distances, truncated to `radius`.
        let mut dist = vec![usize::MAX; g.node_count()];
        dist[v] = 0;
        let mut queue = VecDeque::from([v]);
        while let Some(x) = queue.pop_front() {
            if dist[x] == radius {
                continue;
            }
            for &y in g.neighbors(x) {
                if dist[y] == usize::MAX {
                    dist[y] = dist[x] + 1;
                    queue.push_back(y);
                }
            }
        }
        let visible = |a: usize, b: usize| -> bool {
            dist[a] != usize::MAX && dist[b] != usize::MAX && dist[a].min(dist[b]) < radius
        };
        // 2. Canonical traversal: BFS from v following ports in order.
        let mut canon = vec![usize::MAX; g.node_count()];
        let mut order: Vec<usize> = Vec::new();
        canon[v] = 0;
        order.push(v);
        let mut queue = VecDeque::from([v]);
        while let Some(x) = queue.pop_front() {
            for p in 1..=g.degree(x) as u16 {
                let y = instance.ports().neighbor_at(x, p);
                if visible(x, y) && canon[y] == usize::MAX {
                    canon[y] = order.len();
                    order.push(y);
                    queue.push_back(y);
                }
            }
        }
        // 3. Identifier canonicalization.
        let ids: Vec<Option<u64>> = match id_mode {
            IdMode::Full => order.iter().map(|&o| Some(instance.ids().id(o))).collect(),
            IdMode::OrderOnly => {
                let mut present: Vec<u64> = order.iter().map(|&o| instance.ids().id(o)).collect();
                present.sort_unstable();
                order
                    .iter()
                    .map(|&o| {
                        let id = instance.ids().id(o);
                        let rank = present.binary_search(&id).expect("id present") as u64;
                        Some(rank)
                    })
                    .collect()
            }
            IdMode::Anonymous => vec![None; order.len()],
        };
        // 4. Assemble nodes with placeholder certificates.
        let nodes = order
            .iter()
            .enumerate()
            .map(|(ci, &o)| {
                let mut arcs = Vec::new();
                for p in 1..=g.degree(o) as u16 {
                    let y = instance.ports().neighbor_at(o, p);
                    if visible(o, y) {
                        arcs.push(ViewArc {
                            to: canon[y],
                            port_here: p,
                            port_there: instance.ports().port_to(y, o),
                        });
                    }
                }
                ViewNode {
                    id: ids[ci],
                    label: Certificate::empty(),
                    dist: dist[o],
                    arcs,
                }
            })
            .collect();
        let proto = View {
            radius,
            id_mode,
            id_bound: if id_mode == IdMode::Full {
                instance.ids().bound()
            } else {
                0
            },
            nodes,
        };
        ViewSkeleton {
            proto,
            order,
            host_nodes: g.node_count(),
        }
    }

    /// Stamps `labeling`'s certificates onto the skeleton, yielding exactly
    /// the view [`View::extract`] would produce for the same arguments.
    ///
    /// # Panics
    ///
    /// Panics if the labeling does not cover the host graph.
    pub fn stamp(&self, labeling: &Labeling) -> View {
        let mut view = View {
            nodes: Vec::with_capacity(self.proto.nodes.len()),
            ..View::default()
        };
        self.stamp_into(labeling, &mut view);
        view
    }

    /// Overwrites `view` with the stamp of `labeling`: afterwards it equals
    /// [`ViewSkeleton::stamp`]'s result (under `Eq` and `Hash`) whatever
    /// it held before, a view of another skeleton, longer or shorter,
    /// included. Reuses `view`'s node, arc and certificate allocations, so
    /// restamping a scratch view allocates only where it grows: the
    /// engine decides a memo miss on one scratch view per worker.
    ///
    /// # Panics
    ///
    /// Panics if the labeling does not cover the host graph.
    pub fn stamp_into(&self, labeling: &Labeling, view: &mut View) {
        assert_eq!(
            labeling.node_count(),
            self.host_nodes,
            "labeling must cover every node"
        );
        #[cfg(conformance_mutants)]
        let stale = crate::mutants::active("stamp_into_keeps_stale_label")
            && view.nodes.len() == self.proto.nodes.len();
        view.radius = self.proto.radius;
        view.id_mode = self.proto.id_mode;
        view.id_bound = self.proto.id_bound;
        view.nodes.truncate(self.proto.nodes.len());
        let reused = view.nodes.len();
        for ((node, proto), &orig) in view
            .nodes
            .iter_mut()
            .zip(&self.proto.nodes)
            .zip(&self.order)
        {
            node.id = proto.id;
            node.dist = proto.dist;
            node.arcs.clone_from(&proto.arcs);
            #[cfg(conformance_mutants)]
            if stale {
                continue;
            }
            node.label.copy_from(labeling.label(orig));
        }
        for (proto, &orig) in self.proto.nodes.iter().zip(&self.order).skip(reused) {
            view.nodes.push(ViewNode {
                label: labeling.label(orig).clone(),
                ..proto.clone()
            });
        }
    }

    /// The canonicalized view with empty (placeholder) certificates — the
    /// skeleton's *class*: two skeletons with equal protos produce equal
    /// views whenever the certificate sequence stamped along
    /// [`ViewSkeleton::original_nodes`] is equal, which is what lets the
    /// engine's view interner share ids across nodes and blocks.
    pub fn proto(&self) -> &View {
        &self.proto
    }

    /// Canonical index → original node index.
    pub fn original_nodes(&self) -> &[usize] {
        &self.order
    }

    /// Number of nodes in the (stamped) view.
    pub fn node_count(&self) -> usize {
        self.proto.nodes.len()
    }
}

/// The empty view: no nodes, radius 0, anonymous. A scratch for
/// [`ViewSkeleton::stamp_into`] to overwrite.
impl Default for View {
    fn default() -> View {
        View {
            radius: 0,
            id_mode: IdMode::Anonymous,
            id_bound: 0,
            nodes: Vec::new(),
        }
    }
}

impl View {
    /// Extracts the view of `v` in `(instance, labeling)`.
    ///
    /// Implemented as [`ViewSkeleton::compute`] followed by
    /// [`ViewSkeleton::stamp`], so skeleton-cached extraction (the
    /// verification engine's hot path) is identical by construction.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range or the labeling has the wrong arity.
    pub fn extract(
        instance: &Instance,
        labeling: &Labeling,
        v: usize,
        radius: usize,
        id_mode: IdMode,
    ) -> View {
        ViewSkeleton::compute(instance, v, radius, id_mode).stamp(labeling)
    }

    /// The view radius `r`.
    pub fn radius(&self) -> usize {
        self.radius
    }

    /// The identifier mode this view was canonicalized with.
    pub fn id_mode(&self) -> IdMode {
        self.id_mode
    }

    /// The identifier bound `N` (0 unless [`IdMode::Full`]).
    pub fn id_bound(&self) -> u64 {
        self.id_bound
    }

    /// Number of nodes in the view.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// The canonical index of the center (always 0).
    pub fn center(&self) -> usize {
        0
    }

    /// The nodes in canonical order.
    pub fn nodes(&self) -> &[ViewNode] {
        &self.nodes
    }

    /// The node at canonical index `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn node(&self, i: usize) -> &ViewNode {
        &self.nodes[i]
    }

    /// The center's certificate.
    pub fn center_label(&self) -> &Certificate {
        &self.nodes[0].label
    }

    /// The center's identifier under the view's [`IdMode`].
    pub fn center_id(&self) -> Option<u64> {
        self.nodes[0].id
    }

    /// The center's degree. For `radius ≥ 1` every edge at the center is
    /// visible, so this is the center's true degree in the host graph.
    pub fn center_degree(&self) -> usize {
        self.nodes[0].arcs.len()
    }

    /// The center's arcs, sorted by port.
    pub fn center_arcs(&self) -> &[ViewArc] {
        &self.nodes[0].arcs
    }

    /// Canonical indices of nodes carrying identifier `id` (under the
    /// view's id mode). At most one node matches because identifiers are
    /// injective.
    pub fn node_with_id(&self, id: u64) -> Option<usize> {
        self.nodes.iter().position(|n| n.id == Some(id))
    }

    /// Whether the visible edge `{a, b}` exists.
    pub fn has_arc(&self, a: usize, b: usize) -> bool {
        self.nodes
            .get(a)
            .is_some_and(|n| n.arcs.iter().any(|arc| arc.to == b))
    }

    /// The radius-1 sub-view of node `i` *within this view*: identifier,
    /// label, and the port-sorted incident arcs with their endpoints'
    /// identifiers and labels.
    ///
    /// For nodes at distance `< radius` from the center this is the node's
    /// true 1-view in the host graph (all its edges are visible), which is
    /// exactly what the compatibility definition of Section 5.1 compares.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range.
    pub fn sub_view1(&self, i: usize) -> SubView1 {
        let node = &self.nodes[i];
        SubView1 {
            id: node.id,
            label: node.label.clone(),
            arcs: node
                .arcs
                .iter()
                .map(|arc| SubArc {
                    port_here: arc.port_here,
                    port_there: arc.port_there,
                    other_id: self.nodes[arc.to].id,
                    other_label: self.nodes[arc.to].label.clone(),
                })
                .collect(),
        }
    }

    /// Applies `f` to every identifier in the view (Full mode only),
    /// raising the bound to cover the image. This is the primitive behind
    /// the Lemma 5.2 identifier-block replacement: order-invariant
    /// decoders do not notice order-preserving remappings.
    ///
    /// # Panics
    ///
    /// Panics if the view is not in [`IdMode::Full`] or if `f` merges two
    /// identifiers present in the view.
    pub fn remap_ids<F: Fn(u64) -> u64>(&self, f: F) -> View {
        assert_eq!(self.id_mode, IdMode::Full, "remap requires Full id mode");
        let mut out = self.clone();
        let mut seen = std::collections::HashSet::new();
        let mut max_id = 0;
        for node in &mut out.nodes {
            let old = node.id.expect("Full mode nodes carry ids");
            let new = f(old);
            assert!(seen.insert(new), "remap merges identifier {new}");
            max_id = max_id.max(new);
            node.id = Some(new);
        }
        out.id_bound = out.id_bound.max(max_id);
        out
    }

    /// Converts an [`IdMode::OrderOnly`] view (whose "identifiers" are
    /// ranks `0..m`) into a [`IdMode::Full`] view by substituting the
    /// rank-`j` identifier with `ids[j]`. This is the re-routing step of
    /// the Lemma 6.2 order-invariantization: the view's identifier order
    /// is preserved while its values are drawn from the good set `B`.
    ///
    /// # Panics
    ///
    /// Panics if the view is not in [`IdMode::OrderOnly`], `ids` is not
    /// strictly increasing, or the view has more nodes than `ids` has
    /// entries.
    pub fn remap_ranks_to(&self, ids: &[u64]) -> View {
        assert_eq!(self.id_mode, IdMode::OrderOnly, "expects rank identifiers");
        assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "substitute identifiers must be strictly increasing"
        );
        assert!(
            self.nodes.len() <= ids.len(),
            "need at least one substitute identifier per view node"
        );
        let mut out = self.clone();
        for node in &mut out.nodes {
            let rank = node.id.expect("OrderOnly nodes carry ranks") as usize;
            node.id = Some(ids[rank]);
        }
        out.id_mode = IdMode::Full;
        out.id_bound = ids.iter().copied().max().unwrap_or(1);
        out
    }

    /// Applies `f` to every certificate in the view. Used by composite
    /// decoders (e.g. the Theorem 1.1 union LCP) that strip a routing tag
    /// before delegating to a sub-decoder.
    pub fn map_labels<F: Fn(&Certificate) -> Certificate>(&self, f: F) -> View {
        let mut out = self.clone();
        for node in &mut out.nodes {
            node.label = f(&node.label);
        }
        out
    }

    /// Builds a view from *locally gathered knowledge* — the labels of the
    /// identifiers a node has heard of and the port-annotated edges it has
    /// resolved — rather than from global instance data. This is how the
    /// message-passing simulation of [`crate::network`] materializes views;
    /// [`crate::network`]'s tests confirm it agrees with [`View::extract`]
    /// on every node of every instance tried.
    ///
    /// `edges` contains entries `((id_a, port_a), (id_b, port_b))` in both
    /// orientations or either; both are normalized internally.
    ///
    /// # Panics
    ///
    /// Panics if `center_id` is unknown or an edge references an unknown
    /// identifier.
    pub fn from_local_knowledge(
        center_id: u64,
        labels: &std::collections::BTreeMap<u64, Certificate>,
        edges: &std::collections::BTreeSet<KnownEdge>,
        radius: usize,
        id_mode: IdMode,
        id_bound: u64,
    ) -> View {
        assert!(labels.contains_key(&center_id), "center must be known");
        // Port-sorted adjacency by identifier.
        let mut adj: std::collections::BTreeMap<u64, Vec<(u16, u64, u16)>> =
            labels.keys().map(|&id| (id, Vec::new())).collect();
        for &((a, pa), (b, pb)) in edges {
            for (x, px, y, py) in [(a, pa, b, pb), (b, pb, a, pa)] {
                let entry = adj
                    .get_mut(&x)
                    .unwrap_or_else(|| panic!("edge references unknown id {x}"));
                if !entry.contains(&(px, y, py)) {
                    entry.push((px, y, py));
                }
            }
        }
        for entry in adj.values_mut() {
            entry.sort_unstable();
        }
        // BFS distances from the center over resolved edges.
        let mut dist: std::collections::BTreeMap<u64, usize> = std::collections::BTreeMap::new();
        dist.insert(center_id, 0);
        let mut queue = VecDeque::from([center_id]);
        while let Some(x) = queue.pop_front() {
            let dx = dist[&x];
            if dx == radius {
                continue;
            }
            for &(_, y, _) in &adj[&x] {
                dist.entry(y).or_insert_with(|| {
                    queue.push_back(y);
                    dx + 1
                });
            }
        }
        let visible = |a: u64, b: u64| -> bool {
            match (dist.get(&a), dist.get(&b)) {
                (Some(&da), Some(&db)) => da.min(db) < radius,
                _ => false,
            }
        };
        // Canonical traversal in port order.
        let mut canon: std::collections::BTreeMap<u64, usize> = std::collections::BTreeMap::new();
        let mut order: Vec<u64> = vec![center_id];
        canon.insert(center_id, 0);
        let mut queue = VecDeque::from([center_id]);
        while let Some(x) = queue.pop_front() {
            for &(_, y, _) in &adj[&x] {
                if visible(x, y) && !canon.contains_key(&y) {
                    canon.insert(y, order.len());
                    order.push(y);
                    queue.push_back(y);
                }
            }
        }
        // Identifier canonicalization.
        let ids: Vec<Option<u64>> = match id_mode {
            IdMode::Full => order.iter().map(|&o| Some(o)).collect(),
            IdMode::OrderOnly => {
                let mut present = order.clone();
                present.sort_unstable();
                order
                    .iter()
                    .map(|o| Some(present.binary_search(o).expect("present") as u64))
                    .collect()
            }
            IdMode::Anonymous => vec![None; order.len()],
        };
        let nodes = order
            .iter()
            .enumerate()
            .map(|(ci, &o)| {
                let arcs = adj[&o]
                    .iter()
                    .filter(|&&(_, y, _)| visible(o, y))
                    .map(|&(px, y, py)| ViewArc {
                        to: canon[&y],
                        port_here: px,
                        port_there: py,
                    })
                    .collect();
                ViewNode {
                    id: ids[ci],
                    label: labels[&o].clone(),
                    dist: dist[&o],
                    arcs,
                }
            })
            .collect();
        View {
            radius,
            id_mode,
            id_bound: if id_mode == IdMode::Full { id_bound } else { 0 },
            nodes,
        }
    }

    /// A compact human-readable description, used when regenerating the
    /// paper's figures.
    pub fn describe(&self) -> String {
        use std::fmt::Write;
        let mut out = String::new();
        for (i, n) in self.nodes.iter().enumerate() {
            if i > 0 {
                out.push_str(" | ");
            }
            let _ = write!(out, "{i}");
            if let Some(id) = n.id {
                let _ = write!(out, "#{id}");
            }
            let _ = write!(out, "(d{},{:?})→", n.dist, n.label);
            for (k, arc) in n.arcs.iter().enumerate() {
                if k > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{}", arc.to);
            }
        }
        out
    }
}

/// The radius-1 sub-view returned by [`View::sub_view1`], comparable per
/// the compatibility definition of Section 5.1.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SubView1 {
    /// The node's identifier (under the owning view's id mode).
    pub id: Option<u64>,
    /// The node's certificate.
    pub label: Certificate,
    /// Incident arcs, sorted by this node's port.
    pub arcs: Vec<SubArc>,
}

/// One arc of a [`SubView1`].
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct SubArc {
    /// Port at the sub-view's node.
    pub port_here: u16,
    /// Port at the other endpoint.
    pub port_there: u16,
    /// Identifier of the other endpoint.
    pub other_id: Option<u64>,
    /// Certificate of the other endpoint.
    pub other_label: Certificate,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::label::Labeling;
    use hiding_lcp_graph::{generators, Graph, IdAssignment};

    fn labeled(graph: Graph) -> (Instance, Labeling) {
        let n = graph.node_count();
        let labels = (0..n)
            .map(|v| Certificate::from_byte(v as u8))
            .collect::<Labeling>();
        (Instance::canonical(graph), labels)
    }

    #[test]
    fn radius_one_view_is_a_star() {
        let (inst, labels) = labeled(generators::cycle(5));
        let v = inst.view(&labels, 0, 1, IdMode::Full);
        assert_eq!(v.node_count(), 3);
        assert_eq!(v.center_degree(), 2);
        // Neighbors at distance 1 see only the center: the edge between
        // them (none in C5) and their other edges are invisible.
        for i in 1..3 {
            assert_eq!(v.node(i).dist, 1);
            assert_eq!(v.node(i).arcs.len(), 1);
            assert_eq!(v.node(i).arcs[0].to, 0);
        }
    }

    #[test]
    fn boundary_edges_are_hidden() {
        // In C4 with r = 1 viewed from 0: neighbors 1 and 3 are both
        // adjacent to 2, but 2 is at distance 2 — not even in the view.
        let (inst, labels) = labeled(generators::cycle(4));
        let v = inst.view(&labels, 0, 1, IdMode::Full);
        assert_eq!(v.node_count(), 3);
        // With r = 2 node 2 appears, and the edges 1-2, 3-2 are visible
        // (min endpoint distance 1 <= r-1), but in C4 there is no edge
        // between the two distance-1 nodes anyway. Use K4 instead for the
        // hidden-edge case below.
        let v2 = inst.view(&labels, 0, 2, IdMode::Full);
        assert_eq!(v2.node_count(), 4);
    }

    #[test]
    fn edges_between_radius_nodes_are_hidden() {
        // Paper, Fig. 2: edges between nodes at distance exactly r are not
        // visible. In C6 from node 0 with r = 3, nodes 2,3,4 are at
        // distances 2,3,2... take C6, r=2: nodes 2 and 4 at distance 2,
        // node 3 at distance 3 is absent, so the path 2-3-4 is invisible.
        let (inst, labels) = labeled(generators::cycle(6));
        let v = inst.view(&labels, 0, 2, IdMode::Full);
        assert_eq!(v.node_count(), 5, "node 3 is outside the view");
        // In K4 from node 0 with r = 1: all nodes visible, but edges among
        // {1,2,3} (all at distance 1 = r) are hidden.
        let (inst, labels) = labeled(generators::complete(4));
        let v = inst.view(&labels, 0, 1, IdMode::Full);
        assert_eq!(v.node_count(), 4);
        let visible_edges: usize = v.nodes().iter().map(|n| n.arcs.len()).sum::<usize>() / 2;
        assert_eq!(visible_edges, 3, "only the three center edges visible");
    }

    #[test]
    fn views_dedupe_across_nodes() {
        // With rotation-symmetric ports, all nodes of C6 with uniform
        // labels look alike anonymously, but differ under Full ids.
        let g = generators::cycle(6);
        let ports = hiding_lcp_graph::ports::cycle_symmetric(&g);
        let inst = Instance::new(g, ports, IdAssignment::canonical(6)).unwrap();
        let labels = Labeling::uniform(6, Certificate::from_byte(1));
        let anon: Vec<View> = (0..6)
            .map(|v| inst.view(&labels, v, 1, IdMode::Anonymous))
            .collect();
        assert!(anon.windows(2).all(|w| w[0] == w[1]));
        let full: Vec<View> = (0..6)
            .map(|v| inst.view(&labels, v, 1, IdMode::Full))
            .collect();
        assert!(full.windows(2).all(|w| w[0] != w[1]));
        // Canonical (sorted-neighbor) ports are NOT rotation-symmetric:
        // node 0's neighbors are numbered differently from node 1's, so
        // even anonymous views can differ.
        let canon = Instance::canonical(generators::cycle(6));
        let v0 = canon.view(&labels, 0, 1, IdMode::Anonymous);
        let v5 = canon.view(&labels, 5, 1, IdMode::Anonymous);
        assert_ne!(v0, v5);
    }

    #[test]
    fn order_only_mode_sees_ranks() {
        let g = generators::path(3);
        let labels = Labeling::empty(3);
        let a = Instance::with_ids(
            g.clone(),
            IdAssignment::from_ids(vec![10, 20, 30], 100).unwrap(),
        )
        .unwrap();
        let b = Instance::with_ids(
            g.clone(),
            IdAssignment::from_ids(vec![1, 5, 9], 100).unwrap(),
        )
        .unwrap();
        let c = Instance::with_ids(g, IdAssignment::from_ids(vec![9, 5, 1], 100).unwrap()).unwrap();
        for v in 0..3 {
            assert_eq!(
                a.view(&labels, v, 1, IdMode::OrderOnly),
                b.view(&labels, v, 1, IdMode::OrderOnly),
                "same order => same OrderOnly view"
            );
            assert_eq!(a.view(&labels, v, 1, IdMode::Full).id_bound(), 100);
            assert_eq!(a.view(&labels, v, 1, IdMode::OrderOnly).id_bound(), 0);
        }
        assert_ne!(
            a.view(&labels, 0, 1, IdMode::OrderOnly),
            c.view(&labels, 0, 1, IdMode::OrderOnly),
            "reversed order changes the OrderOnly view"
        );
    }

    #[test]
    fn anonymous_views_ignore_ids_entirely() {
        let g = generators::star(3);
        let labels = Labeling::empty(4);
        let a = Instance::with_ids(
            g.clone(),
            IdAssignment::from_ids(vec![4, 3, 2, 1], 9).unwrap(),
        )
        .unwrap();
        let b = Instance::canonical(g);
        assert_eq!(
            a.view(&labels, 0, 1, IdMode::Anonymous),
            b.view(&labels, 0, 1, IdMode::Anonymous)
        );
        assert_eq!(a.view(&labels, 0, 1, IdMode::Anonymous).id_bound(), 0);
    }

    #[test]
    fn labels_distinguish_views() {
        let inst = Instance::canonical(generators::path(3));
        let l1 = Labeling::uniform(3, Certificate::from_byte(0));
        let mut l2 = l1.clone();
        l2.set(2, Certificate::from_byte(1));
        assert_ne!(
            inst.view(&l1, 1, 1, IdMode::Anonymous),
            inst.view(&l2, 1, 1, IdMode::Anonymous)
        );
        // But node 0's 1-view only sees nodes 0 and 1 — unchanged.
        assert_eq!(
            inst.view(&l1, 0, 1, IdMode::Anonymous),
            inst.view(&l2, 0, 1, IdMode::Anonymous)
        );
    }

    #[test]
    fn ports_distinguish_views() {
        use hiding_lcp_graph::PortAssignment;
        let g = generators::path(3);
        // Distinct endpoint labels: with indistinguishable endpoints a
        // port swap would be an automorphism of the view.
        let labels = Labeling::new(vec![
            Certificate::from_byte(7),
            Certificate::from_byte(0),
            Certificate::from_byte(9),
        ]);
        let p1 = PortAssignment::from_order(&g, vec![vec![1], vec![0, 2], vec![1]]).unwrap();
        let p2 = PortAssignment::from_order(&g, vec![vec![1], vec![2, 0], vec![1]]).unwrap();
        let ids = IdAssignment::canonical(3);
        let a = Instance::new(g.clone(), p1, ids.clone()).unwrap();
        let b = Instance::new(g, p2, ids).unwrap();
        assert_ne!(
            a.view(&labels, 1, 1, IdMode::Anonymous),
            b.view(&labels, 1, 1, IdMode::Anonymous),
            "swapped ports at the center change the view"
        );
        // With equal endpoint labels the swap is an automorphism of the
        // anonymous view — invisible.
        let uniform = Labeling::empty(3);
        assert_eq!(
            a.view(&uniform, 1, 1, IdMode::Anonymous),
            b.view(&uniform, 1, 1, IdMode::Anonymous)
        );
    }

    #[test]
    fn sub_view1_matches_direct_extraction() {
        let (inst, labels) = labeled(generators::cycle(6));
        let big = inst.view(&labels, 0, 2, IdMode::Full);
        // Node at canonical index of distance-1 node: its sub-view within
        // the big view lists both its edges (it is at distance 1 <= r-1).
        let i = (0..big.node_count())
            .find(|&i| big.node(i).dist == 1)
            .unwrap();
        let sub = big.sub_view1(i);
        assert_eq!(sub.arcs.len(), 2);
        assert_eq!(sub.id, big.node(i).id);
    }

    #[test]
    fn radius_zero_view_is_a_point() {
        let (inst, labels) = labeled(generators::cycle(4));
        let v = inst.view(&labels, 2, 0, IdMode::Full);
        assert_eq!(v.node_count(), 1);
        assert_eq!(v.center_degree(), 0);
        assert_eq!(v.center_label().bytes(), &[2]);
    }

    #[test]
    fn remap_ids_edge_cases() {
        let (inst, labels) = labeled(generators::path(3));
        let v = inst.view(&labels, 1, 1, IdMode::Full);
        let shifted = v.remap_ids(|i| i + 100);
        assert_eq!(shifted.center_id(), Some(102));
        assert_eq!(shifted.id_bound(), 103);
        // Structure and labels untouched.
        assert_eq!(shifted.node_count(), v.node_count());
        assert_eq!(shifted.center_label(), v.center_label());
    }

    #[test]
    #[should_panic(expected = "merges identifier")]
    fn remap_ids_rejects_collisions() {
        let (inst, labels) = labeled(generators::path(3));
        let v = inst.view(&labels, 1, 1, IdMode::Full);
        let _ = v.remap_ids(|_| 7);
    }

    #[test]
    #[should_panic(expected = "requires Full id mode")]
    fn remap_ids_rejects_anonymous_views() {
        let (inst, labels) = labeled(generators::path(3));
        let v = inst.view(&labels, 1, 1, IdMode::Anonymous);
        let _ = v.remap_ids(|i| i);
    }

    #[test]
    fn map_labels_rewrites_certificates() {
        let (inst, labels) = labeled(generators::path(3));
        let v = inst.view(&labels, 1, 1, IdMode::Full);
        let stripped = v.map_labels(|_| Certificate::empty());
        assert!(stripped.center_label().is_empty());
        assert!(stripped.nodes().iter().all(|n| n.label.is_empty()));
        assert_eq!(stripped.center_id(), v.center_id(), "ids untouched");
    }

    #[test]
    fn remap_ranks_roundtrip() {
        let g = generators::path(3);
        let labels = Labeling::empty(3);
        let inst =
            Instance::with_ids(g, IdAssignment::from_ids(vec![30, 10, 20], 64).unwrap()).unwrap();
        let ranked = inst.view(&labels, 1, 2, IdMode::OrderOnly);
        // Substitute ranks 0,1,2 with the original sorted ids: recovers
        // the Full view.
        let restored = ranked.remap_ranks_to(&[10, 20, 30]);
        let full = inst
            .view(&labels, 1, 2, IdMode::Full)
            .map_labels(|c| c.clone());
        // id_bound differs (OrderOnly forgets it), so compare piecewise.
        assert_eq!(restored.center_id(), full.center_id());
        for (a, b) in restored.nodes().iter().zip(full.nodes()) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.arcs, b.arcs);
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn remap_ranks_requires_sorted_ids() {
        let (inst, labels) = labeled(generators::path(2));
        let v = inst.view(&labels, 0, 1, IdMode::OrderOnly);
        let _ = v.remap_ranks_to(&[9, 3]);
    }

    #[test]
    fn describe_is_nonempty() {
        let (inst, labels) = labeled(generators::path(2));
        let v = inst.view(&labels, 0, 1, IdMode::Full);
        assert!(v.describe().contains("#1"));
    }

    /// Every skeleton of the n ≤ 4 Lemma 3.1 family at radius 1 and 2,
    /// under both the anonymous and the full id mode; skeletons equal in
    /// their proto, order and host size stamp alike and are listed once.
    fn lemma31_skeletons() -> &'static [ViewSkeleton] {
        static SKELETONS: std::sync::OnceLock<Vec<ViewSkeleton>> = std::sync::OnceLock::new();
        SKELETONS.get_or_init(|| {
            let universe =
                crate::verify::Universe::lemma31(4, vec![Certificate::from_byte(0)]).unwrap();
            let mut seen = std::collections::HashSet::new();
            let mut skeletons = Vec::new();
            for block in universe.blocks() {
                let instance = block.instance();
                for v in 0..instance.graph().node_count() {
                    for radius in [1, 2] {
                        for id_mode in [IdMode::Anonymous, IdMode::Full] {
                            let s = ViewSkeleton::compute(instance, v, radius, id_mode);
                            if seen.insert((s.proto.clone(), s.order.clone(), s.host_nodes)) {
                                skeletons.push(s);
                            }
                        }
                    }
                }
            }
            skeletons
        })
    }

    fn hash_of(view: &View) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut hasher = std::collections::hash_map::DefaultHasher::new();
        view.hash(&mut hasher);
        hasher.finish()
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(8))]

        #[test]
        fn stamp_into_overwrites_any_previous_view(
            letters in proptest::collection::vec(0u8..4, 4usize..5),
            others in proptest::collection::vec(0u8..4, 4usize..5),
        ) {
            let skeletons = lemma31_skeletons();
            let labeling = |letters: &[u8], n: usize| -> Labeling {
                letters[..n].iter().map(|&b| Certificate::from_byte(b)).collect()
            };
            let longest = skeletons.iter().max_by_key(|s| s.node_count()).unwrap();
            let shortest = skeletons.iter().min_by_key(|s| s.node_count()).unwrap();
            for skeleton in skeletons {
                let n = skeleton.host_nodes;
                let want = skeleton.stamp(&labeling(&letters, n));
                // A longer view, a shorter one, and this skeleton's own
                // view under other letters: each is overwritten whole.
                for (before, host) in [
                    (longest, longest.host_nodes),
                    (shortest, shortest.host_nodes),
                    (skeleton, n),
                ] {
                    let mut scratch = before.stamp(&labeling(&others, host));
                    skeleton.stamp_into(&labeling(&letters, n), &mut scratch);
                    proptest::prop_assert_eq!(&scratch, &want);
                    proptest::prop_assert_eq!(hash_of(&scratch), hash_of(&want));
                }
            }
        }
    }
}
