//! Shared per-layer tree geometry: the shard scales, cut links and plan
//! entries at every node and leaf of a (group tree, plan tree) pair, and
//! the conversion edges indexed by layer. Used by both simulators and
//! the memory-footprint analysis.

use accpar_dnn::{TrainEdge, TrainView};
use accpar_hw::{GroupCaps, GroupNode};
use accpar_partition::{LayerPlan, NetworkPlan, PlanTree, ShardScales};

/// Geometry of one internal tree node for one layer: its cut links, the
/// shard scales arriving from the ancestors, and the plan of its
/// bisection.
pub(crate) struct NodeGeom<'p> {
    pub(crate) depth: usize,
    pub(crate) link_a: f64,
    pub(crate) link_b: f64,
    pub(crate) scales: ShardScales,
    pub(crate) entry: LayerPlan,
    pub(crate) plan: &'p NetworkPlan,
}

/// Geometry of one layer across the whole tree.
pub(crate) struct LayerGeom<'p> {
    pub(crate) nodes: Vec<NodeGeom<'p>>,
    pub(crate) leaves: Vec<(GroupCaps, ShardScales)>,
}

/// Walks the tree for one layer, recording node and leaf geometry.
/// `depth` is `plan.depth()`, taken once per step by the caller.
pub(crate) fn layer_geom<'p>(
    root: &GroupNode,
    plan: &'p PlanTree,
    depth: usize,
    layer: usize,
) -> LayerGeom<'p> {
    // A complete bisect tree of this depth has 2^d leaves and 2^d − 1
    // internal nodes; for uneven trees this is just a capacity hint.
    let n_leaves = 1usize << depth.min(16);
    let mut geom = LayerGeom {
        nodes: Vec::with_capacity(n_leaves - 1),
        leaves: Vec::with_capacity(n_leaves),
    };
    walk(root, Some(plan), 0, layer, ShardScales::full(), &mut geom);
    geom
}

fn walk<'p>(
    node: &GroupNode,
    plan: Option<&'p PlanTree>,
    depth: usize,
    layer: usize,
    scales: ShardScales,
    geom: &mut LayerGeom<'p>,
) {
    match (node.children(), plan) {
        (Some((a, b)), Some(p)) => {
            let entry = p.plan().layer(layer);
            geom.nodes.push(NodeGeom {
                depth,
                link_a: a.link_bw(),
                link_b: b.link_bw(),
                scales,
                entry,
                plan: p.plan(),
            });
            let alpha = entry.ratio.value();
            let (child_a, child_b) = match p.children() {
                Some((ca, cb)) => (Some(ca), Some(cb)),
                None => (None, None),
            };
            walk(a, child_a, depth + 1, layer, scales.shrink(entry.ptype, alpha), geom);
            walk(
                b,
                child_b,
                depth + 1,
                layer,
                scales.shrink(entry.ptype, 1.0 - alpha),
                geom,
            );
        }
        _ => geom.leaves.push((node.caps(), scales)),
    }
}

/// A view's conversion edges indexed by consuming and by producing
/// layer, built once per step. Each layer's list keeps the view's edge
/// order, so sums over it add in the order a scan of every edge would.
pub(crate) struct EdgeIndex {
    edges: Vec<TrainEdge>,
    by_consumer: Csr,
    by_producer: Csr,
}

/// Edge positions grouped by layer: layer `l`'s are
/// `at[start[l]..start[l + 1]]`.
struct Csr {
    start: Vec<usize>,
    at: Vec<usize>,
}

impl Csr {
    fn new(layers: usize, edges: &[TrainEdge], layer_of: impl Fn(&TrainEdge) -> usize) -> Self {
        let mut start = vec![0; layers + 1];
        for edge in edges {
            start[layer_of(edge) + 1] += 1;
        }
        for l in 0..layers {
            start[l + 1] += start[l];
        }
        let mut next = start.clone();
        let mut at = vec![0; edges.len()];
        for (i, edge) in edges.iter().enumerate() {
            let slot = &mut next[layer_of(edge)];
            at[*slot] = i;
            *slot += 1;
        }
        Self { start, at }
    }
}

impl EdgeIndex {
    pub(crate) fn new(view: &TrainView) -> Self {
        let edges = view.conversion_edges();
        let layers = view.weighted_len();
        Self {
            by_consumer: Csr::new(layers, &edges, |e| e.to),
            by_producer: Csr::new(layers, &edges, |e| e.from),
            edges,
        }
    }

    fn list<'a>(&'a self, csr: &'a Csr, l: usize) -> impl Iterator<Item = &'a TrainEdge> + 'a {
        csr.at[csr.start[l]..csr.start[l + 1]]
            .iter()
            .map(|&i| &self.edges[i])
    }

    /// The edges layer `l` consumes (`edge.to == l`), in view order.
    pub(crate) fn consumed_by(&self, l: usize) -> impl Iterator<Item = &TrainEdge> + '_ {
        self.list(&self.by_consumer, l)
    }

    /// The edges layer `l` produces (`edge.from == l`), in view order.
    pub(crate) fn produced_by(&self, l: usize) -> impl Iterator<Item = &TrainEdge> + '_ {
        self.list(&self.by_producer, l)
    }
}
