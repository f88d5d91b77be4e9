//! Shared tree geometry.
//!
//! [`ClassTable`] is what both simulators price and schedule: every leaf
//! and cut of a (group tree, plan tree) walk, grouped into classes of
//! exact copies. [`layer_geom`] expands one layer across every node and
//! leaf, for the reference engines. [`validate`] is the one plan check
//! of the simulators and the memory analysis.

use crate::error::SimError;
use accpar_cost::cache::scales_bits;
use accpar_dnn::{TrainEdge, TrainView};
use accpar_hw::{FaultKind, FaultModel, FaultTarget, GroupCaps, GroupNode, GroupTree};
use accpar_partition::{LayerPlan, NetworkPlan, PlanTree, ShardScales};
use accpar_tensor::hash::FxHashMap;
use std::ops::Range;

/// Checks that `plan` fits `tree` and a network of `n_layers` weighted
/// layers: the plan is as deep as the tree, and every distinct node
/// covers every layer (a twin's halves are one node, checked once).
pub(crate) fn validate(plan: &PlanTree, tree: &GroupTree, n_layers: usize) -> Result<(), SimError> {
    if plan.depth() != tree.levels() {
        return Err(SimError::DepthMismatch {
            plan: plan.depth(),
            tree: tree.levels(),
        });
    }
    validate_layer_counts(plan, n_layers, 0)
}

fn validate_layer_counts(plan: &PlanTree, n_layers: usize, level: usize) -> Result<(), SimError> {
    if plan.plan().len() != n_layers {
        return Err(SimError::LayerCountMismatch {
            level,
            plan: plan.plan().len(),
            network: n_layers,
        });
    }
    if let Some((a, b)) = plan.children() {
        validate_layer_counts(a, n_layers, level + 1)?;
        if !plan.is_twin() {
            validate_layer_counts(b, n_layers, level + 1)?;
        }
    }
    Ok(())
}

// --- the class table ----------------------------------------------------
//
// Two leaves of the walk are copies when their caps (rate faults folded
// in), stall windows and inherited shard scales in every layer are equal
// bit for bit; two cuts are copies when their child links (rate faults
// folded in), plan node and inherited scales in every layer are. A
// simulator reads nothing else of a leaf or cut, so it prices each
// class once per layer and phase, and every copy's busy time is its
// class's.
//
// Scales are keyed by *lineage*, not by value: the root's lineage is the
// full tensor in every layer, and a child's is (parent lineage, parent
// plan node, side), with the side dropped when both halves inherit equal
// scales in every layer. Each lineage's per-layer scales are computed
// once, so a key is a few words however many layers the network has.

/// One class of leaves of the walk.
pub(crate) struct LeafClass {
    /// Caps with the leaf's compute factor folded in.
    pub(crate) caps: GroupCaps,
    /// Transient stall window, seconds (zero on a healthy step).
    pub(crate) stall: f64,
    /// The shard-scale lineage its leaves inherit.
    pub(crate) lineage: u32,
    /// Leaves of the walk in the class.
    pub(crate) copies: usize,
}

/// One class of cuts (internal nodes) of the walk.
pub(crate) struct CutClass<'p> {
    pub(crate) depth: usize,
    /// The two child link bandwidths with the cut's bandwidth factor
    /// folded in.
    pub(crate) link_a: f64,
    pub(crate) link_b: f64,
    /// The plan of the cut's bisection.
    pub(crate) plan: &'p NetworkPlan,
    /// The shard-scale lineage arriving at the cut.
    pub(crate) lineage: u32,
    /// Cuts of the walk in the class.
    pub(crate) copies: usize,
}

/// The step's distinct leaves and cuts, and which class each leaf and
/// cut of the walk belongs to. Built once per simulated step.
pub(crate) struct ClassTable<'p> {
    n_layers: usize,
    /// Lineage `k`'s scales in layer `l` are `scales[k · n_layers + l]`.
    scales: Vec<ShardScales>,
    pub(crate) leaves: Vec<LeafClass>,
    /// Ordered by depth, root first.
    pub(crate) cuts: Vec<CutClass<'p>>,
    /// Depth `d`'s cut classes are `cuts[depth_at[d]..depth_at[d + 1]]`.
    depth_at: Vec<usize>,
    /// Each leaf of the walk's class, left to right.
    leaf_of: Vec<u32>,
    /// Each cut of the walk's class, in pre-order.
    cut_of: Vec<u32>,
}

impl<'p> ClassTable<'p> {
    /// Classifies the walk of `plan` over `tree` for a network of
    /// `n_layers` weighted layers (`plan` already validated), folding
    /// `faults`' rate faults in as [`GroupTree::degraded`] does and
    /// reading each leaf's stall window. `faults` must have passed
    /// [`crate::faults::validate`].
    pub(crate) fn new(
        tree: &GroupTree,
        plan: &'p PlanTree,
        n_layers: usize,
        faults: Option<&FaultModel>,
    ) -> Self {
        let mut builder = Builder {
            levels: tree.levels(),
            faults,
            hits: faults.map(Hits::of).unwrap_or_default(),
            n_layers,
            scales: vec![ShardScales::full(); n_layers],
            lineages: 1,
            kids: FxHashMap::default(),
            leaf_ids: FxHashMap::default(),
            cut_ids: FxHashMap::default(),
            leaves: Vec::new(),
            cuts: Vec::new(),
            leaf_of: Vec::with_capacity(tree.leaf_count()),
            cut_of: Vec::with_capacity(tree.cut_count()),
        };
        builder.walk(tree.root(), Some(plan), 0, 0, 0, 0);
        builder.finish()
    }

    /// Number of depths that hold a cut.
    pub(crate) fn depths(&self) -> usize {
        self.depth_at.len() - 1
    }

    /// The cut classes at `depth`, and the index of the first one.
    pub(crate) fn level(&self, depth: usize) -> (usize, &[CutClass<'p>]) {
        let at = self.depth_at[depth];
        (at, &self.cuts[at..self.depth_at[depth + 1]])
    }

    /// Lineage `lineage`'s shard scales in layer `l`.
    pub(crate) fn scales(&self, lineage: u32, l: usize) -> ShardScales {
        self.scales[lineage as usize * self.n_layers + l]
    }

    /// One value per leaf class, expanded to every leaf of the walk, left
    /// to right.
    pub(crate) fn per_leaf(&self, by_class: &[f64]) -> Vec<f64> {
        self.leaf_of.iter().map(|&c| by_class[c as usize]).collect()
    }

    /// One value per cut class, expanded to every cut of the walk, in
    /// pre-order.
    pub(crate) fn per_cut(&self, by_class: &[f64]) -> Vec<f64> {
        self.cut_of.iter().map(|&c| by_class[c as usize]).collect()
    }
}

/// The fault targets that make a leaf or cut differ from an unfaulted
/// copy, each sorted: slowed leaves and degraded cuts (numbered as
/// [`GroupTree::degraded`] numbers them) and stalled leaves of the walk.
#[derive(Default)]
struct Hits {
    slow: Vec<usize>,
    degraded: Vec<usize>,
    stalled: Vec<usize>,
}

impl Hits {
    fn of(faults: &FaultModel) -> Self {
        let mut hits = Self::default();
        for fault in faults.faults() {
            match (fault.target, fault.kind) {
                (FaultTarget::Leaf(i), FaultKind::ComputeSlowdown { .. }) => hits.slow.push(i),
                (FaultTarget::Cut(i), FaultKind::BandwidthDegradation { .. }) => {
                    hits.degraded.push(i);
                }
                (FaultTarget::Leaf(i), FaultKind::TransientStall { .. }) => hits.stalled.push(i),
                _ => {}
            }
        }
        for v in [&mut hits.slow, &mut hits.degraded, &mut hits.stalled] {
            v.sort_unstable();
        }
        hits
    }

    /// Whether a fault targets a leaf in `leaves`, a cut in `cuts` or
    /// stalls a leaf of the walk in `walk`.
    fn any(&self, leaves: Range<usize>, cuts: Range<usize>, walk: Range<usize>) -> bool {
        let hit = |v: &[usize], r: Range<usize>| {
            let i = v.partition_point(|&x| x < r.start);
            i < v.len() && v[i] < r.end
        };
        hit(&self.slow, leaves) || hit(&self.degraded, cuts) || hit(&self.stalled, walk)
    }
}

struct Builder<'f, 'p> {
    /// Levels of the (complete) group tree.
    levels: usize,
    faults: Option<&'f FaultModel>,
    hits: Hits,
    n_layers: usize,
    scales: Vec<ShardScales>,
    lineages: u32,
    /// (lineage, plan node) → the two children's lineages.
    kids: FxHashMap<(u32, usize), (u32, u32)>,
    /// (caps, stall, lineage) → leaf class.
    leaf_ids: FxHashMap<([u64; 4], u64, u32), u32>,
    /// (links, plan node, lineage) → cut class.
    cut_ids: FxHashMap<(u64, u64, usize, u32), u32>,
    leaves: Vec<LeafClass>,
    cuts: Vec<CutClass<'p>>,
    leaf_of: Vec<u32>,
    cut_of: Vec<u32>,
}

impl<'p> Builder<'_, 'p> {
    /// Classifies `group`'s subtree of the walk. `leaf` and `cut` are
    /// the first group leaf and the group cut's pre-order number, as
    /// [`GroupTree::degraded`] counts them.
    fn walk(
        &mut self,
        group: &GroupNode,
        plan: Option<&'p PlanTree>,
        depth: usize,
        lineage: u32,
        leaf: usize,
        cut: usize,
    ) {
        let (Some((a, b)), Some(p)) = (group.children(), plan) else {
            self.leaf(group, lineage, leaf);
            return;
        };
        let bw = self.faults.map_or(1.0, |f| f.bandwidth_factor(cut));
        let (link_a, link_b) = (a.link_bw() * bw, b.link_bw() * bw);
        let (lineage_a, lineage_b) = self.child_lineages(lineage, p.plan());
        let key = (
            link_a.to_bits(),
            link_b.to_bits(),
            node_id(p.plan()),
            lineage,
        );
        let class = *self.cut_ids.entry(key).or_insert_with(|| {
            self.cuts.push(CutClass {
                depth,
                link_a,
                link_b,
                plan: p.plan(),
                lineage,
                copies: 0,
            });
            (self.cuts.len() - 1) as u32
        });
        self.cut_of.push(class);

        // A complete tree: each half holds `half` group leaves and
        // `half - 1` cuts.
        let half = 1usize << (self.levels - depth - 1);
        let (plan_a, plan_b) = p
            .children()
            .map_or((None, None), |(x, y)| (Some(x), Some(y)));
        let (walk_at, cuts_at) = (self.leaf_of.len(), self.cut_of.len());
        self.walk(a, plan_a, depth + 1, lineage_a, leaf, cut + 1);
        // A twin over alike, untouched hardware whose halves inherit
        // equal scales: the right half's leaves and cuts are the left
        // half's classes, in the same order.
        let walked = self.leaf_of.len() - walk_at;
        let copy = lineage_a == lineage_b
            && (p.is_twin() || p.children().is_none())
            && !self.hits.any(
                leaf..leaf + 2 * half,
                cut + 1..cut + 2 * half - 1,
                walk_at..walk_at + 2 * walked,
            )
            && a.prices_alike(b);
        if copy {
            self.leaf_of.extend_from_within(walk_at..);
            self.cut_of.extend_from_within(cuts_at..);
        } else {
            self.walk(b, plan_b, depth + 1, lineage_b, leaf + half, cut + half);
        }
    }

    fn leaf(&mut self, group: &GroupNode, lineage: u32, leaf: usize) {
        let (caps, stall) = match self.faults {
            None => (group.caps(), 0.0),
            Some(f) => (
                degraded_caps(group, f, leaf),
                f.stall_secs(self.leaf_of.len()),
            ),
        };
        let bits = [caps.flops, caps.mem_bw, caps.net_bw, caps.hbm_bytes].map(f64::to_bits);
        let class = *self
            .leaf_ids
            .entry((bits, stall.to_bits(), lineage))
            .or_insert_with(|| {
                self.leaves.push(LeafClass {
                    caps,
                    stall,
                    lineage,
                    copies: 0,
                });
                (self.leaves.len() - 1) as u32
            });
        self.leaf_of.push(class);
    }

    /// The lineages of the two halves of `plan`'s bisection below
    /// `lineage`, each computed once.
    fn child_lineages(&mut self, lineage: u32, plan: &NetworkPlan) -> (u32, u32) {
        let key = (lineage, node_id(plan));
        if let Some(&kids) = self.kids.get(&key) {
            return kids;
        }
        let n = self.n_layers;
        let parent = lineage as usize * n;
        let a = self.scales.len();
        self.scales.reserve(2 * n);
        for side in [false, true] {
            for l in 0..n {
                let LayerPlan { ptype, ratio } = plan.layer(l);
                let alpha = ratio.value();
                let share = if side { 1.0 - alpha } else { alpha };
                let scales = self.scales[parent + l].shrink(ptype, share);
                self.scales.push(scales);
            }
        }
        let equal =
            (0..n).all(|l| scales_bits(self.scales[a + l]) == scales_bits(self.scales[a + n + l]));
        let first = self.lineages;
        let kids = if equal {
            self.scales.truncate(a + n);
            self.lineages += 1;
            (first, first)
        } else {
            self.lineages += 2;
            (first, first + 1)
        };
        self.kids.insert(key, kids);
        kids
    }

    /// Counts each class's copies and orders the cut classes by depth.
    fn finish(mut self) -> ClassTable<'p> {
        for &c in &self.leaf_of {
            self.leaves[c as usize].copies += 1;
        }
        for &c in &self.cut_of {
            self.cuts[c as usize].copies += 1;
        }
        let mut order: Vec<usize> = (0..self.cuts.len()).collect();
        order.sort_by_key(|&c| self.cuts[c].depth);
        let mut rank = vec![0u32; order.len()];
        for (r, &c) in order.iter().enumerate() {
            rank[c] = r as u32;
        }
        for c in &mut self.cut_of {
            *c = rank[*c as usize];
        }
        // Stable, so the same permutation as `order`.
        let mut cuts = self.cuts;
        cuts.sort_by_key(|c| c.depth);
        let depths = cuts.last().map_or(0, |c| c.depth + 1);
        let mut depth_at = vec![0; depths + 1];
        for c in &cuts {
            depth_at[c.depth + 1] += 1;
        }
        for d in 0..depths {
            depth_at[d + 1] += depth_at[d];
        }
        ClassTable {
            n_layers: self.n_layers,
            scales: self.scales,
            leaves: self.leaves,
            cuts,
            depth_at,
            leaf_of: self.leaf_of,
            cut_of: self.cut_of,
        }
    }
}

/// A plan node's identity within one step: its address.
fn node_id(plan: &NetworkPlan) -> usize {
    std::ptr::from_ref(plan) as usize
}

/// `node`'s caps as [`GroupTree::degraded`] computes them: a leaf
/// (`first_leaf`) loses FLOP/s by its compute factor, and an internal
/// node sums its children's degraded caps.
fn degraded_caps(node: &GroupNode, faults: &FaultModel, first_leaf: usize) -> GroupCaps {
    match node.children() {
        None => {
            let mut caps = node.caps();
            caps.flops *= faults.compute_factor(first_leaf);
            caps
        }
        Some((a, b)) => {
            let x = degraded_caps(a, faults, first_leaf);
            let y = degraded_caps(b, faults, first_leaf + (1 << a.depth()));
            GroupCaps {
                flops: x.flops + y.flops,
                mem_bw: x.mem_bw + y.mem_bw,
                net_bw: x.net_bw + y.net_bw,
                hbm_bytes: x.hbm_bytes + y.hbm_bytes,
            }
        }
    }
}

// --- the per-layer expansion of the reference engines --------------------

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
            walk(
                a,
                child_a,
                depth + 1,
                layer,
                scales.shrink(entry.ptype, alpha),
                geom,
            );
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{memory_report, simulate, simulate_des, Optimizer, SimConfig};
    use accpar_dnn::zoo;
    use accpar_hw::AcceleratorArray;
    use accpar_partition::{HierPlan, PartitionType, Ratio};

    fn uniform(n: usize, ptype: PartitionType, ratio: f64) -> NetworkPlan {
        NetworkPlan::uniform(n, LayerPlan::new(ptype, Ratio::new(ratio).unwrap()))
    }

    /// A data-parallel plan, and an AccPar-shaped one: a skewed split
    /// between the array's two halves, each half a chain of twins.
    fn plans(n: usize, levels: usize) -> [PlanTree; 2] {
        let half = |ptype| HierPlan::new(vec![uniform(n, ptype, 0.5); levels - 1]).to_tree();
        [
            HierPlan::new(vec![uniform(n, PartitionType::TypeI, 0.5); levels]).to_tree(),
            PlanTree::branch(
                uniform(n, PartitionType::TypeI, 0.3),
                half(PartitionType::TypeII),
                half(PartitionType::TypeI),
            ),
        ]
    }

    /// (leaf classes, cut classes) of every plan of [`plans`].
    fn counts(
        array: &AcceleratorArray,
        levels: usize,
        faults: Option<&FaultModel>,
    ) -> Vec<(usize, usize)> {
        let n = zoo::resnet50(8)
            .unwrap()
            .train_view()
            .unwrap()
            .weighted_len();
        let tree = GroupTree::bisect(array, levels).unwrap();
        plans(n, levels)
            .iter()
            .map(|plan| {
                let table = ClassTable::new(&tree, plan, n, faults);
                assert_eq!(table.leaf_of.len(), tree.leaf_count());
                assert_eq!(table.cut_of.len(), tree.cut_count());
                assert_eq!(
                    table.leaves.iter().map(|c| c.copies).sum::<usize>(),
                    tree.leaf_count()
                );
                assert_eq!(
                    table.cuts.iter().map(|c| c.copies).sum::<usize>(),
                    tree.cut_count()
                );
                (table.leaves.len(), table.cuts.len())
            })
            .collect()
    }

    fn six_faults(slow: [usize; 3], cuts: [usize; 2], stalled: usize) -> FaultModel {
        FaultModel::new()
            .slow_leaf(slow[0], 0.5)
            .unwrap()
            .slow_leaf(slow[1], 0.7)
            .unwrap()
            .slow_leaf(slow[2], 0.4)
            .unwrap()
            .degrade_cut(cuts[0], 0.5)
            .unwrap()
            .degrade_cut(cuts[1], 0.3)
            .unwrap()
            .stall_leaf(stalled, 5e-4)
            .unwrap()
    }

    #[test]
    fn twins_and_the_subtrees_beside_faults_share_classes() {
        let paper = AcceleratorArray::heterogeneous_tpu(128, 128);
        // Healthy: one leaf class per board type, and per depth one cut
        // class per half (the root's is alone).
        assert_eq!(counts(&paper, 8, None), [(2, 15); 2]);
        // Every leaf and cut a fault touches is a class of its own; the
        // rest of the fault paths share the healthy classes.
        let faults = six_faults([5, 130, 200], [3, 100], 77);
        assert_eq!(counts(&paper, 8, Some(&faults)), [(6, 17); 2]);
        let one = FaultModel::new().slow_leaf(5, 0.5).unwrap();
        assert_eq!(counts(&paper, 8, Some(&one)), [(3, 15); 2]);
        let small = AcceleratorArray::heterogeneous_tpu(8, 8);
        let faults = six_faults([1, 9, 13], [2, 10], 6);
        assert_eq!(counts(&small, 4, Some(&faults)), [(6, 9); 2]);
    }

    #[test]
    fn a_short_child_plan_is_the_same_typed_error_everywhere() {
        let view = zoo::lenet(64).unwrap().train_view().unwrap();
        assert_eq!(view.weighted_len(), 5);
        let tree = GroupTree::bisect(&AcceleratorArray::heterogeneous_tpu(2, 2), 2).unwrap();
        let dp = |n| NetworkPlan::uniform(n, LayerPlan::data_parallel());
        let plan = PlanTree::branch(dp(5), PlanTree::leaf(dp(4)), PlanTree::leaf(dp(5)));
        let want = SimError::LayerCountMismatch {
            level: 1,
            plan: 4,
            network: 5,
        };
        let config = SimConfig::default();
        assert_eq!(
            simulate(&config, &view, &plan, &tree, None).unwrap_err(),
            want
        );
        assert_eq!(
            simulate_des(&config, &view, &plan, &tree, None).unwrap_err(),
            want
        );
        assert_eq!(
            memory_report(&view, &plan, &tree, &config, Optimizer::Sgd).unwrap_err(),
            want
        );
    }
}
