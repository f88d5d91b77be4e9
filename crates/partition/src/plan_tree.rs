use crate::plan::{HierPlan, NetworkPlan};
use crate::ptype::PartitionType;
use std::fmt;
use std::sync::Arc;

/// A hierarchical plan shaped like the group tree it partitions: each
/// node carries the [`NetworkPlan`] of *its* bisection, and — unless it is
/// at the bottom of the hierarchy — two children for the sub-plans inside
/// each half.
///
/// On a heterogeneous array the two halves of a cut have different
/// capabilities, so the recursive search (§5.1) may choose *different*
/// plans inside them; a flat per-level [`HierPlan`] cannot express that,
/// a `PlanTree` can. A uniform tree (same plan for every node of a level)
/// is available via [`PlanTree::uniform`] and from
/// [`HierPlan::to_tree`].
///
/// Children are shared nodes. A *twin* ([`PlanTree::twin`]) holds one
/// child in both halves — the shape an evenly split homogeneous half
/// plans to — so a tree over `2^d` leaves whose halves repeat stores,
/// walks and clones each distinct subtree once. Equality compares
/// content: a twin equals a [`PlanTree::branch`] of two equal children.
#[derive(Debug, Clone)]
pub struct PlanTree {
    plan: NetworkPlan,
    children: Option<(Arc<PlanTree>, Arc<PlanTree>)>,
}

impl PlanTree {
    /// A single-level tree (leaf bisection).
    #[must_use]
    pub fn leaf(plan: NetworkPlan) -> Self {
        Self {
            plan,
            children: None,
        }
    }

    /// A bisection with sub-plans inside each half.
    #[must_use]
    pub fn branch(plan: NetworkPlan, left: PlanTree, right: PlanTree) -> Self {
        Self {
            plan,
            children: Some((Arc::new(left), Arc::new(right))),
        }
    }

    /// A bisection whose two halves hold the same sub-plan, stored once.
    #[must_use]
    pub fn twin(plan: NetworkPlan, child: PlanTree) -> Self {
        let child = Arc::new(child);
        Self {
            plan,
            children: Some((Arc::clone(&child), child)),
        }
    }

    /// Builds a uniform tree: the same plan for every node of each level,
    /// every bisection a twin.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty.
    #[must_use]
    pub fn uniform(levels: &[NetworkPlan]) -> Self {
        assert!(!levels.is_empty(), "a plan tree needs at least one level");
        let plan = levels[0].clone();
        if levels.len() == 1 {
            Self::leaf(plan)
        } else {
            Self::twin(plan, Self::uniform(&levels[1..]))
        }
    }

    /// This node's bisection plan.
    #[must_use]
    pub const fn plan(&self) -> &NetworkPlan {
        &self.plan
    }

    /// The sub-plans inside each half, if any. For a twin both are the
    /// same node.
    #[must_use]
    pub fn children(&self) -> Option<(&PlanTree, &PlanTree)> {
        self.children.as_ref().map(|(a, b)| (&**a, &**b))
    }

    /// Whether both halves hold the same shared node
    /// ([`PlanTree::twin`]).
    #[must_use]
    pub fn is_twin(&self) -> bool {
        self.children
            .as_ref()
            .is_some_and(|(a, b)| Arc::ptr_eq(a, b))
    }

    /// The children as walks that pay once per distinct node see them.
    fn kids(&self) -> Kids<'_> {
        match self.children() {
            None => Kids::Leaf,
            Some((a, _)) if self.is_twin() => Kids::Twin(a),
            Some((a, b)) => Kids::Pair(a, b),
        }
    }

    /// Number of bisection levels (1 for a leaf).
    #[must_use]
    pub fn depth(&self) -> usize {
        match self.kids() {
            Kids::Leaf => 1,
            Kids::Twin(c) => 1 + c.depth(),
            Kids::Pair(a, b) => 1 + a.depth().max(b.depth()),
        }
    }

    /// Total count of a type across all nodes and layers — Figure 7's
    /// aggregate statistic.
    #[must_use]
    pub fn count(&self, ptype: PartitionType) -> usize {
        let own = self.plan.count(ptype);
        match self.kids() {
            Kids::Leaf => own,
            Kids::Twin(c) => own + 2 * c.count(ptype),
            Kids::Pair(a, b) => own + a.count(ptype) + b.count(ptype),
        }
    }

    /// Rebuilds the tree with every node's entry for every layer passed
    /// through `f` (which receives the weighted-layer index and the
    /// current entry). Used by memory-feasibility repair to flip layers
    /// to model partitioning across all levels at once. Twins stay
    /// twins.
    #[must_use]
    pub fn map_layers(&self, f: &impl Fn(usize, crate::LayerPlan) -> crate::LayerPlan) -> PlanTree {
        let plan = crate::NetworkPlan::new(
            self.plan
                .layers()
                .iter()
                .enumerate()
                .map(|(l, &entry)| f(l, entry))
                .collect(),
        );
        match self.kids() {
            Kids::Leaf => PlanTree::leaf(plan),
            Kids::Twin(c) => PlanTree::twin(plan, c.map_layers(f)),
            Kids::Pair(a, b) => PlanTree::branch(plan, a.map_layers(f), b.map_layers(f)),
        }
    }

    /// Per-layer type counts across all nodes: `counts[layer][type index
    /// in `PartitionType::ALL`]` — the data behind Figure 7.
    #[must_use]
    pub fn per_layer_type_counts(&self) -> Vec<[usize; 3]> {
        let mut counts = vec![[0usize; 3]; self.plan.len()];
        self.accumulate(&mut counts, 1);
        counts
    }

    /// Adds this subtree's entries, each `weight` times, to `counts`.
    fn accumulate(&self, counts: &mut [[usize; 3]], weight: usize) {
        for (l, entry) in self.plan.layers().iter().enumerate() {
            let t_idx = PartitionType::ALL
                .iter()
                .position(|&t| t == entry.ptype)
                .expect("type in ALL");
            counts[l][t_idx] += weight;
        }
        match self.kids() {
            Kids::Leaf => {}
            Kids::Twin(c) => c.accumulate(counts, 2 * weight),
            Kids::Pair(a, b) => {
                a.accumulate(counts, weight);
                b.accumulate(counts, weight);
            }
        }
    }
}

/// A node's children, with a twin's shared child seen once.
enum Kids<'a> {
    Leaf,
    Twin(&'a PlanTree),
    Pair(&'a PlanTree, &'a PlanTree),
}

impl PartialEq for PlanTree {
    fn eq(&self, other: &Self) -> bool {
        if self.plan != other.plan {
            return false;
        }
        match (&self.children, &other.children) {
            (None, None) => true,
            (Some((a, b)), Some((c, d))) => {
                let same = |x: &Arc<PlanTree>, y: &Arc<PlanTree>| Arc::ptr_eq(x, y) || x == y;
                // Two twins agree on the right half once the left agrees.
                same(a, c) && ((self.is_twin() && other.is_twin()) || same(b, d))
            }
            _ => false,
        }
    }
}

impl HierPlan {
    /// Expands this flat per-level plan into a uniform [`PlanTree`].
    ///
    /// # Panics
    ///
    /// Panics if the plan has no levels.
    #[must_use]
    pub fn to_tree(&self) -> PlanTree {
        PlanTree::uniform(self.levels())
    }
}

impl fmt::Display for PlanTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn rec(node: &PlanTree, depth: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            writeln!(f, "{}{}", "  ".repeat(depth), node.plan().type_string())?;
            if let Some((l, r)) = node.children() {
                rec(l, depth + 1, f)?;
                rec(r, depth + 1, f)?;
            }
            Ok(())
        }
        rec(self, 0, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::LayerPlan;
    use crate::ratio::Ratio;

    fn plan(t: PartitionType, n: usize) -> NetworkPlan {
        NetworkPlan::uniform(n, LayerPlan::new(t, Ratio::EQUAL))
    }

    #[test]
    fn uniform_tree_shape() {
        let tree = PlanTree::uniform(&vec![plan(PartitionType::TypeI, 2); 3]);
        assert_eq!(tree.depth(), 3);
        // 1 + 2 + 4 nodes, 2 layers each.
        assert_eq!(tree.count(PartitionType::TypeI), 14);
    }

    #[test]
    fn heterogeneous_children_allowed() {
        let tree = PlanTree::branch(
            plan(PartitionType::TypeI, 1),
            PlanTree::leaf(plan(PartitionType::TypeII, 1)),
            PlanTree::leaf(plan(PartitionType::TypeIII, 1)),
        );
        assert_eq!(tree.count(PartitionType::TypeII), 1);
        assert_eq!(tree.count(PartitionType::TypeIII), 1);
        assert_eq!(tree.depth(), 2);
    }

    #[test]
    fn hier_plan_round_trips() {
        let hier = HierPlan::new(vec![plan(PartitionType::TypeI, 2), plan(PartitionType::TypeII, 2)]);
        let tree = hier.to_tree();
        assert_eq!(tree.depth(), 2);
        assert_eq!(tree.count(PartitionType::TypeI), 2);
        // Level 1 appears in both halves.
        assert_eq!(tree.count(PartitionType::TypeII), 4);
    }

    #[test]
    fn per_layer_counts() {
        let tree = PlanTree::branch(
            NetworkPlan::new(vec![
                LayerPlan::new(PartitionType::TypeI, Ratio::EQUAL),
                LayerPlan::new(PartitionType::TypeII, Ratio::EQUAL),
            ]),
            PlanTree::leaf(plan(PartitionType::TypeIII, 2)),
            PlanTree::leaf(plan(PartitionType::TypeIII, 2)),
        );
        let counts = tree.per_layer_type_counts();
        assert_eq!(counts[0], [1, 0, 2]);
        assert_eq!(counts[1], [0, 1, 2]);
    }

    #[test]
    fn map_layers_flips_types_everywhere() {
        let tree = PlanTree::uniform(&vec![plan(PartitionType::TypeI, 3); 2]);
        let flipped = tree.map_layers(&|l, entry| {
            if l == 1 {
                LayerPlan::new(PartitionType::TypeII, entry.ratio)
            } else {
                entry
            }
        });
        // 3 nodes x 1 flipped layer.
        assert_eq!(flipped.count(PartitionType::TypeII), 3);
        assert_eq!(flipped.count(PartitionType::TypeI), 6);
        assert_eq!(flipped.depth(), 2);
    }

    #[test]
    fn twins_share_one_child_and_equal_their_expanded_branch() {
        let uniform = PlanTree::uniform(&vec![plan(PartitionType::TypeI, 2); 3]);
        assert!(uniform.is_twin());
        let (a, b) = uniform.children().unwrap();
        assert!(std::ptr::eq(a, b));
        let expanded = PlanTree::branch(
            plan(PartitionType::TypeI, 2),
            PlanTree::uniform(&vec![plan(PartitionType::TypeI, 2); 2]),
            PlanTree::uniform(&vec![plan(PartitionType::TypeI, 2); 2]),
        );
        assert!(!expanded.is_twin());
        assert_eq!(uniform, expanded);
        assert_eq!(expanded, uniform);
        assert_eq!(uniform.count(PartitionType::TypeI), expanded.count(PartitionType::TypeI));
        assert_eq!(uniform.per_layer_type_counts(), expanded.per_layer_type_counts());
        // Different content under a twin is still told apart.
        let other = PlanTree::twin(
            plan(PartitionType::TypeI, 2),
            PlanTree::uniform(&vec![plan(PartitionType::TypeII, 2); 2]),
        );
        assert_ne!(uniform, other);
    }

    #[test]
    fn map_layers_keeps_twins() {
        let tree = PlanTree::uniform(&vec![plan(PartitionType::TypeI, 1); 3]);
        let mapped = tree.map_layers(&|_, entry| entry);
        assert_eq!(mapped, tree);
        assert!(mapped.is_twin());
        assert!(mapped.children().unwrap().0.is_twin());
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn uniform_rejects_empty() {
        let _ = PlanTree::uniform(&[]);
    }
}
