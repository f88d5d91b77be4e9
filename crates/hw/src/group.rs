use crate::array::AcceleratorArray;
use crate::error::HwError;
use crate::fault::FaultModel;
use std::fmt;

/// A share of one board: `cores` of the board's cores (all of them for a
/// whole-board share).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Share {
    /// Index of the board in the array.
    pub board: usize,
    /// Number of cores of that board in this group.
    pub cores: usize,
}

/// A set of (possibly partial) boards acting as one side of a bisection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    shares: Vec<Share>,
}

impl Group {
    /// The shares making up this group.
    #[must_use]
    pub fn shares(&self) -> &[Share] {
        &self.shares
    }

    /// Total number of cores in the group.
    #[must_use]
    pub fn total_cores(&self) -> usize {
        self.shares.iter().map(|s| s.cores).sum()
    }

    /// Whether the group consists only of whole boards.
    #[must_use]
    pub fn is_whole_boards(&self, array: &AcceleratorArray) -> bool {
        self.shares
            .iter()
            .all(|s| s.cores == array.boards()[s.board].cores())
    }
}

/// Aggregate capabilities of a group — the quantities the cost model
/// consumes: computation density `c_i` (FLOP/s), memory bandwidth
/// (bytes/s), external network bandwidth `b_i` (bytes/s) and HBM capacity
/// (bytes). Partial boards contribute proportionally to their core share.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupCaps {
    /// Aggregate peak compute, FLOP/s.
    pub flops: f64,
    /// Aggregate HBM bandwidth, bytes/s.
    pub mem_bw: f64,
    /// Aggregate external network bandwidth, bytes/s.
    pub net_bw: f64,
    /// Aggregate HBM capacity, bytes.
    pub hbm_bytes: f64,
}

impl GroupCaps {
    fn zero() -> Self {
        Self {
            flops: 0.0,
            mem_bw: 0.0,
            net_bw: 0.0,
            hbm_bytes: 0.0,
        }
    }

    fn of(group: &Group, array: &AcceleratorArray) -> Self {
        let mut caps = Self::zero();
        for share in group.shares() {
            let spec = &array.boards()[share.board];
            let frac = share.cores as f64 / spec.cores() as f64;
            caps.flops += spec.peak_flops() * frac;
            caps.mem_bw += spec.mem_bw() * frac;
            caps.net_bw += spec.net_bw() * frac;
            caps.hbm_bytes += spec.hbm_bytes() as f64 * frac;
        }
        caps
    }
}

/// One node of the recursive bisection: a group, its aggregate caps, the
/// bandwidth it uses to reach its *sibling*, and (unless it is a leaf) two
/// children.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupNode {
    group: Group,
    caps: GroupCaps,
    link_bw: f64,
    children: Option<Box<(GroupNode, GroupNode)>>,
}

impl GroupNode {
    /// The accelerators in this node.
    #[must_use]
    pub const fn group(&self) -> &Group {
        &self.group
    }

    /// Aggregate capabilities of this node.
    #[must_use]
    pub const fn caps(&self) -> GroupCaps {
        self.caps
    }

    /// Bandwidth (bytes/s) this node uses to access its sibling's memory:
    /// its aggregate external network bandwidth across the cut, or a share
    /// of the intra-board interconnect when the cut runs through a board.
    /// For the root this is the array's aggregate external bandwidth.
    #[must_use]
    pub const fn link_bw(&self) -> f64 {
        self.link_bw
    }

    /// The two children produced by bisection, if this is not a leaf.
    #[must_use]
    pub fn children(&self) -> Option<(&GroupNode, &GroupNode)> {
        self.children.as_deref().map(|c| (&c.0, &c.1))
    }

    /// Whether this node is a leaf of the tree.
    #[must_use]
    pub const fn is_leaf(&self) -> bool {
        self.children.is_none()
    }

    /// Depth of the subtree below (and including) this node.
    #[must_use]
    pub fn depth(&self) -> usize {
        match self.children() {
            None => 0,
            Some((l, r)) => 1 + l.depth().max(r.depth()),
        }
    }

    /// Whether this subtree and `other` price alike: the same shape, and
    /// at every node caps and link bandwidth equal bit for bit. Board
    /// indices do not count, so the two evenly split halves of a
    /// homogeneous group price alike — everything the cost model and the
    /// simulators read of them is equal.
    #[must_use]
    pub fn prices_alike(&self, other: &GroupNode) -> bool {
        let caps = |c: GroupCaps| [c.flops, c.mem_bw, c.net_bw, c.hbm_bytes].map(f64::to_bits);
        caps(self.caps) == caps(other.caps)
            && self.link_bw.to_bits() == other.link_bw.to_bits()
            && match (self.children(), other.children()) {
                (None, None) => true,
                (Some((a, b)), Some((c, d))) => a.prices_alike(c) && b.prices_alike(d),
                _ => false,
            }
    }

    /// Iterates over the leaves of this subtree, left to right.
    pub fn leaves(&self) -> Box<dyn Iterator<Item = &GroupNode> + '_> {
        match self.children() {
            None => Box::new(std::iter::once(self)),
            Some((l, r)) => Box::new(l.leaves().chain(r.leaves())),
        }
    }
}

/// The hierarchical bisection of an array into `levels` levels of group
/// pairs (§5.1: "apply the layer-wise partitioning recursively on a
/// partitioned hierarchy").
///
/// Bisection is *type-aware*: when a node contains exactly two runs of
/// distinct board types (the heterogeneous v2+v3 array), the cut falls on
/// the type boundary so each half is homogeneous; otherwise boards are
/// halved by count. Once a node is a single board, further levels split
/// its cores, with the intra-board interconnect as the cut bandwidth.
///
/// # Example
///
/// ```
/// use accpar_hw::{AcceleratorArray, GroupTree};
///
/// let tree = GroupTree::bisect(&AcceleratorArray::homogeneous_tpu_v3(8), 3)?;
/// assert_eq!(tree.levels(), 3);
/// assert_eq!(tree.root().leaves().count(), 8);
/// # Ok::<(), accpar_hw::HwError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct GroupTree {
    root: GroupNode,
    levels: usize,
}

impl GroupTree {
    /// Recursively bisects `array` into a complete tree of `levels`
    /// levels (so `2^levels` leaves).
    ///
    /// # Errors
    ///
    /// Returns [`HwError::EmptyArray`] for an empty array and
    /// [`HwError::TooDeep`] when `levels` exceeds
    /// [`AcceleratorArray::max_levels`].
    pub fn bisect(array: &AcceleratorArray, levels: usize) -> Result<Self, HwError> {
        if array.is_empty() {
            return Err(HwError::EmptyArray);
        }
        let all = Group {
            shares: (0..array.len())
                .map(|board| Share {
                    board,
                    cores: array.boards()[board].cores(),
                })
                .collect(),
        };
        let caps = GroupCaps::of(&all, array);
        let mut root = GroupNode {
            link_bw: caps.net_bw,
            caps,
            group: all,
            children: None,
        };
        build(&mut root, array, levels).map_err(|()| HwError::TooDeep {
            requested: levels,
            max: array.max_levels(),
        })?;
        Ok(Self { root, levels })
    }

    /// The root node covering the whole array.
    #[must_use]
    pub const fn root(&self) -> &GroupNode {
        &self.root
    }

    /// Number of bisection levels.
    #[must_use]
    pub const fn levels(&self) -> usize {
        self.levels
    }

    /// Number of internal nodes (cuts), in the pre-order numbering fault
    /// targets use: `2^levels − 1`, as every tree is a complete
    /// bisection ([`GroupTree::bisect`] fails rather than build a
    /// partial one, and [`GroupTree::degraded`] keeps the shape).
    #[must_use]
    pub fn cut_count(&self) -> usize {
        self.leaf_count() - 1
    }

    /// Number of leaves: `2^levels`, as every tree is a complete
    /// bisection.
    #[must_use]
    pub fn leaf_count(&self) -> usize {
        1 << self.levels
    }

    /// This tree with a fault model's compute and bandwidth faults
    /// folded into the node capabilities: faulted leaves lose FLOP/s,
    /// faulted cuts lose link bandwidth, and every ancestor's aggregate
    /// caps are recomputed bottom-up — so the cost model, the planner,
    /// and both simulator backends all see the degraded hardware through
    /// the ordinary [`GroupCaps`]/[`GroupNode::link_bw`] surface.
    ///
    /// Transient stalls and dropouts are *not* folded here: a stall is a
    /// per-step time offset (the simulators apply it), and a dropout
    /// changes the tree's shape (use [`GroupTree::without_leaf`]).
    ///
    /// # Errors
    ///
    /// Returns [`HwError::InvalidFault`] when a fault targets a leaf or
    /// cut outside this tree.
    pub fn degraded(&self, faults: &FaultModel) -> Result<Self, HwError> {
        faults.validate_for(self.leaf_count(), self.cut_count())?;
        let mut leaf_idx = 0usize;
        let mut node_idx = 0usize;
        let root = degrade_node(&self.root, faults, &mut leaf_idx, &mut node_idx);
        Ok(Self {
            root,
            levels: self.levels,
        })
    }

    /// The array and tree that remain after one leaf drops out: the
    /// boards the leaf owned are removed from `array` and the reduced
    /// array is re-bisected (with the hierarchy capped at the reduced
    /// array's maximum depth).
    ///
    /// The tree is rebuilt rather than patched: promoting the dropped
    /// leaf's sibling would leave an unbalanced tree whose shape no
    /// plan of the original depth matches, while a fresh bisection keeps
    /// every downstream invariant (complete tree, type-aware first cut).
    ///
    /// # Errors
    ///
    /// Returns [`HwError::InvalidFault`] when `leaf` is out of range or
    /// the leaf covers only part of a board (core-level dropout is not
    /// supported — drop the whole board), and [`HwError::EmptyArray`]
    /// when the drop would remove the last board.
    pub fn without_leaf(
        &self,
        array: &AcceleratorArray,
        leaf: usize,
    ) -> Result<(AcceleratorArray, GroupTree), HwError> {
        self.without_leaves(array, &[leaf])
    }

    /// [`GroupTree::without_leaf`] for several dropped leaves at once —
    /// all victims' boards are removed from `array` in one pass and the
    /// reduced array is re-bisected once. Duplicate indices are ignored.
    ///
    /// # Errors
    ///
    /// The same conditions as [`GroupTree::without_leaf`], checked for
    /// every index.
    pub fn without_leaves(
        &self,
        array: &AcceleratorArray,
        drop: &[usize],
    ) -> Result<(AcceleratorArray, GroupTree), HwError> {
        let leaves: Vec<&GroupNode> = self.root.leaves().collect();
        let mut victims = drop.to_vec();
        victims.sort_unstable();
        victims.dedup();
        let mut dropped: Vec<usize> = Vec::new();
        for &leaf in &victims {
            if leaf >= leaves.len() {
                return Err(HwError::InvalidFault(format!(
                    "leaf {leaf} out of range for a tree with {} leaves",
                    leaves.len()
                )));
            }
            let victim = leaves[leaf];
            if !victim.group().is_whole_boards(array) {
                return Err(HwError::InvalidFault(format!(
                    "leaf {leaf} covers a partial board; dropout is board-granular"
                )));
            }
            dropped.extend(victim.group().shares().iter().map(|s| s.board));
        }
        let boards: Vec<_> = array
            .boards()
            .iter()
            .enumerate()
            .filter(|(i, _)| !dropped.contains(i))
            .map(|(_, b)| b.clone())
            .collect();
        if boards.is_empty() {
            return Err(HwError::EmptyArray);
        }
        let reduced = AcceleratorArray::new(boards);
        let levels = self.levels.min(reduced.max_levels());
        let tree = GroupTree::bisect(&reduced, levels)?;
        Ok((reduced, tree))
    }
}

/// Rebuilds a subtree with fault factors folded in. Leaves are numbered
/// left to right, internal nodes in pre-order — matching the simulator's
/// geometry walk.
fn degrade_node(
    node: &GroupNode,
    faults: &FaultModel,
    leaf_idx: &mut usize,
    node_idx: &mut usize,
) -> GroupNode {
    match node.children() {
        None => {
            let i = *leaf_idx;
            *leaf_idx += 1;
            let mut caps = node.caps;
            caps.flops *= faults.compute_factor(i);
            GroupNode {
                group: node.group.clone(),
                caps,
                link_bw: node.link_bw,
                children: None,
            }
        }
        Some((a, b)) => {
            let i = *node_idx;
            *node_idx += 1;
            let bw = faults.bandwidth_factor(i);
            let mut left = degrade_node(a, faults, leaf_idx, node_idx);
            let mut right = degrade_node(b, faults, leaf_idx, node_idx);
            left.link_bw *= bw;
            right.link_bw *= bw;
            let caps = GroupCaps {
                flops: left.caps.flops + right.caps.flops,
                mem_bw: left.caps.mem_bw + right.caps.mem_bw,
                net_bw: left.caps.net_bw + right.caps.net_bw,
                hbm_bytes: left.caps.hbm_bytes + right.caps.hbm_bytes,
            };
            GroupNode {
                group: node.group.clone(),
                caps,
                link_bw: node.link_bw,
                children: Some(Box::new((left, right))),
            }
        }
    }
}

impl fmt::Display for GroupTree {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fn rec(node: &GroupNode, depth: usize, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            writeln!(
                f,
                "{}{} cores, {:.0} TFLOPS, link {:.1} GB/s",
                "  ".repeat(depth),
                node.group().total_cores(),
                node.caps().flops / 1e12,
                node.link_bw() / 1e9
            )?;
            if let Some((l, r)) = node.children() {
                rec(l, depth + 1, f)?;
                rec(r, depth + 1, f)?;
            }
            Ok(())
        }
        rec(&self.root, 0, f)
    }
}

/// Splits `node` recursively for `levels` more levels. Returns `Err(())`
/// when a node can no longer be split.
fn build(node: &mut GroupNode, array: &AcceleratorArray, levels: usize) -> Result<(), ()> {
    if levels == 0 {
        return Ok(());
    }
    let (left_group, right_group, intra_board) = split(&node.group, array)?;
    let left_caps = GroupCaps::of(&left_group, array);
    let right_caps = GroupCaps::of(&right_group, array);
    let (left_link, right_link) = if intra_board {
        // The cut runs through one board: both halves talk over the
        // intra-board interconnect, in proportion to their core share.
        let board = left_group.shares()[0].board;
        let spec = &array.boards()[board];
        let total = spec.cores() as f64;
        (
            spec.ici_bw() * left_group.total_cores() as f64 / total,
            spec.ici_bw() * right_group.total_cores() as f64 / total,
        )
    } else {
        (left_caps.net_bw, right_caps.net_bw)
    };
    let mut left = GroupNode {
        group: left_group,
        caps: left_caps,
        link_bw: left_link,
        children: None,
    };
    let mut right = GroupNode {
        group: right_group,
        caps: right_caps,
        link_bw: right_link,
        children: None,
    };
    build(&mut left, array, levels - 1)?;
    build(&mut right, array, levels - 1)?;
    node.children = Some(Box::new((left, right)));
    Ok(())
}

/// Where [`split`] cuts a group: between boards at an index of the
/// share list, or through the single board's cores into two shares.
enum Cut {
    Boards(usize),
    Cores(Share, Share),
}

/// The bisection rule: split the board list — at the type boundary when
/// the group is exactly two homogeneous runs, else in the middle — and
/// once one board remains, halve its cores. `None` for a single core.
fn cut(shares: &[Share], array: &AcceleratorArray) -> Option<Cut> {
    match *shares {
        [] => None,
        [share] => (share.cores >= 2).then(|| {
            let part = |cores| Share { cores, ..share };
            let half = share.cores / 2;
            Cut::Cores(part(half), part(share.cores - half))
        }),
        _ => Some(Cut::Boards(
            type_boundary(shares, array).unwrap_or(shares.len() / 2),
        )),
    }
}

/// Splits a group in two. Returns the halves and whether the cut runs
/// inside a single board.
fn split(group: &Group, array: &AcceleratorArray) -> Result<(Group, Group, bool), ()> {
    let shares = group.shares();
    Ok(match cut(shares, array).ok_or(())? {
        Cut::Boards(at) => {
            let (l, r) = shares.split_at(at);
            let group = |s: &[Share]| Group { shares: s.to_vec() };
            (group(l), group(r), false)
        }
        Cut::Cores(l, r) => (Group { shares: vec![l] }, Group { shares: vec![r] }, true),
    })
}

/// The deepest complete tree [`build`] can grow over `shares`: zero
/// where [`cut`] refuses, else one more than the shallower half.
pub(crate) fn max_depth(shares: &[Share], array: &AcceleratorArray) -> usize {
    let halves = |l: &[Share], r: &[Share]| 1 + max_depth(l, array).min(max_depth(r, array));
    match cut(shares, array) {
        None => 0,
        Some(Cut::Boards(at)) => {
            let (l, r) = shares.split_at(at);
            halves(l, r)
        }
        Some(Cut::Cores(l, r)) => halves(&[l], &[r]),
    }
}

/// If `shares` is exactly two runs of distinct board types, returns the
/// index of the boundary between them.
fn type_boundary(shares: &[Share], array: &AcceleratorArray) -> Option<usize> {
    let name = |s: &Share| array.boards()[s.board].name();
    let mut boundary = None;
    for (i, pair) in shares.windows(2).enumerate() {
        if name(&pair[0]) != name(&pair[1]) {
            if boundary.is_some() {
                return None; // more than two runs
            }
            boundary = Some(i + 1);
        }
    }
    boundary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::AcceleratorSpec;

    #[test]
    fn first_cut_separates_types() {
        let array = AcceleratorArray::heterogeneous_tpu(4, 4);
        let tree = GroupTree::bisect(&array, 1).unwrap();
        let (l, r) = tree.root().children().unwrap();
        assert_eq!(l.caps().flops, 4.0 * 180e12);
        assert_eq!(r.caps().flops, 4.0 * 420e12);
        // Each side reaches the other at its own aggregate bandwidth.
        assert_eq!(l.link_bw(), 4.0 * 1e9);
        assert_eq!(r.link_bw(), 4.0 * 2e9);
    }

    #[test]
    fn homogeneous_bisection_is_even() {
        let tree = GroupTree::bisect(&AcceleratorArray::homogeneous_tpu_v3(8), 3).unwrap();
        let leaves: Vec<_> = tree.root().leaves().collect();
        assert_eq!(leaves.len(), 8);
        for leaf in &leaves {
            assert_eq!(leaf.caps().flops, 420e12);
            assert_eq!(leaf.group().total_cores(), 8);
        }
        assert_eq!(tree.root().depth(), 3);
    }

    #[test]
    fn even_halves_price_alike_until_a_fault_touches_one() {
        let tree = GroupTree::bisect(&AcceleratorArray::heterogeneous_tpu(4, 4), 3).unwrap();
        let (v2, v3) = tree.root().children().unwrap();
        assert!(!v2.prices_alike(v3));
        let (a, b) = v2.children().unwrap();
        assert!(a.prices_alike(b), "board indices do not count");
        // A slow leaf breaks only the halves on its path.
        let slow = tree.degraded(&FaultModel::new().slow_leaf(0, 0.5).unwrap()).unwrap();
        let (v2, v3) = slow.root().children().unwrap();
        let (a, b) = v2.children().unwrap();
        assert!(!a.prices_alike(b));
        let (c, d) = v3.children().unwrap();
        assert!(c.prices_alike(d));
        // So does a degraded cut, through the link bandwidths below it.
        let cut = tree.degraded(&FaultModel::new().degrade_cut(2, 0.5).unwrap()).unwrap();
        let (v2, _) = cut.root().children().unwrap();
        let (a, b) = v2.children().unwrap();
        assert!(!a.prices_alike(b));
    }

    #[test]
    fn core_level_split_uses_ici() {
        // One 8-core board, 2 levels: 4+4 cores then deeper.
        let array = AcceleratorArray::homogeneous_tpu_v3(1);
        let tree = GroupTree::bisect(&array, 2).unwrap();
        let (l, r) = tree.root().children().unwrap();
        assert_eq!(l.group().total_cores(), 4);
        assert_eq!(r.group().total_cores(), 4);
        let spec = AcceleratorSpec::tpu_v3();
        assert_eq!(l.link_bw(), spec.ici_bw() * 0.5);
        // Caps scale with core share.
        assert_eq!(l.caps().flops, spec.peak_flops() * 0.5);
    }

    #[test]
    fn too_deep_is_reported() {
        let array = AcceleratorArray::homogeneous_tpu_v3(1);
        // 8 cores allow 3 levels; 4 must fail.
        let err = GroupTree::bisect(&array, 4).unwrap_err();
        assert_eq!(err, HwError::TooDeep { requested: 4, max: 3 });
        assert!(GroupTree::bisect(&array, 3).is_ok());
    }

    #[test]
    fn empty_array_is_rejected() {
        let err = GroupTree::bisect(&AcceleratorArray::new(vec![]), 1).unwrap_err();
        assert_eq!(err, HwError::EmptyArray);
    }

    #[test]
    fn odd_board_counts_split_floor_ceil() {
        let tree = GroupTree::bisect(&AcceleratorArray::homogeneous_tpu_v3(5), 1).unwrap();
        let (l, r) = tree.root().children().unwrap();
        assert_eq!(l.group().shares().len(), 2);
        assert_eq!(r.group().shares().len(), 3);
    }

    #[test]
    fn deep_heterogeneous_tree_reaches_cores() {
        let array = AcceleratorArray::heterogeneous_tpu(2, 2);
        // 2 board levels + 3 core levels = 5.
        assert_eq!(array.max_levels(), 5);
        let tree = GroupTree::bisect(&array, 5).unwrap();
        assert_eq!(tree.root().leaves().count(), 32);
        for leaf in tree.root().leaves() {
            assert_eq!(leaf.group().total_cores(), 1);
        }
    }

    #[test]
    fn max_levels_is_exactly_the_deepest_bisection() {
        for v2 in 0usize..=8 {
            for v3 in 0usize..=8 {
                if v2 + v3 == 0 {
                    continue;
                }
                let array = AcceleratorArray::heterogeneous_tpu(v2, v3);
                let max = array.max_levels();
                let tree = GroupTree::bisect(&array, max)
                    .unwrap_or_else(|e| panic!("{v2}+{v3} at its maximum {max}: {e}"));
                assert_eq!(tree.root().depth(), max, "{v2}+{v3}");
                assert_eq!(
                    GroupTree::bisect(&array, max + 1).unwrap_err(),
                    HwError::TooDeep {
                        requested: max + 1,
                        max
                    },
                    "{v2}+{v3}"
                );
            }
        }
        // The uneven shapes whose board-count bound overshot.
        for (v2, v3, max) in [(1, 5, 4), (3, 5, 5), (1, 4, 4), (4, 1, 4), (1, 16, 4)] {
            assert_eq!(
                AcceleratorArray::heterogeneous_tpu(v2, v3).max_levels(),
                max,
                "{v2}+{v3}"
            );
        }
    }

    #[test]
    fn a_dropout_tree_keeps_every_depth_the_survivors_bisect_to() {
        // Losing 15 of 16 v2 boards leaves 1+16, which bisects to 4
        // levels: a 5-level tree rebuilds at 4 instead of failing.
        let array = AcceleratorArray::heterogeneous_tpu(16, 16);
        let tree = GroupTree::bisect(&array, 5).unwrap();
        let v2_leaves: Vec<usize> = (1..16).collect();
        let (reduced, rebuilt) = tree.without_leaves(&array, &v2_leaves).unwrap();
        assert_eq!(reduced.len(), 17);
        assert_eq!(rebuilt.levels(), 4);
    }

    #[test]
    fn bisection_invariants_hold_for_many_shapes() {
        fn check(node: &GroupNode) {
            if let Some((a, b)) = node.children() {
                let sum = a.caps().flops + b.caps().flops;
                assert!((sum - node.caps().flops).abs() < 1.0);
                assert!(a.link_bw() > 0.0 && b.link_bw() > 0.0);
                check(a);
                check(b);
            }
        }
        for v2 in 0usize..6 {
            for v3 in 0usize..6 {
                if v2 + v3 == 0 {
                    continue;
                }
                let array = AcceleratorArray::heterogeneous_tpu(v2, v3);
                for levels in 0usize..4 {
                    if levels > array.max_levels() {
                        continue;
                    }
                    let tree = GroupTree::bisect(&array, levels).unwrap();
                    // A complete binary tree of the requested depth.
                    assert_eq!(tree.root().leaves().count(), 1 << levels);
                    assert_eq!(tree.root().depth(), levels);
                    // Compute is conserved across every level of the tree.
                    check(tree.root());
                }
            }
        }
    }

    #[test]
    fn counts_equal_the_walked_counts() {
        fn walked(node: &GroupNode) -> (usize, usize) {
            match node.children() {
                None => (1, 0),
                Some((l, r)) => {
                    let (a, b) = (walked(l), walked(r));
                    (a.0 + b.0, 1 + a.1 + b.1)
                }
            }
        }
        let check = |tree: &GroupTree, label: &str| {
            assert_eq!((tree.leaf_count(), tree.cut_count()), walked(tree.root()), "{label}");
        };
        for v2 in 0usize..=8 {
            for v3 in 0usize..=8 {
                if v2 + v3 == 0 {
                    continue;
                }
                let array = AcceleratorArray::heterogeneous_tpu(v2, v3);
                for levels in 0..=array.max_levels() {
                    check(&GroupTree::bisect(&array, levels).unwrap(), &format!("{v2}+{v3} at {levels}"));
                }
            }
        }
        let array = AcceleratorArray::heterogeneous_tpu(128, 128);
        let tree = GroupTree::bisect(&array, 8).unwrap();
        check(&tree, "128+128");
        let (_, rebuilt) = tree.without_leaves(&array, &[0, 1, 2]).unwrap();
        check(&rebuilt, "128+128 without three leaves");
    }

    #[test]
    fn caps_sum_to_array_totals() {
        let array = AcceleratorArray::heterogeneous_tpu(3, 5);
        let tree = GroupTree::bisect(&array, 3).unwrap();
        let leaf_flops: f64 = tree.root().leaves().map(|l| l.caps().flops).sum();
        assert!((leaf_flops - array.total_flops()).abs() < 1.0);
    }

    #[test]
    fn degraded_scales_leaf_flops_and_ancestors() {
        let array = AcceleratorArray::heterogeneous_tpu(2, 2);
        let tree = GroupTree::bisect(&array, 2).unwrap();
        let faults = FaultModel::new().slow_leaf(0, 0.5).unwrap();
        let degraded = tree.degraded(&faults).unwrap();

        let orig: Vec<f64> = tree.root().leaves().map(|l| l.caps().flops).collect();
        let got: Vec<f64> = degraded.root().leaves().map(|l| l.caps().flops).collect();
        assert_eq!(got[0], orig[0] * 0.5);
        assert_eq!(&got[1..], &orig[1..]);
        // Ancestors re-aggregate the degraded leaf.
        assert!(
            (degraded.root().caps().flops - (tree.root().caps().flops - orig[0] * 0.5)).abs()
                < 1.0
        );
        // Non-compute caps are untouched.
        assert_eq!(degraded.root().caps().mem_bw, tree.root().caps().mem_bw);
        assert_eq!(degraded.levels(), tree.levels());
    }

    #[test]
    fn degraded_scales_cut_links_preorder() {
        let array = AcceleratorArray::heterogeneous_tpu(2, 2);
        let tree = GroupTree::bisect(&array, 2).unwrap();
        // Cut 1 is the root's left child (pre-order: root=0, left=1,
        // right=4 — the left subtree holds nodes 1..4).
        let faults = FaultModel::new().degrade_cut(1, 0.25).unwrap();
        let degraded = tree.degraded(&faults).unwrap();
        let (l, r) = tree.root().children().unwrap();
        let (dl, dr) = degraded.root().children().unwrap();
        // The root cut (index 0) is untouched.
        assert_eq!(dl.link_bw(), l.link_bw());
        assert_eq!(dr.link_bw(), r.link_bw());
        // The left child's own children lost bandwidth, the right's kept it.
        let (ll, lr) = l.children().unwrap();
        let (dll, dlr) = dl.children().unwrap();
        assert_eq!(dll.link_bw(), ll.link_bw() * 0.25);
        assert_eq!(dlr.link_bw(), lr.link_bw() * 0.25);
        let (rl, _) = r.children().unwrap();
        let (drl, _) = dr.children().unwrap();
        assert_eq!(drl.link_bw(), rl.link_bw());
    }

    #[test]
    fn degraded_rejects_out_of_range_targets() {
        let tree = GroupTree::bisect(&AcceleratorArray::heterogeneous_tpu(2, 2), 1).unwrap();
        assert_eq!(tree.leaf_count(), 2);
        assert_eq!(tree.cut_count(), 1);
        let bad_leaf = FaultModel::new().slow_leaf(2, 0.5).unwrap();
        assert!(matches!(
            tree.degraded(&bad_leaf),
            Err(HwError::InvalidFault(_))
        ));
        let bad_cut = FaultModel::new().degrade_cut(1, 0.5).unwrap();
        assert!(matches!(
            tree.degraded(&bad_cut),
            Err(HwError::InvalidFault(_))
        ));
    }

    #[test]
    fn without_leaf_rebuilds_reduced_array() {
        let array = AcceleratorArray::heterogeneous_tpu(2, 2);
        let tree = GroupTree::bisect(&array, 2).unwrap();
        // Leaf 0 is one tpu-v2 board.
        let (reduced, new_tree) = tree.without_leaf(&array, 0).unwrap();
        assert_eq!(reduced.len(), 3);
        assert_eq!(
            reduced.boards().iter().filter(|b| b.name() == "tpu-v2").count(),
            1
        );
        assert_eq!(new_tree.levels(), 2);
        assert_eq!(new_tree.leaf_count(), 4);
        assert!(
            (new_tree.root().caps().flops - (array.total_flops() - 180e12)).abs() < 1.0
        );
    }

    #[test]
    fn without_leaf_caps_hierarchy_depth() {
        // 2 boards at 1 level: dropping one leaves a single board, which
        // still supports core-level splits, so the level count survives.
        let array = AcceleratorArray::homogeneous_tpu_v3(2);
        let tree = GroupTree::bisect(&array, 1).unwrap();
        let (reduced, new_tree) = tree.without_leaf(&array, 1).unwrap();
        assert_eq!(reduced.len(), 1);
        assert_eq!(new_tree.levels(), 1);
        assert_eq!(new_tree.leaf_count(), 2);
    }

    #[test]
    fn without_leaf_rejects_partial_boards_and_bad_indices() {
        let array = AcceleratorArray::homogeneous_tpu_v3(1);
        // 2 levels split the single board's cores: leaves are partial.
        let tree = GroupTree::bisect(&array, 2).unwrap();
        assert!(matches!(
            tree.without_leaf(&array, 0),
            Err(HwError::InvalidFault(_))
        ));

        let array = AcceleratorArray::homogeneous_tpu_v3(2);
        let tree = GroupTree::bisect(&array, 1).unwrap();
        assert!(matches!(
            tree.without_leaf(&array, 9),
            Err(HwError::InvalidFault(_))
        ));
    }

    #[test]
    fn without_last_board_is_empty() {
        let array = AcceleratorArray::homogeneous_tpu_v3(1);
        let tree = GroupTree::bisect(&array, 0).unwrap();
        assert_eq!(tree.without_leaf(&array, 0), Err(HwError::EmptyArray));
    }
}
