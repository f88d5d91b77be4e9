//! Shared fault-model preparation for both simulator backends.

use crate::error::SimError;
use accpar_hw::{FaultModel, FaultTarget, GroupTree};

/// Validates `faults` against `tree`: every target exists, and no leaf
/// is dropped.
///
/// Dropout is *not* simulatable against the original plan — the plan
/// still assigns shards to the missing leaf — so a dropped leaf is
/// reported as [`SimError::DroppedLeaf`]; callers re-plan on the reduced
/// array (see `accpar-core`) before simulating. The simulators fold the
/// rate faults into their class table (`geometry::ClassTable`).
pub(crate) fn validate(tree: &GroupTree, faults: &FaultModel) -> Result<(), SimError> {
    let leaves = tree.leaf_count();
    let cuts = tree.cut_count();
    for fault in faults.faults() {
        match fault.target {
            FaultTarget::Leaf(leaf) if leaf >= leaves => {
                return Err(SimError::FaultLeafOutOfRange { leaf, leaves });
            }
            FaultTarget::Cut(cut) if cut >= cuts => {
                return Err(SimError::FaultCutOutOfRange { cut, cuts });
            }
            FaultTarget::Leaf(_) | FaultTarget::Cut(_) => {}
        }
    }
    if let Some(&leaf) = faults.dropped_leaves().first() {
        return Err(SimError::DroppedLeaf { leaf });
    }
    Ok(())
}

/// [`validate`], then the rate faults folded into a degraded copy of
/// `tree`, and the per-leaf transient stall windows (seconds, one entry
/// per leaf left to right) — the reference engines' fault path.
pub(crate) fn prepare(
    tree: &GroupTree,
    faults: &FaultModel,
) -> Result<(GroupTree, Vec<f64>), SimError> {
    validate(tree, faults)?;
    let degraded = tree
        .degraded(faults)
        .map_err(|e| SimError::Fault(e.to_string()))?;
    let stalls = (0..tree.leaf_count())
        .map(|i| faults.stall_secs(i))
        .collect();
    Ok((degraded, stalls))
}

#[cfg(test)]
mod tests {
    use super::*;
    use accpar_hw::AcceleratorArray;

    fn tree() -> GroupTree {
        GroupTree::bisect(&AcceleratorArray::homogeneous_tpu_v3(4), 2).unwrap()
    }

    #[test]
    fn out_of_range_targets_are_typed_errors() {
        let t = tree();
        let faults = FaultModel::new().slow_leaf(4, 0.5).unwrap();
        assert_eq!(
            prepare(&t, &faults).unwrap_err(),
            SimError::FaultLeafOutOfRange { leaf: 4, leaves: 4 }
        );
        let faults = FaultModel::new().degrade_cut(3, 0.5).unwrap();
        assert_eq!(
            prepare(&t, &faults).unwrap_err(),
            SimError::FaultCutOutOfRange { cut: 3, cuts: 3 }
        );
    }

    #[test]
    fn dropout_is_reported_not_simulated() {
        let t = tree();
        let faults = FaultModel::new().drop_leaf(2);
        assert_eq!(
            prepare(&t, &faults).unwrap_err(),
            SimError::DroppedLeaf { leaf: 2 }
        );
    }

    #[test]
    fn stall_vector_covers_every_leaf() {
        let t = tree();
        let faults = FaultModel::new().stall_leaf(1, 0.25).unwrap();
        let (degraded, stalls) = prepare(&t, &faults).unwrap();
        assert_eq!(degraded.leaf_count(), 4);
        assert_eq!(stalls, vec![0.0, 0.25, 0.0, 0.0]);
    }
}
