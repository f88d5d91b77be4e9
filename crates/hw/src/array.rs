use crate::group::Share;
use crate::spec::AcceleratorSpec;
use std::fmt;

/// An ordered collection of accelerator boards.
///
/// Order matters for hierarchical bisection: boards of the same type are
/// kept adjacent so the first cut of a [`GroupTree`](crate::GroupTree)
/// separates heterogeneous halves cleanly (v2 vs v3 in the paper's
/// evaluation).
///
/// # Example
///
/// ```
/// use accpar_hw::AcceleratorArray;
///
/// let array = AcceleratorArray::heterogeneous_tpu(128, 128);
/// assert_eq!(array.len(), 256);
/// // Aggregate compute: 128·180T + 128·420T.
/// assert_eq!(array.total_flops(), 128.0 * 180e12 + 128.0 * 420e12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct AcceleratorArray {
    boards: Vec<AcceleratorSpec>,
}

impl AcceleratorArray {
    /// Creates an array from an explicit list of boards.
    #[must_use]
    pub fn new(boards: Vec<AcceleratorSpec>) -> Self {
        Self { boards }
    }

    /// `n` identical boards.
    #[must_use]
    pub fn homogeneous(spec: AcceleratorSpec, n: usize) -> Self {
        Self {
            boards: vec![spec; n],
        }
    }

    /// The paper's heterogeneous array: `n_v2` TPU-v2 boards followed by
    /// `n_v3` TPU-v3 boards (§6.2 uses 128 + 128).
    #[must_use]
    pub fn heterogeneous_tpu(n_v2: usize, n_v3: usize) -> Self {
        let mut boards = vec![AcceleratorSpec::tpu_v2(); n_v2];
        boards.extend(vec![AcceleratorSpec::tpu_v3(); n_v3]);
        Self { boards }
    }

    /// The paper's homogeneous array: `n` TPU-v3 boards (§6.3 uses 128).
    #[must_use]
    pub fn homogeneous_tpu_v3(n: usize) -> Self {
        Self::homogeneous(AcceleratorSpec::tpu_v3(), n)
    }

    /// The boards in array order.
    #[must_use]
    pub fn boards(&self) -> &[AcceleratorSpec] {
        &self.boards
    }

    /// Number of boards.
    #[must_use]
    pub fn len(&self) -> usize {
        self.boards.len()
    }

    /// Whether the array has no boards.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.boards.is_empty()
    }

    /// Sum of peak FLOPS over all boards.
    #[must_use]
    pub fn total_flops(&self) -> f64 {
        self.boards.iter().map(AcceleratorSpec::peak_flops).sum()
    }

    /// Sum of HBM capacity over all boards, in bytes.
    #[must_use]
    pub fn total_hbm_bytes(&self) -> u64 {
        self.boards.iter().map(AcceleratorSpec::hbm_bytes).sum()
    }

    /// Whether all boards share one specification.
    #[must_use]
    pub fn is_homogeneous(&self) -> bool {
        self.boards.windows(2).all(|w| w[0] == w[1])
    }

    /// Maximum hierarchical bisection depth: the deepest
    /// [`GroupTree::bisect`](crate::GroupTree::bisect) accepts, derived
    /// from its own split rule — board lists split (at the type boundary
    /// first) until single, then cores halve until single, and the
    /// shallowest branch bounds the tree. 0 for an empty array.
    #[must_use]
    pub fn max_levels(&self) -> usize {
        let shares: Vec<Share> = self
            .boards
            .iter()
            .enumerate()
            .map(|(board, spec)| Share {
                board,
                cores: spec.cores(),
            })
            .collect();
        crate::group::max_depth(&shares, self)
    }
}

impl fmt::Display for AcceleratorArray {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.boards.is_empty() {
            return write!(f, "empty array");
        }
        // Group consecutive identical boards for a compact rendering.
        let mut runs: Vec<(usize, &AcceleratorSpec)> = Vec::new();
        for board in &self.boards {
            match runs.last_mut() {
                Some((count, spec)) if *spec == board => *count += 1,
                _ => runs.push((1, board)),
            }
        }
        let parts: Vec<String> = runs
            .iter()
            .map(|(count, spec)| format!("{count}x {}", spec.name()))
            .collect();
        write!(f, "{}", parts.join(" + "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heterogeneous_keeps_types_adjacent() {
        let array = AcceleratorArray::heterogeneous_tpu(2, 3);
        assert_eq!(array.len(), 5);
        assert_eq!(array.boards()[0].name(), "tpu-v2");
        assert_eq!(array.boards()[1].name(), "tpu-v2");
        assert_eq!(array.boards()[2].name(), "tpu-v3");
        assert!(!array.is_homogeneous());
    }

    #[test]
    fn homogeneous_detection() {
        assert!(AcceleratorArray::homogeneous_tpu_v3(4).is_homogeneous());
        assert!(AcceleratorArray::new(vec![]).is_homogeneous());
    }

    #[test]
    fn max_levels_counts_boards_then_cores() {
        // 256 boards of 8 cores: 8 board levels + 3 core levels.
        let array = AcceleratorArray::heterogeneous_tpu(128, 128);
        assert_eq!(array.max_levels(), 11);
        // A single 8-core board still allows 3 levels.
        let one = AcceleratorArray::homogeneous_tpu_v3(1);
        assert_eq!(one.max_levels(), 3);
        assert_eq!(AcceleratorArray::new(vec![]).max_levels(), 0);
    }

    #[test]
    fn display_compacts_runs() {
        let array = AcceleratorArray::heterogeneous_tpu(2, 2);
        assert_eq!(array.to_string(), "2x tpu-v2 + 2x tpu-v3");
    }
}
