//! The evaluation experiments of §6: speedups on heterogeneous and
//! homogeneous arrays (Figures 5 and 6), the per-layer partition types of
//! AlexNet (Figure 7), and the hierarchy-level scalability sweep on
//! VGG-19 (Figure 8).

use crate::json::Json;
use accpar_core::{Planner, Strategy};
use accpar_dnn::zoo;
use accpar_hw::AcceleratorArray;
use accpar_sim::SimConfig;

/// The paper's mini-batch size (§6.1).
pub const PAPER_BATCH: usize = 512;

/// Speedups of the four schemes on one network, normalized to data
/// parallelism.
#[derive(Debug, Clone, PartialEq)]
pub struct SpeedupRow {
    /// Network name.
    pub network: String,
    /// Simulated step time in milliseconds, in [`Strategy::ALL`] order.
    pub step_ms: [f64; 4],
    /// Speedup over the DP baseline, in [`Strategy::ALL`] order.
    pub speedups: [f64; 4],
}

/// Geometric mean of one strategy column over a set of rows.
///
/// # Panics
///
/// Panics if `rows` is empty.
#[must_use]
pub fn geomean(rows: &[SpeedupRow], strategy: usize) -> f64 {
    assert!(!rows.is_empty(), "geomean needs at least one row");
    let log_sum: f64 = rows.iter().map(|r| r.speedups[strategy].ln()).sum();
    (log_sum / rows.len() as f64).exp()
}

/// Plans and simulates all four schemes for every named network on the
/// given array, in parallel across networks.
///
/// `levels` overrides the hierarchy depth (default: bisect to single
/// boards).
///
/// # Panics
///
/// Panics if a zoo network fails to build or plan — both indicate a bug,
/// not an input error.
#[must_use]
pub fn speedup_rows(
    array: &AcceleratorArray,
    batch: usize,
    levels: Option<usize>,
    networks: &[&str],
) -> Vec<SpeedupRow> {
    let mut rows: Vec<Option<SpeedupRow>> = vec![None; networks.len()];
    std::thread::scope(|scope| {
        for (slot, name) in rows.iter_mut().zip(networks) {
            scope.spawn(move || {
                *slot = Some(run_network(array, batch, levels, name));
            });
        }
    });
    rows.into_iter().map(|r| r.expect("filled")).collect()
}

fn run_network(
    array: &AcceleratorArray,
    batch: usize,
    levels: Option<usize>,
    name: &str,
) -> SpeedupRow {
    let net = zoo::by_name(name, batch).expect("known zoo network");
    let mut builder = Planner::builder(&net, array).sim_config(SimConfig::default());
    if let Some(l) = levels {
        builder = builder.levels(l);
    }
    let planner = builder.build().expect("zoo networks configure cleanly");
    let mut step_ms = [0.0f64; 4];
    for (i, &strategy) in Strategy::ALL.iter().enumerate() {
        let planned = planner.plan(strategy).expect("zoo networks plan cleanly");
        step_ms[i] = planned.modeled_cost() * 1e3;
    }
    let dp = step_ms[0];
    SpeedupRow {
        network: name.to_owned(),
        step_ms,
        speedups: [dp / step_ms[0], dp / step_ms[1], dp / step_ms[2], dp / step_ms[3]],
    }
}

/// The paper's nine CNN evaluation networks — the first nine entries of
/// [`zoo::EVALUATION_NAMES`]; the remainder are the transformer
/// extension covered by [`transformer_speedups`].
const PAPER_NETWORKS: usize = 9;

/// **Figure 5**: speedups on the heterogeneous array of 128 TPU-v2 +
/// 128 TPU-v3 boards, batch 512, the paper's nine evaluation networks.
#[must_use]
pub fn figure5() -> Vec<SpeedupRow> {
    let array = AcceleratorArray::heterogeneous_tpu(128, 128);
    speedup_rows(&array, PAPER_BATCH, None, &zoo::EVALUATION_NAMES[..PAPER_NETWORKS])
}

/// **Figure 6**: speedups on the homogeneous array of 128 TPU-v3 boards,
/// batch 512, the paper's nine evaluation networks.
#[must_use]
pub fn figure6() -> Vec<SpeedupRow> {
    let array = AcceleratorArray::homogeneous_tpu_v3(128);
    speedup_rows(&array, PAPER_BATCH, None, &zoo::EVALUATION_NAMES[..PAPER_NETWORKS])
}

/// **Transformer extension**: the Figure 5 protocol (heterogeneous
/// 128+128 array, batch 512) on the transformer zoo. Not a paper figure
/// — the paper evaluates CNNs only — but the identical pipeline: plan
/// under all four schemes, simulate, normalize to data parallelism.
#[must_use]
pub fn transformer_speedups() -> Vec<SpeedupRow> {
    let array = AcceleratorArray::heterogeneous_tpu(128, 128);
    speedup_rows(&array, PAPER_BATCH, None, &zoo::EVALUATION_NAMES[PAPER_NETWORKS..])
}

/// **Figure 7** data: for each weighted AlexNet layer, how many of the
/// hierarchy's bisections selected each partition type.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure7 {
    /// Weighted-layer names (`cv1`…`cv5`, `fc1`…`fc3`).
    pub layer_names: Vec<String>,
    /// Per layer: selections of `[Type-I, Type-II, Type-III]` summed over
    /// all tree nodes.
    pub counts: Vec<[usize; 3]>,
    /// The top-level plan's type string.
    pub top_level: String,
}

/// **Figure 7**: the partition types AccPar selects for AlexNet's
/// weighted layers with 7 hierarchy levels and batch 128 (§6.3).
///
/// # Panics
///
/// Panics if planning fails (indicates a bug).
#[must_use]
pub fn figure7() -> Figure7 {
    let net = zoo::alexnet(128).expect("alexnet builds");
    let array = AcceleratorArray::homogeneous_tpu_v3(128);
    let planned = Planner::builder(&net, &array)
        .levels(7)
        .build()
        .expect("alexnet configures cleanly")
        .plan(Strategy::AccPar)
        .expect("alexnet plans cleanly");
    let view = net.train_view().expect("alexnet has weighted layers");
    let mut layers: Vec<_> = view.layers().collect();
    layers.sort_by_key(|l| l.index());
    Figure7 {
        layer_names: layers.iter().map(|l| l.name().to_owned()).collect(),
        counts: planned.plan().per_layer_type_counts(),
        top_level: planned.plan().plan().type_string(),
    }
}

/// One point of the Figure 8 sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig8Row {
    /// Hierarchy level `h`.
    pub levels: usize,
    /// Speedup over DP at the same `h`, in [`Strategy::ALL`] order.
    pub speedups: [f64; 4],
}

/// **Figure 8**: speedups of the four schemes on VGG-19 over the
/// heterogeneous array as the partitioning hierarchy deepens
/// (`h = 2..=9`; levels beyond 8 split boards into core groups).
#[must_use]
pub fn figure8() -> Vec<Fig8Row> {
    figure8_range(2, 9)
}

/// The Figure 8 sweep over a custom hierarchy range.
#[must_use]
pub fn figure8_range(min_levels: usize, max_levels: usize) -> Vec<Fig8Row> {
    let array = AcceleratorArray::heterogeneous_tpu(128, 128);
    let hs: Vec<usize> = (min_levels..=max_levels).collect();
    let mut rows: Vec<Option<Fig8Row>> = vec![None; hs.len()];
    std::thread::scope(|scope| {
        for (slot, &h) in rows.iter_mut().zip(&hs) {
            let array = &array;
            scope.spawn(move || {
                let row = run_network(array, PAPER_BATCH, Some(h), "vgg19");
                *slot = Some(Fig8Row {
                    levels: h,
                    speedups: row.speedups,
                });
            });
        }
    });
    rows.into_iter().map(|r| r.expect("filled")).collect()
}

/// The full evaluation's data as archived in `experiments.json`: the
/// setup, Figures 5 and 6 with their geomeans beside the paper's,
/// Figure 7's counts and Figure 8's sweep.
#[must_use]
pub fn archive() -> Json {
    let fig5 = figure5();
    let fig6 = figure6();
    let fig7 = figure7();
    let fig8 = figure8();
    Json::obj(vec![
        (
            "setup",
            Json::obj(vec![
                ("batch", Json::from(PAPER_BATCH)),
                (
                    "heterogeneous_array",
                    Json::str("128x tpu-v2 + 128x tpu-v3"),
                ),
                ("homogeneous_array", Json::str("128x tpu-v3")),
            ]),
        ),
        (
            "figure5",
            Json::obj(vec![
                ("rows", speedup_rows_json(&fig5)),
                (
                    "geomeans",
                    Json::from((0..4).map(|i| geomean(&fig5, i)).collect::<Vec<_>>()),
                ),
                ("paper_geomeans", Json::from(vec![1.00, 2.98, 3.78, 6.30])),
            ]),
        ),
        (
            "figure6",
            Json::obj(vec![
                ("rows", speedup_rows_json(&fig6)),
                (
                    "geomeans",
                    Json::from((0..4).map(|i| geomean(&fig6, i)).collect::<Vec<_>>()),
                ),
                ("paper_geomeans", Json::from(vec![1.00, 2.94, 3.51, 3.86])),
            ]),
        ),
        (
            "figure7",
            Json::obj(vec![
                (
                    "layer_names",
                    Json::Arr(fig7.layer_names.iter().map(Json::str).collect()),
                ),
                (
                    "counts",
                    Json::Arr(
                        fig7.counts
                            .iter()
                            .map(|c| Json::from(c.to_vec()))
                            .collect(),
                    ),
                ),
                ("top_level", Json::str(&fig7.top_level)),
            ]),
        ),
        (
            "figure8",
            Json::Arr(
                fig8.iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("levels", Json::from(r.levels)),
                            ("speedups", Json::from(r.speedups.to_vec())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

fn speedup_rows_json(rows: &[SpeedupRow]) -> Json {
    Json::Arr(
        rows.iter()
            .map(|r| {
                Json::obj(vec![
                    ("network", Json::str(&r.network)),
                    ("step_ms", Json::from(r.step_ms.to_vec())),
                    ("speedups", Json::from(r.speedups.to_vec())),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_rows_normalize_to_dp() {
        let array = AcceleratorArray::heterogeneous_tpu(2, 2);
        let rows = speedup_rows(&array, 64, Some(2), &["lenet", "alexnet"]);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!((row.speedups[0] - 1.0).abs() < 1e-12, "{row:?}");
            assert!(row.step_ms.iter().all(|&t| t > 0.0));
        }
    }

    #[test]
    fn geomean_of_identity_is_one() {
        let rows = vec![
            SpeedupRow {
                network: "a".into(),
                step_ms: [1.0; 4],
                speedups: [1.0, 2.0, 4.0, 8.0],
            },
            SpeedupRow {
                network: "b".into(),
                step_ms: [1.0; 4],
                speedups: [1.0, 8.0, 4.0, 2.0],
            },
        ];
        assert!((geomean(&rows, 0) - 1.0).abs() < 1e-12);
        assert!((geomean(&rows, 1) - 4.0).abs() < 1e-12);
        assert!((geomean(&rows, 3) - 4.0).abs() < 1e-12);
    }

    #[test]
    fn figure8_small_range_is_monotone_in_h_for_accpar() {
        // Tiny smoke version of Figure 8: AccPar's speedup should not
        // collapse as h grows in the small range.
        let rows = figure8_range(2, 3);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.speedups[3] >= 1.0, "{row:?}");
        }
    }
}
