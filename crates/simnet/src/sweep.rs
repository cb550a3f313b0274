//! Scale sweeps: the data series behind the paper's Figures 4–7.

use crate::breakdown::Breakdown;
use crate::constants::ClusterModel;
use crate::network::{hier_allreduce_time, recursive_doubling_allreduce_time, ring_allreduce_time};
use crate::recovery::{
    backward_breakdown, forward_breakdown, EpisodeConfig, Level, SimScenario, COMM_SEGMENTS,
    STATE_SEGMENTS,
};
use dnn::ModelProfile;

/// One data point of Figs. 5–7: cost of a recovery/reconfiguration episode
/// split into the paper's three aggregate segments.
#[derive(Clone, Debug)]
pub struct FigureRow {
    /// Model name.
    pub model: &'static str,
    /// Scenario label as in the paper ("Down"/"Same"/"Up").
    pub scenario: SimScenario,
    /// Process- or node-level event.
    pub level: Level,
    /// Engine: `true` = ULFM forward recovery, `false` = Elastic Horovod.
    pub ulfm: bool,
    /// Worker (GPU) count before the event.
    pub gpus: usize,
    /// "Reconstructing the communicator and resuming rendezvous" (s).
    pub comm_reconstruction: f64,
    /// "Reinitializing the training state for the new workers" (s).
    pub state_reinit: f64,
    /// "Re-computation" (s).
    pub recompute: f64,
}

impl FigureRow {
    /// Total episode cost.
    pub fn total(&self) -> f64 {
        self.comm_reconstruction + self.state_reinit + self.recompute
    }
}

/// The paper's GPU-count sweep: 12 up to 192 GPUs (§4, Figs. 5–7).
pub const GPU_SWEEP: &[usize] = &[12, 24, 48, 96, 192];

/// Generate every row of one figure (one model, all scenarios × levels ×
/// engines × scales). `fig5 = VGG-16`, `fig6 = ResNet50V2`,
/// `fig7 = NasNetMobile`.
pub fn figure_rows(model: &ModelProfile, cluster: &ClusterModel) -> Vec<FigureRow> {
    let mut rows = Vec::new();
    for &gpus in GPU_SWEEP {
        for scenario in [SimScenario::Down, SimScenario::Same, SimScenario::Up] {
            for level in [Level::Process, Level::Node] {
                for ulfm in [true, false] {
                    // Table 2: Elastic Horovod only supports node-level
                    // recovery/autoscaling; process-level rows exist only
                    // for ULFM.
                    if !ulfm && level == Level::Process {
                        continue;
                    }
                    let cfg = EpisodeConfig {
                        cluster: *cluster,
                        model: model.clone(),
                        workers_before: gpus,
                        scenario,
                        level,
                    };
                    let b = if ulfm {
                        forward_breakdown(&cfg)
                    } else {
                        backward_breakdown(&cfg)
                    };
                    let (comm, state, rest) = b.aggregate(COMM_SEGMENTS, STATE_SEGMENTS);
                    rows.push(FigureRow {
                        model: model.name,
                        scenario,
                        level,
                        ulfm,
                        gpus,
                        comm_reconstruction: comm,
                        state_reinit: state,
                        recompute: rest,
                    });
                }
            }
        }
    }
    rows
}

/// Fig. 4: detailed phase breakdowns for Scenario I, ResNet-50 on 24 GPUs
/// (24 → 18 after a node drop / 24 → 23 after a process drop), for both
/// engines and both levels. Returns `(label, breakdown)` pairs.
pub fn fig4_rows(cluster: &ClusterModel) -> Vec<(String, Breakdown)> {
    let model = ModelProfile::resnet50v2();
    let mut out = Vec::new();
    for level in [Level::Process, Level::Node] {
        for ulfm in [true, false] {
            if !ulfm && level == Level::Process {
                continue; // Elastic Horovod cannot drop a single process
            }
            let cfg = EpisodeConfig {
                cluster: *cluster,
                model: model.clone(),
                workers_before: 24,
                scenario: SimScenario::Down,
                level,
            };
            let b = if ulfm {
                forward_breakdown(&cfg)
            } else {
                backward_breakdown(&cfg)
            };
            let engine = if ulfm { "ULFM MPI" } else { "Elastic Horovod" };
            out.push((format!("{engine}, drop {level:?}"), b));
        }
    }
    out
}

// ------------------------------------------------------------ hierarchical

/// One data point of the flat-vs-hierarchical scaling sweep
/// (`repro hier` → BENCH_hier.json): one worker count × one bucket size,
/// with the closed-form time of each allreduce strategy.
#[derive(Clone, Debug)]
pub struct HierRow {
    /// Worker (GPU) count.
    pub workers: usize,
    /// Node count (`⌈workers / ranks_per_node⌉`).
    pub nodes: usize,
    /// Allreduce payload in bytes.
    pub n_bytes: usize,
    /// Flat ring time (s).
    pub flat_ring: f64,
    /// Flat recursive-doubling time (s).
    pub flat_rd: f64,
    /// Two-level hierarchical time (s).
    pub hier: f64,
}

impl HierRow {
    /// The best flat time — what `AllreduceAlgo::Auto` would pick without
    /// a hierarchy.
    pub fn flat_best(&self) -> f64 {
        self.flat_ring.min(self.flat_rd)
    }

    /// Does the two-level collective beat every flat algorithm at this
    /// (scale, size) point?
    pub fn hier_wins(&self) -> bool {
        self.hier < self.flat_best()
    }
}

/// The hierarchical scaling sweep's worker counts: from the paper's top
/// scale (192) to O(10k), doubling — the range where the flat ring's
/// `2(w-1)·α` latency term goes from negligible to dominant.
pub const HIER_GPU_SWEEP: &[usize] = &[192, 384, 768, 1536, 3072, 6144, 12_288];

/// Bucket sizes swept per scale: 1 KiB (latency-bound) to 256 MiB
/// (bandwidth-bound, 4× Horovod's default fusion buffer).
pub const HIER_SIZES: &[usize] = &[1 << 10, 1 << 14, 1 << 18, 1 << 22, 1 << 26, 1 << 28];

/// Generate every row of the flat-vs-hierarchical sweep for one cluster.
pub fn hier_rows(cluster: &ClusterModel) -> Vec<HierRow> {
    let mut rows = Vec::new();
    for &workers in HIER_GPU_SWEEP {
        let nodes = cluster.nodes_for(workers);
        for &n_bytes in HIER_SIZES {
            let n = n_bytes as f64;
            rows.push(HierRow {
                workers,
                nodes,
                n_bytes,
                flat_ring: ring_allreduce_time(n, workers, cluster.alpha, cluster.beta),
                flat_rd: recursive_doubling_allreduce_time(n, workers, cluster.alpha, cluster.beta),
                hier: hier_allreduce_time(
                    n,
                    nodes,
                    workers.div_ceil(nodes),
                    cluster.alpha_intra,
                    cluster.beta_intra,
                    cluster.alpha,
                    cluster.beta,
                ),
            });
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hier_sweep_shape() {
        let rows = hier_rows(&ClusterModel::summit());
        assert_eq!(rows.len(), HIER_GPU_SWEEP.len() * HIER_SIZES.len());
        for r in &rows {
            assert_eq!(r.nodes, r.workers.div_ceil(6));
            assert!(r.flat_ring > 0.0 && r.flat_rd > 0.0 && r.hier > 0.0);
        }
    }

    #[test]
    fn flat_stops_scaling_where_the_issue_says() {
        let rows = hier_rows(&ClusterModel::summit());
        let at = |w: usize, n: usize| {
            rows.iter()
                .find(|r| r.workers == w && r.n_bytes == n)
                .unwrap()
        };
        let big = 1 << 28;
        // Training wall-clock is dominated by the large bandwidth-bound
        // buckets. At the paper's 192 GPUs flat still wins those …
        assert!(
            !at(192, big).hier_wins(),
            "hierarchy must not pay off for big buckets at paper scale"
        );
        // … but the flat ring's 2(w−1)·α latency grows linearly with the
        // world, and by O(10k) workers the hierarchy wins the big buckets.
        for w in [6144usize, 12_288] {
            let r = at(w, big);
            assert!(
                r.hier_wins(),
                "hier {} vs flat {} at {w}×256MiB",
                r.hier,
                r.flat_best()
            );
        }
        // Tiny buckets stay with flat recursive doubling at every scale:
        // ⌈log₂ w⌉ rounds beat paying the intra phases on top of the
        // leaders' own log-rounds.
        assert!(rows
            .iter()
            .filter(|r| r.n_bytes == 1 << 10)
            .all(|r| !r.hier_wins()));
        // Once the hierarchy wins a (size, scale) point, it keeps winning
        // that size at every larger scale — the crossover is monotone.
        for &n in HIER_SIZES {
            let wins: Vec<bool> = HIER_GPU_SWEEP
                .iter()
                .map(|&w| at(w, n).hier_wins())
                .collect();
            let first = wins.iter().position(|&b| b);
            if let Some(i) = first {
                assert!(
                    wins[i..].iter().all(|&b| b),
                    "crossover must be monotone in scale for n={n}: {wins:?}"
                );
            }
        }
    }

    #[test]
    fn hier_row_times_match_network_closed_forms() {
        use crate::network::flat_allreduce_best_time;
        let c = ClusterModel::summit();
        let rows = hier_rows(&c);
        let r = rows
            .iter()
            .find(|r| r.workers == 1536 && r.n_bytes == 1 << 22)
            .unwrap();
        assert_eq!(
            r.flat_best(),
            flat_allreduce_best_time(1.0 * (1 << 22) as f64, 1536, c.alpha, c.beta)
        );
    }

    #[test]
    fn row_counts_match_capability_matrix() {
        let rows = figure_rows(&ModelProfile::vgg16(), &ClusterModel::summit());
        // 5 scales × 3 scenarios × (ULFM: 2 levels + EH: 1 level) = 45.
        assert_eq!(rows.len(), 5 * 3 * 3);
        // No Elastic-Horovod process-level rows (Table 2).
        assert!(rows.iter().all(|r| r.ulfm || r.level == Level::Node));
    }

    #[test]
    fn ulfm_wins_every_comparable_row() {
        for model in dnn::paper_models() {
            let rows = figure_rows(&model, &ClusterModel::summit());
            for r in rows.iter().filter(|r| !r.ulfm) {
                let twin = rows
                    .iter()
                    .find(|x| {
                        x.ulfm && x.gpus == r.gpus && x.scenario == r.scenario && x.level == r.level
                    })
                    .expect("matching ULFM row");
                // Communication-context reconstruction: the paper's claim.
                assert!(
                    twin.comm_reconstruction < r.comm_reconstruction,
                    "{} {:?} {:?} @{}: ULFM comm {:.3}s vs EH {:.3}s",
                    model.name,
                    r.scenario,
                    r.level,
                    r.gpus,
                    twin.comm_reconstruction,
                    r.comm_reconstruction
                );
                // Failure scenarios: the total wins too (Up totals are
                // dominated by the shared worker-init cost on both sides).
                if r.scenario != SimScenario::Up {
                    assert!(
                        twin.total() < r.total(),
                        "{} {:?} {:?} @{}: ULFM {:.3}s vs EH {:.3}s",
                        model.name,
                        r.scenario,
                        r.level,
                        r.gpus,
                        twin.total(),
                        r.total()
                    );
                }
            }
        }
    }

    #[test]
    fn downscale_has_no_state_reinit() {
        let rows = figure_rows(&ModelProfile::resnet50v2(), &ClusterModel::summit());
        for r in rows.iter().filter(|r| r.scenario == SimScenario::Down) {
            assert_eq!(r.state_reinit, 0.0, "{r:?}");
        }
    }

    #[test]
    fn fig4_has_three_bars() {
        let rows = fig4_rows(&ClusterModel::summit());
        assert_eq!(rows.len(), 3); // ULFM×{proc,node} + EH×node
        for (label, b) in &rows {
            assert!(b.total() > 0.0, "{label}: empty breakdown");
        }
        // EH's bar dwarfs ULFM's.
        let eh = rows.iter().find(|(l, _)| l.contains("Horovod")).unwrap();
        let ulfm_node = rows
            .iter()
            .find(|(l, _)| l.contains("ULFM") && l.contains("Node"))
            .unwrap();
        assert!(eh.1.total() > 5.0 * ulfm_node.1.total());
    }

    #[test]
    fn baseline_rendezvous_grows_with_gpus() {
        let rows = figure_rows(&ModelProfile::nasnet_mobile(), &ClusterModel::summit());
        let eh_down: Vec<&FigureRow> = rows
            .iter()
            .filter(|r| !r.ulfm && r.scenario == SimScenario::Down)
            .collect();
        for w in eh_down.windows(2) {
            assert!(
                w[1].comm_reconstruction > w[0].comm_reconstruction,
                "EH comm reconstruction must grow with scale"
            );
        }
    }
}
