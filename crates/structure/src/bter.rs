//! BTER (Block Two-level Erdős–Rényi; Kolda et al., SISC'14): reproduces a
//! target degree distribution *and* the average clustering coefficient per
//! degree by packing nodes into small dense affinity blocks (phase 1) and
//! wiring the leftover degree with a Chung–Lu pass (phase 2).

use datasynth_prng::dist::Sampler;
use datasynth_prng::SplitMix64;
use datasynth_tables::EdgeTable;

use crate::degree_seq::chung_lu;
use crate::{Capabilities, DegreeDist, StructureGenerator};

/// Target clustering-coefficient-per-degree profile.
#[derive(Debug, Clone)]
pub enum CcProfile {
    /// Same target for every degree.
    Constant(f64),
    /// `cc(d) = c0 · exp(-(d-1)/scale)` — the empirically common decay.
    ExponentialDecay {
        /// Clustering at degree 1–2.
        c0: f64,
        /// Decay scale in degrees.
        scale: f64,
    },
    /// Explicit table: `cc[d]` for degree `d` (last entry extends).
    Table(Vec<f64>),
}

impl CcProfile {
    /// Target mean local clustering for degree `d`.
    pub fn at(&self, d: u32) -> f64 {
        let v = match self {
            CcProfile::Constant(c) => *c,
            CcProfile::ExponentialDecay { c0, scale } => {
                c0 * (-(f64::from(d.saturating_sub(1))) / scale).exp()
            }
            CcProfile::Table(t) => {
                if t.is_empty() {
                    0.0
                } else {
                    t[(d as usize).min(t.len() - 1)]
                }
            }
        };
        v.clamp(0.0, 1.0)
    }
}

/// One target degree per node, clamped to `>= 1` (BTER and Darwini wire
/// every node; sizing uses `mean().max(1.0)` to match).
pub(crate) fn clamped_degrees(dist: &DegreeDist, n: u64, rng: &mut SplitMix64) -> Vec<u32> {
    (0..n)
        .map(|_| dist.sample(rng).clamp(1, u64::from(u32::MAX)) as u32)
        .collect()
}

/// Phase 1 of one affinity block: an ER graph of density `rho` over `block`,
/// its expected within-block degree charged to every member's `excess`.
pub(crate) fn fill_affinity_block(
    block: &[u32],
    rho: f64,
    excess: &mut [f64],
    et: &mut EdgeTable,
    rng: &mut SplitMix64,
) {
    for (a, &u) in block.iter().enumerate() {
        for &v in &block[a + 1..] {
            if rng.next_bool(rho) {
                et.push(u64::from(u.min(v)), u64::from(u.max(v)));
            }
        }
    }
    let within = rho * (block.len() as f64 - 1.0);
    for &v in block {
        excess[v as usize] = (excess[v as usize] - within).max(0.0);
    }
}

/// BTER generator: degree distribution + clustering-per-degree profile.
#[derive(Debug, Clone)]
pub struct BterGenerator {
    degree_dist: DegreeDist,
    cc: CcProfile,
}

impl BterGenerator {
    /// Create from a degree distribution and a clustering profile.
    pub fn new(degree_dist: DegreeDist, cc: CcProfile) -> Self {
        Self { degree_dist, cc }
    }
}

impl StructureGenerator for BterGenerator {
    fn name(&self) -> &'static str {
        "bter"
    }

    fn run(&self, n: u64, rng: &mut SplitMix64) -> EdgeTable {
        let degrees = clamped_degrees(&self.degree_dist, n, rng);

        // Sort node indices by degree ascending; blocks take consecutive
        // runs so every block's minimum degree is its first member's.
        let mut by_degree: Vec<u32> = (0..n as u32).collect();
        by_degree.sort_by_key(|&v| degrees[v as usize]);

        let mut et = EdgeTable::with_capacity(
            "bter",
            degrees.iter().map(|&d| d as usize).sum::<usize>() / 2,
        );
        let mut excess: Vec<f64> = degrees.iter().map(|&d| f64::from(d)).collect();

        // Phase 1: affinity blocks of size (d_min + 1), density cc^(1/3)
        // (an ER block of density ρ has expected local clustering ρ³ ... so
        // ρ = cc^(1/3) hits the target).
        let mut i = 0usize;
        while i < by_degree.len() {
            let d_min = degrees[by_degree[i] as usize];
            if d_min < 2 {
                i += 1; // degree-1 nodes only participate in phase 2
                continue;
            }
            let bsize = ((d_min + 1) as usize).min(by_degree.len() - i);
            if bsize < 3 {
                break; // tail too small to form a meaningful block
            }
            let rho = self.cc.at(d_min).powf(1.0 / 3.0);
            fill_affinity_block(&by_degree[i..i + bsize], rho, &mut excess, &mut et, rng);
            i += bsize;
        }

        // Phase 2: Chung–Lu over the excess degree.
        let m2 = (excess.iter().sum::<f64>() / 2.0).round() as u64;
        if m2 > 0 {
            let phase2 = chung_lu(&excess, m2, rng);
            et.extend_from(&phase2);
        }
        et.canonicalize_undirected();
        et.dedup();
        et
    }

    fn expected_edges(&self, n: u64) -> u64 {
        (n as f64 * self.degree_dist.mean().max(1.0) / 2.0).round() as u64
    }

    fn num_nodes_for_edges(&self, num_edges: u64) -> u64 {
        ((2.0 * num_edges as f64 / self.degree_dist.mean().max(1.0)).round() as u64).max(2)
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            degree_distribution: true,
            avg_clustering_per_degree: true,
            communities: true, // emergent from the affinity blocks
            scalable: true,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasynth_analysis::{average_clustering, degree_assortativity, DegreeStats};
    use datasynth_prng::dist::DiscretePowerLaw;
    use datasynth_tables::Csr;

    fn power_law_bter(cc: CcProfile) -> BterGenerator {
        BterGenerator::new(DegreeDist::PowerLaw(DiscretePowerLaw::new(2.0, 2, 60)), cc)
    }

    #[test]
    fn clustering_tracks_target() {
        let hi = power_law_bter(CcProfile::Constant(0.6));
        let lo = power_law_bter(CcProfile::Constant(0.05));
        let n = 4000;
        let et_hi = hi.run(n, &mut SplitMix64::new(1));
        let et_lo = lo.run(n, &mut SplitMix64::new(1));
        let mut rng = SplitMix64::new(2);
        let mut csr_hi = Csr::undirected(&et_hi, n);
        csr_hi.sort_neighborhoods();
        let mut csr_lo = Csr::undirected(&et_lo, n);
        csr_lo.sort_neighborhoods();
        let cc_hi = average_clustering(&csr_hi, 800, &mut rng);
        let cc_lo = average_clustering(&csr_lo, 800, &mut rng);
        assert!(
            cc_hi > 3.0 * cc_lo,
            "target 0.6 gave {cc_hi}, target 0.05 gave {cc_lo}"
        );
        assert!(cc_hi > 0.25, "high-target clustering {cc_hi}");
    }

    #[test]
    fn degree_distribution_roughly_preserved() {
        let g = power_law_bter(CcProfile::Constant(0.3));
        let n = 5000;
        let et = g.run(n, &mut SplitMix64::new(3));
        let stats = DegreeStats::from_degrees(&et.degrees(n)).unwrap();
        let target = DiscretePowerLaw::new(2.0, 2, 60).mean();
        assert!(
            (stats.mean - target).abs() / target < 0.35,
            "mean {} vs target {target}",
            stats.mean
        );
    }

    #[test]
    fn assortativity_is_positive() {
        // BTER's block structure makes graphs assortative (paper §3).
        let g = power_law_bter(CcProfile::Constant(0.4));
        let n = 4000;
        let et = g.run(n, &mut SplitMix64::new(4));
        let r = degree_assortativity(&et, n).unwrap();
        assert!(r > 0.0, "assortativity {r}");
    }

    #[test]
    fn simple_graph_output() {
        let g = power_law_bter(CcProfile::ExponentialDecay {
            c0: 0.8,
            scale: 15.0,
        });
        let et = g.run(1000, &mut SplitMix64::new(5));
        for (t, h) in et.iter() {
            assert!(t < h);
        }
        let mut c = et.clone();
        assert_eq!(c.dedup(), 0);
    }

    #[test]
    fn cc_profile_shapes() {
        let decay = CcProfile::ExponentialDecay {
            c0: 0.9,
            scale: 10.0,
        };
        assert!(decay.at(2) > decay.at(20));
        let table = CcProfile::Table(vec![0.0, 0.5, 0.25]);
        assert_eq!(table.at(1), 0.5);
        assert_eq!(table.at(99), 0.25, "last entry extends");
        assert_eq!(CcProfile::Constant(2.0).at(5), 1.0, "clamped");
    }
}
