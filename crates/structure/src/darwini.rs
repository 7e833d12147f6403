//! Darwini-style refinement of BTER (Edunov et al., 2016): instead of one
//! clustering target per degree, nodes carry individually sampled
//! clustering targets, and affinity blocks group nodes with similar
//! *(degree, clustering)* demands. This captures the clustering coefficient
//! **distribution** per degree rather than just its mean — the `ccdd`
//! column of the paper's Table 1.

use datasynth_prng::dist::{Normal, Sampler};
use datasynth_prng::SplitMix64;
use datasynth_tables::EdgeTable;

use crate::bter::{clamped_degrees, fill_affinity_block, CcProfile};
use crate::degree_seq::chung_lu;
use crate::{BuildError, Capabilities, DegreeDist, StructureGenerator};

/// Darwini-style generator: per-node clustering targets drawn around a
/// degree-dependent mean with configurable spread.
#[derive(Debug, Clone)]
pub struct DarwiniGenerator {
    degree_dist: DegreeDist,
    cc_mean: CcProfile,
    cc_spread: f64,
    buckets: u32,
}

impl DarwiniGenerator {
    /// Create; `cc_spread` is the std-dev of per-node clustering targets
    /// around the profile mean, `buckets` the number of clustering bins
    /// used when forming blocks. Both arrive straight from DSL/builder
    /// params through the registry, so out-of-range values are errors, not
    /// panics.
    pub fn new(
        degree_dist: DegreeDist,
        cc_mean: CcProfile,
        cc_spread: f64,
        buckets: u32,
    ) -> Result<Self, BuildError> {
        if !(0.0..=0.5).contains(&cc_spread) {
            return Err(BuildError::InvalidParam {
                generator: "darwini",
                param: "cc_spread",
                reason: format!("must be in [0, 0.5], got {cc_spread}"),
            });
        }
        if buckets < 1 {
            return Err(BuildError::InvalidParam {
                generator: "darwini",
                param: "buckets",
                reason: "need at least one clustering bucket".into(),
            });
        }
        Ok(Self {
            degree_dist,
            cc_mean,
            cc_spread,
            buckets,
        })
    }
}

impl StructureGenerator for DarwiniGenerator {
    fn name(&self) -> &'static str {
        "darwini"
    }

    fn run(&self, n: u64, rng: &mut SplitMix64) -> EdgeTable {
        // Per-node degree and clustering demand.
        let degrees = clamped_degrees(&self.degree_dist, n, rng);
        let cc_targets: Vec<f64> = degrees
            .iter()
            .map(|&d| {
                let mean = self.cc_mean.at(d);
                let noise = Normal::new(mean, self.cc_spread).sample(rng);
                noise.clamp(0.0, 1.0)
            })
            .collect();

        // Bucket nodes by (degree, cc bin); each bucket forms BTER-style
        // blocks of size (degree + 1).
        let bucket_of = |v: usize| {
            let bin = (cc_targets[v] * f64::from(self.buckets)).floor() as u32;
            (degrees[v], bin.min(self.buckets - 1))
        };
        let mut order: Vec<u32> = (0..n as u32).collect();
        order.sort_by_key(|&v| bucket_of(v as usize));

        let mut et = EdgeTable::with_capacity(
            "darwini",
            degrees.iter().map(|&d| d as usize).sum::<usize>() / 2,
        );
        let mut excess: Vec<f64> = degrees.iter().map(|&d| f64::from(d)).collect();

        let mut i = 0usize;
        while i < order.len() {
            let v0 = order[i] as usize;
            let d_min = degrees[v0];
            if d_min < 2 {
                i += 1;
                continue;
            }
            let key = bucket_of(v0);
            // Block is at most d_min+1 nodes from the same bucket.
            let mut bsize = 1usize;
            while i + bsize < order.len()
                && bsize < (d_min + 1) as usize
                && bucket_of(order[i + bsize] as usize) == key
            {
                bsize += 1;
            }
            if bsize >= 3 {
                let rho = cc_targets[v0].powf(1.0 / 3.0);
                fill_affinity_block(&order[i..i + bsize], rho, &mut excess, &mut et, rng);
            }
            i += bsize;
        }

        let m2 = (excess.iter().sum::<f64>() / 2.0).round() as u64;
        if m2 > 0 {
            et.extend_from(&chung_lu(&excess, m2, rng));
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
            clustering_per_degree_dist: true,
            communities: true,
            scalable: true,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasynth_analysis::{local_clustering, Summary};
    use datasynth_prng::dist::DiscretePowerLaw;
    use datasynth_tables::Csr;

    fn generator(spread: f64) -> DarwiniGenerator {
        DarwiniGenerator::new(
            DegreeDist::PowerLaw(DiscretePowerLaw::new(2.0, 3, 40)),
            CcProfile::Constant(0.4),
            spread,
            8,
        )
        .unwrap()
    }

    #[test]
    fn bad_spread_and_buckets_are_errors_not_panics() {
        let dist = || DegreeDist::PowerLaw(DiscretePowerLaw::new(2.0, 3, 40));
        let err = DarwiniGenerator::new(dist(), CcProfile::Constant(0.4), 0.9, 8).unwrap_err();
        assert!(matches!(
            err,
            BuildError::InvalidParam {
                param: "cc_spread",
                ..
            }
        ));
        let err = DarwiniGenerator::new(dist(), CcProfile::Constant(0.4), 0.1, 0).unwrap_err();
        assert!(matches!(
            err,
            BuildError::InvalidParam {
                param: "buckets",
                ..
            }
        ));
    }

    #[test]
    fn produces_simple_graph_with_clustering() {
        let g = generator(0.15);
        let n = 3000;
        let et = g.run(n, &mut SplitMix64::new(1));
        for (t, h) in et.iter() {
            assert!(t < h);
        }
        let mut csr = Csr::undirected(&et, n);
        csr.sort_neighborhoods();
        let ccs: Vec<f64> = (0..n).map(|v| local_clustering(&csr, v)).collect();
        let s = Summary::from_samples(&ccs).unwrap();
        assert!(s.mean > 0.1, "mean clustering {}", s.mean);
    }

    #[test]
    fn spread_widens_clustering_distribution() {
        let n = 3000;
        let narrow = generator(0.0).run(n, &mut SplitMix64::new(2));
        let wide = generator(0.3).run(n, &mut SplitMix64::new(2));
        let spread_of = |et: &EdgeTable| {
            let mut csr = Csr::undirected(et, n);
            csr.sort_neighborhoods();
            // Only mid-degree nodes: clustering is well-defined there.
            let ccs: Vec<f64> = (0..n)
                .filter(|&v| csr.degree(v) >= 4)
                .map(|v| local_clustering(&csr, v))
                .collect();
            Summary::from_samples(&ccs).unwrap().std_dev
        };
        let (sn, sw) = (spread_of(&narrow), spread_of(&wide));
        assert!(sw > sn, "wide {sw} must exceed narrow {sn}");
    }

    #[test]
    fn deterministic() {
        let g = generator(0.1);
        assert_eq!(
            g.run(500, &mut SplitMix64::new(3)),
            g.run(500, &mut SplitMix64::new(3))
        );
    }
}
