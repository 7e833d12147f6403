//! Cardinality-constrained attachment generators for 1→* and 1→1 edge
//! types (the running example's `creates`: one Person creates many
//! Messages, each Message has exactly one creator).
//!
//! These produce *bipartite* edge tables: tails range over the source type
//! (`0..n`), heads are freshly numbered targets (`0..total`), so the head
//! count is exactly the inferred instance count of the target type — this
//! is how DataSynth answers "how many Messages do I need?".

use datasynth_prng::dist::Sampler;
use datasynth_prng::SplitMix64;
use datasynth_tables::EdgeTable;

use crate::{Capabilities, DegreeDist, StructureGenerator};

/// 1→* generator: each source node `i` gets `k_i ~ dist` outgoing edges to
/// freshly numbered target instances.
#[derive(Debug, Clone)]
pub struct OneToManyGenerator {
    dist: DegreeDist,
}

impl OneToManyGenerator {
    /// Create from an out-degree distribution.
    pub fn new(dist: DegreeDist) -> Self {
        Self { dist }
    }
}

impl StructureGenerator for OneToManyGenerator {
    fn name(&self) -> &'static str {
        "one_to_many"
    }

    fn run(&self, n: u64, rng: &mut SplitMix64) -> EdgeTable {
        let mut et = EdgeTable::with_capacity("one_to_many", n as usize);
        let mut next_target = 0u64;
        for src in 0..n {
            let k = self.dist.sample(rng);
            for _ in 0..k {
                et.push(src, next_target);
                next_target += 1;
            }
        }
        et
    }

    fn expected_edges(&self, n: u64) -> u64 {
        (n as f64 * self.dist.mean()).round() as u64
    }

    fn num_nodes_for_edges(&self, num_edges: u64) -> u64 {
        let mean = self.dist.mean().max(f64::MIN_POSITIVE);
        ((num_edges as f64 / mean).round() as u64).max(1)
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            degree_distribution: true,
            cardinality_constrained: true,
            scalable: true,
            ..Default::default()
        }
    }
}

/// 1→1 generator: a random bijection between `0..n` sources and `0..n`
/// targets.
#[derive(Debug, Clone, Copy, Default)]
pub struct OneToOneGenerator;

impl StructureGenerator for OneToOneGenerator {
    fn name(&self) -> &'static str {
        "one_to_one"
    }

    fn run(&self, n: u64, rng: &mut SplitMix64) -> EdgeTable {
        let mut perm: Vec<u64> = (0..n).collect();
        rng.shuffle(&mut perm);
        EdgeTable::from_pairs("one_to_one", (0..n).map(|i| (i, perm[i as usize])))
    }

    // `expected_edges` is the trait's default, `n`: one edge per source.
    fn num_nodes_for_edges(&self, num_edges: u64) -> u64 {
        num_edges
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            cardinality_constrained: true,
            scalable: true,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasynth_prng::dist::{DiscretePowerLaw, Geometric, UniformU64};

    #[test]
    fn one_to_many_targets_are_dense_and_unique() {
        let g = OneToManyGenerator::new(DegreeDist::Uniform(UniformU64::new(0, 4)));
        let et = g.run(100, &mut SplitMix64::new(1));
        let mut heads: Vec<u64> = et.heads().to_vec();
        heads.sort_unstable();
        let expected: Vec<u64> = (0..et.len()).collect();
        assert_eq!(heads, expected, "heads must be 0..m exactly");
    }

    #[test]
    fn one_to_many_constant_degree() {
        let g = OneToManyGenerator::new(DegreeDist::Constant(3));
        let et = g.run(10, &mut SplitMix64::new(2));
        assert_eq!(et.len(), 30);
        assert_eq!(et.out_degrees(10), vec![3u32; 10]);
    }

    #[test]
    fn one_to_many_power_law_sizing() {
        let dist = DegreeDist::PowerLaw(DiscretePowerLaw::new(2.0, 1, 100));
        let g = OneToManyGenerator::new(dist);
        let target_edges = 10_000;
        let n = g.num_nodes_for_edges(target_edges);
        let et = g.run(n, &mut SplitMix64::new(3));
        let got = et.len() as f64;
        let rel = (got - target_edges as f64).abs() / target_edges as f64;
        assert!(
            rel < 0.15,
            "sized {n} sources -> {got} edges, wanted {target_edges}"
        );
    }

    #[test]
    fn one_to_one_is_a_bijection() {
        let g = OneToOneGenerator;
        let et = g.run(50, &mut SplitMix64::new(4));
        assert_eq!(et.len(), 50);
        let mut heads: Vec<u64> = et.heads().to_vec();
        heads.sort_unstable();
        assert_eq!(heads, (0..50).collect::<Vec<_>>());
        assert_eq!(et.tails(), (0..50).collect::<Vec<_>>().as_slice());
    }

    #[test]
    fn geometric_mirrors_long_tail() {
        let g = OneToManyGenerator::new(DegreeDist::Geometric(Geometric::new(0.4)));
        let et = g.run(10_000, &mut SplitMix64::new(5));
        let deg = et.out_degrees(10_000);
        let zeros = deg.iter().filter(|&&d| d == 0).count() as f64 / 10_000.0;
        assert!((zeros - 0.4).abs() < 0.02, "P(0) = {zeros}");
    }
}
