//! Barabási–Albert preferential attachment.

use datasynth_prng::SplitMix64;
use datasynth_tables::EdgeTable;

use crate::{BuildError, Capabilities, StructureGenerator};

/// BA model: nodes arrive one at a time and attach `m` edges to existing
/// nodes with probability proportional to degree (implemented with the
/// repeated-endpoint list trick, O(m·n)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarabasiAlbert {
    m: u64,
}

impl BarabasiAlbert {
    /// `m` when the DSL call does not give one.
    pub const DEFAULT_M: u64 = 3;

    /// Create with `m >= 1` attachments per arriving node. `m = 0` is an
    /// error (not a panic): the value arrives straight from DSL/builder
    /// params through the registry.
    pub fn new(m: u64) -> Result<Self, BuildError> {
        if m < 1 {
            return Err(BuildError::InvalidParam {
                generator: "barabasi_albert",
                param: "m",
                reason: "need at least one edge per arriving node".into(),
            });
        }
        Ok(Self { m })
    }
}

impl StructureGenerator for BarabasiAlbert {
    fn name(&self) -> &'static str {
        "barabasi_albert"
    }

    fn run(&self, n: u64, rng: &mut SplitMix64) -> EdgeTable {
        let m = self.m;
        let mut et = EdgeTable::with_capacity("barabasi_albert", (n * m) as usize);
        if n == 0 {
            return et;
        }
        // Seed: a small clique over the first m+1 nodes (or all of them).
        let seed_n = (m + 1).min(n);
        let mut endpoints: Vec<u64> = Vec::with_capacity(2 * (n * m) as usize);
        for h in 1..seed_n {
            for t in 0..h {
                et.push(t, h);
                endpoints.push(t);
                endpoints.push(h);
            }
        }
        for v in seed_n..n {
            // BTreeSet, not HashSet: the set is *iterated* below, and
            // HashSet order is randomly seeded per instance — it made BA
            // output differ between two identically-seeded runs.
            let mut targets = std::collections::BTreeSet::new();
            while (targets.len() as u64) < m.min(v) {
                let pick = endpoints[rng.next_below(endpoints.len() as u64) as usize];
                targets.insert(pick);
            }
            for &t in &targets {
                et.push(t, v);
                endpoints.push(t);
                endpoints.push(v);
            }
        }
        et
    }

    fn expected_edges(&self, n: u64) -> u64 {
        self.m.saturating_mul(n)
    }

    fn num_nodes_for_edges(&self, num_edges: u64) -> u64 {
        (num_edges / self.m).max(self.m + 1)
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            power_law: true,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasynth_analysis::{largest_component_size, power_law_alpha_mle};

    #[test]
    fn connected_and_right_size() {
        let g = BarabasiAlbert::new(3).unwrap();
        let n = 2000;
        let et = g.run(n, &mut SplitMix64::new(1));
        // Seed clique contributes C(4,2)=6 edges; the rest 3 per node.
        assert_eq!(et.len(), 6 + (n - 4) * 3);
        assert_eq!(largest_component_size(&et, n), n);
    }

    #[test]
    fn power_law_exponent_near_three() {
        let g = BarabasiAlbert::new(2).unwrap();
        let n = 20_000;
        let et = g.run(n, &mut SplitMix64::new(2));
        let deg = et.degrees(n);
        let alpha = power_law_alpha_mle(&deg, 10).unwrap();
        assert!((2.2..4.2).contains(&alpha), "alpha {alpha}");
    }

    #[test]
    fn no_self_loops_or_duplicate_targets() {
        let g = BarabasiAlbert::new(4).unwrap();
        let et = g.run(500, &mut SplitMix64::new(3));
        for (t, h) in et.iter() {
            assert_ne!(t, h);
        }
        let mut c = et.clone();
        c.canonicalize_undirected();
        assert_eq!(c.dedup(), 0);
    }

    #[test]
    fn tiny_graphs() {
        let g = BarabasiAlbert::new(3).unwrap();
        assert!(g.run(0, &mut SplitMix64::new(4)).is_empty());
        let et = g.run(2, &mut SplitMix64::new(4));
        assert_eq!(et.len(), 1); // just the (truncated) seed clique
    }

    #[test]
    fn zero_m_is_an_error_not_a_panic() {
        let err = BarabasiAlbert::new(0).unwrap_err();
        assert!(matches!(err, BuildError::InvalidParam { param: "m", .. }));
    }

    #[test]
    fn byte_deterministic_across_runs() {
        // Regression: the target set used to be a HashSet whose iteration
        // order is randomly seeded per instance, so two identically-seeded
        // runs diverged after the first multi-target node.
        let g = BarabasiAlbert::new(3).unwrap();
        assert_eq!(
            g.run(1000, &mut SplitMix64::new(9)),
            g.run(1000, &mut SplitMix64::new(9))
        );
    }
}
