//! Watts–Strogatz small-world graphs.

use datasynth_prng::SplitMix64;
use datasynth_tables::EdgeTable;

use crate::{Capabilities, StructureGenerator};

/// WS model: ring lattice where each node connects to its `k` nearest
/// neighbors (`k` even), each edge rewired with probability `beta`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WattsStrogatz {
    k: u64,
    beta: f64,
}

impl WattsStrogatz {
    /// Create; `k` must be even and `beta ∈ [0, 1]`.
    pub fn new(k: u64, beta: f64) -> Self {
        assert!(k >= 2 && k.is_multiple_of(2), "k must be even and >= 2");
        assert!((0.0..=1.0).contains(&beta), "beta out of range");
        Self { k, beta }
    }
}

impl StructureGenerator for WattsStrogatz {
    fn name(&self) -> &'static str {
        "watts_strogatz"
    }

    fn run(&self, n: u64, rng: &mut SplitMix64) -> EdgeTable {
        let mut et = EdgeTable::with_capacity("watts_strogatz", (n * self.k / 2) as usize);
        if n <= self.k {
            // Degenerate: complete graph.
            for h in 1..n {
                for t in 0..h {
                    et.push(t, h);
                }
            }
            return et;
        }
        let mut existing = std::collections::HashSet::new();
        let key = |a: u64, b: u64| if a < b { (a, b) } else { (b, a) };
        for v in 0..n {
            for j in 1..=self.k / 2 {
                let mut u = (v + j) % n;
                if rng.next_bool(self.beta) {
                    // Rewire to a uniform non-self, non-duplicate target.
                    for _ in 0..32 {
                        let cand = rng.next_below(n);
                        if cand != v && !existing.contains(&key(v, cand)) {
                            u = cand;
                            break;
                        }
                    }
                }
                if existing.insert(key(v, u)) {
                    et.push(v.min(u), v.max(u));
                }
            }
        }
        et
    }

    fn expected_edges(&self, n: u64) -> u64 {
        self.k.saturating_mul(n) / 2
    }

    fn num_nodes_for_edges(&self, num_edges: u64) -> u64 {
        (2 * num_edges / self.k).max(self.k + 1)
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            clustering: true,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasynth_analysis::{average_clustering, estimate_diameter};
    use datasynth_tables::Csr;

    #[test]
    fn zero_beta_is_a_lattice() {
        let g = WattsStrogatz::new(4, 0.0);
        let n = 100;
        let et = g.run(n, &mut SplitMix64::new(1));
        assert_eq!(et.len(), n * 2);
        let deg = et.degrees(n);
        assert!(deg.iter().all(|&d| d == 4), "regular lattice");
    }

    #[test]
    fn rewiring_shrinks_diameter_and_keeps_clustering_positive() {
        let n = 500;
        let lattice = WattsStrogatz::new(6, 0.0).run(n, &mut SplitMix64::new(2));
        let small_world = WattsStrogatz::new(6, 0.1).run(n, &mut SplitMix64::new(2));
        let mut rng = SplitMix64::new(3);
        let d_lat = estimate_diameter(&Csr::undirected(&lattice, n), &mut rng);
        let d_sw = estimate_diameter(&Csr::undirected(&small_world, n), &mut rng);
        assert!(d_sw < d_lat, "rewired {d_sw} vs lattice {d_lat}");
        let mut csr = Csr::undirected(&small_world, n);
        csr.sort_neighborhoods();
        let cc = average_clustering(&csr, 200, &mut rng);
        assert!(cc > 0.2, "clustering {cc} should survive light rewiring");
    }

    #[test]
    fn beta_one_is_random_but_same_edge_count_bound() {
        let g = WattsStrogatz::new(4, 1.0);
        let n = 200;
        let et = g.run(n, &mut SplitMix64::new(4));
        assert!(et.len() <= n * 2);
        assert!(et.len() > n * 2 - 20, "few rewire failures");
        for (t, h) in et.iter() {
            assert_ne!(t, h);
        }
    }

    #[test]
    fn tiny_n_degenerates_to_clique() {
        let g = WattsStrogatz::new(4, 0.5);
        let et = g.run(4, &mut SplitMix64::new(5));
        assert_eq!(et.len(), 6);
    }
}
