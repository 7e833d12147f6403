//! R-MAT (Chakrabarti, Zhan, Faloutsos; SDM'04), the Graph-500 generator:
//! each edge picks one of four adjacency-matrix quadrants recursively,
//! yielding power-law-ish degrees. The paper evaluates SBM-Part on RMAT
//! scales 18/20/22 with default parameters.

use std::ops::Range;

use datasynth_prng::{CounterStream, SplitMix64};
use datasynth_tables::EdgeTable;

use crate::chunk;
use crate::{BuildError, Capabilities, StructureGenerator};

/// R-MAT generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RmatGenerator {
    a: f64,
    b: f64,
    c: f64,
    edge_factor: u64,
    noise: f64,
    simplify: bool,
}

impl RmatGenerator {
    /// Graph-500 defaults: `(a,b,c,d) = (0.57, 0.19, 0.19, 0.05)`,
    /// 16 edges per node, no simplification (duplicates and self-loops are
    /// kept, as in the reference implementation — the paper's "67M edges"
    /// for scale 22 is `16 · 2^22` generated, not distinct, edges).
    pub fn graph500() -> Self {
        Self::new(0.57, 0.19, 0.19, 16, false)
    }

    /// Custom quadrant probabilities (`d = 1 - a - b - c`).
    pub fn new(a: f64, b: f64, c: f64, edge_factor: u64, simplify: bool) -> Self {
        assert!(a > 0.0 && b >= 0.0 && c >= 0.0, "bad probabilities");
        assert!(a + b + c <= 1.0 + 1e-9, "probabilities exceed 1");
        Self {
            a,
            b,
            c,
            edge_factor,
            noise: 0.1,
            simplify,
        }
    }

    /// Per-level multiplicative noise on the quadrant probabilities
    /// (smoothens the degree distribution; Graph-500 uses a similar trick).
    /// Rejects values outside `[0, 0.5]` — reachable from DSL/builder
    /// params, so this must be an error, not a panic.
    pub fn with_noise(mut self, noise: f64) -> Result<Self, BuildError> {
        if !(0.0..=0.5).contains(&noise) {
            return Err(BuildError::InvalidParam {
                generator: "rmat",
                param: "noise",
                reason: format!("must be in [0, 0.5], got {noise}"),
            });
        }
        self.noise = noise;
        Ok(self)
    }

    /// Generate a graph of `scale` (n = 2^scale), the conventional RMAT
    /// parameterization.
    pub fn run_scale(&self, scale: u32, rng: &mut SplitMix64) -> EdgeTable {
        self.run(1u64 << scale, rng)
    }

    /// Recursion depth for a graph over `n` nodes.
    fn levels(n: u64) -> u32 {
        if n <= 1 {
            0
        } else {
            64 - (n - 1).leading_zeros().min(63)
        }
    }

    fn sample_edge(&self, levels: u32, rng: &mut SplitMix64) -> (u64, u64) {
        let mut t = 0u64;
        let mut h = 0u64;
        for _ in 0..levels {
            t <<= 1;
            h <<= 1;
            // Jitter the quadrant probabilities per level.
            let jit = |p: f64, r: &mut SplitMix64| {
                let u = 2.0 * r.next_f64() - 1.0; // [-1, 1)
                (p * (1.0 + self.noise * u)).max(0.0)
            };
            let (pa, pb, pc) = (jit(self.a, rng), jit(self.b, rng), jit(self.c, rng));
            let pd = (1.0 - self.a - self.b - self.c).max(0.0);
            let pd = jit(pd / 1.0, rng);
            let total = pa + pb + pc + pd;
            let u = rng.next_f64() * total;
            if u < pa {
                // top-left: nothing set
            } else if u < pa + pb {
                h |= 1;
            } else if u < pa + pb + pc {
                t |= 1;
            } else {
                t |= 1;
                h |= 1;
            }
        }
        (t, h)
    }
}

impl StructureGenerator for RmatGenerator {
    fn name(&self) -> &'static str {
        "rmat"
    }

    fn run(&self, n: u64, rng: &mut SplitMix64) -> EdgeTable {
        chunk::run_chunked(self, n, rng)
    }

    fn chunkable(&self) -> bool {
        true
    }

    /// One slot per edge: each quadrant descent (with its out-of-range
    /// resampling for non-power-of-two `n`) draws only from its own
    /// counter substream.
    fn num_slots(&self, n: u64) -> u64 {
        self.edge_factor * n
    }

    fn run_range(&self, n: u64, range: Range<u64>, stream: &CounterStream) -> EdgeTable {
        let mut et = EdgeTable::with_capacity("rmat", (range.end - range.start) as usize);
        if n == 0 {
            return et;
        }
        let levels = Self::levels(n);
        for i in range {
            let mut rng = stream.substream(i);
            loop {
                let (t, h) = self.sample_edge(levels, &mut rng);
                // When n is not a power of two, resample out-of-range
                // endpoints (in-range by construction otherwise).
                if t < n && h < n {
                    et.push(t, h);
                    break;
                }
            }
        }
        et
    }

    fn finalize(&self, mut et: EdgeTable) -> EdgeTable {
        if self.simplify {
            et.remove_self_loops();
            et.canonicalize_undirected();
            et.dedup();
        }
        et
    }

    fn expected_edges(&self, n: u64) -> u64 {
        self.edge_factor.saturating_mul(n)
    }

    fn num_nodes_for_edges(&self, num_edges: u64) -> u64 {
        (num_edges / self.edge_factor).max(1)
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            power_law: true,
            scalable: true,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasynth_analysis::{power_law_alpha_mle, DegreeStats};

    #[test]
    fn edge_count_matches_scale() {
        let g = RmatGenerator::graph500();
        let et = g.run_scale(10, &mut SplitMix64::new(1));
        assert_eq!(et.len(), 16 << 10);
        assert!(et.max_node_id().unwrap() < 1 << 10);
    }

    #[test]
    fn degrees_are_heavy_tailed() {
        let g = RmatGenerator::graph500();
        let et = g.run_scale(12, &mut SplitMix64::new(2));
        let deg = et.degrees(1 << 12);
        let stats = DegreeStats::from_degrees(&deg).unwrap();
        // Skew: max far above mean, variance far above Poisson.
        assert!(f64::from(stats.max) > 8.0 * stats.mean, "max {}", stats.max);
        assert!(stats.variance > 4.0 * stats.mean, "var {}", stats.variance);
        let alpha = power_law_alpha_mle(&deg, 8).expect("enough tail");
        assert!(alpha > 1.2 && alpha < 4.0, "alpha {alpha}");
    }

    #[test]
    fn non_power_of_two_sizes_work() {
        let g = RmatGenerator::new(0.57, 0.19, 0.19, 4, false);
        let n = 1000; // not a power of two
        let et = g.run(n, &mut SplitMix64::new(3));
        assert_eq!(et.len(), 4 * n);
        assert!(et.max_node_id().unwrap() < n);
    }

    #[test]
    fn simplify_removes_loops_and_dups() {
        let g = RmatGenerator::new(0.57, 0.19, 0.19, 16, true);
        let et = g.run(256, &mut SplitMix64::new(4));
        for (t, h) in et.iter() {
            assert!(t < h, "canonical, no self-loops");
        }
        let mut c = et.clone();
        assert_eq!(c.dedup(), 0);
        assert!(et.len() < 16 * 256, "duplicates were collapsed");
    }

    #[test]
    fn sizing_inverse() {
        let g = RmatGenerator::graph500();
        assert_eq!(g.num_nodes_for_edges(16 << 22), 1 << 22);
    }

    #[test]
    fn deterministic() {
        let g = RmatGenerator::graph500();
        assert_eq!(
            g.run_scale(8, &mut SplitMix64::new(7)),
            g.run_scale(8, &mut SplitMix64::new(7))
        );
    }

    #[test]
    fn noise_out_of_range_is_an_error_not_a_panic() {
        let err = RmatGenerator::graph500().with_noise(0.9).unwrap_err();
        assert!(matches!(
            err,
            BuildError::InvalidParam { param: "noise", .. }
        ));
        assert!(err.to_string().contains("0.5"), "{err}");
    }

    #[test]
    fn run_equals_partitioned_run_range_including_simplify() {
        // Simplification is a finalize post-pass, so it must commute with
        // any slot partition of the raw edges.
        let g = RmatGenerator::new(0.57, 0.19, 0.19, 4, true);
        let n = 300u64; // not a power of two: exercises resampling
        let whole = g.run(n, &mut SplitMix64::new(21));
        let stream = CounterStream::new(SplitMix64::new(21).next_u64());
        let slots = g.num_slots(n);
        let mut parts = EdgeTable::new(g.name());
        let mut at = 0;
        while at < slots {
            let next = (at + 97).min(slots);
            parts.extend_from(&g.run_range(n, at..next, &stream));
            at = next;
        }
        assert_eq!(whole, g.finalize(parts));
    }

    #[test]
    fn hub_bias_follows_quadrant_probabilities() {
        // With a dominant, low ids should accumulate more degree.
        let g = RmatGenerator::new(0.7, 0.1, 0.1, 8, false)
            .with_noise(0.0)
            .unwrap();
        let n = 1u64 << 10;
        let et = g.run(n, &mut SplitMix64::new(5));
        let deg = et.degrees(n);
        let low: u64 = deg[..(n / 4) as usize].iter().map(|&d| u64::from(d)).sum();
        let high: u64 = deg[(3 * n / 4) as usize..]
            .iter()
            .map(|&d| u64::from(d))
            .sum();
        assert!(low > 3 * high, "low {low} vs high {high}");
    }
}
