//! Erdős–Rényi random graphs: `G(n, p)` with geometric skip sampling and
//! `G(n, m)` with distinct-pair sampling.

use std::ops::Range;

use datasynth_prng::{CounterStream, SplitMix64};
use datasynth_tables::EdgeTable;

use crate::chunk::{self, pair_from_index, sample_indices_in, total_pairs, SLOT_PAIRS};
use crate::{Capabilities, StructureGenerator};

/// `G(n, p)`: every unordered pair is an edge independently with
/// probability `p`. Sampling skips over non-edges geometrically, so the
/// cost is O(m), not O(n²) — and because each pair is an independent
/// Bernoulli draw, the pair space divides into fixed windows sampled from
/// counter substreams: this generator is *chunkable*.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gnp {
    p: f64,
}

impl Gnp {
    /// Create with edge probability `p ∈ [0, 1]`.
    pub fn new(p: f64) -> Self {
        assert!((0.0..=1.0).contains(&p), "p out of range: {p}");
        Self { p }
    }
}

impl StructureGenerator for Gnp {
    fn name(&self) -> &'static str {
        "erdos_renyi"
    }

    fn run(&self, n: u64, rng: &mut SplitMix64) -> EdgeTable {
        chunk::run_chunked(self, n, rng)
    }

    fn chunkable(&self) -> bool {
        true
    }

    fn num_slots(&self, n: u64) -> u64 {
        if self.p <= 0.0 {
            return 0;
        }
        chunk::slots_for_pairs(total_pairs(n))
    }

    fn run_range(&self, n: u64, range: Range<u64>, stream: &CounterStream) -> EdgeTable {
        let total = total_pairs(n);
        let mut et = EdgeTable::new("erdos_renyi");
        for slot in range {
            let lo = slot * SLOT_PAIRS;
            let hi = (lo + SLOT_PAIRS).min(total);
            let mut rng = stream.substream(slot);
            sample_indices_in(lo, hi, self.p, &mut rng, |idx| {
                let (t, h) = pair_from_index(idx);
                et.push(t, h);
            });
        }
        et
    }

    fn expected_edges(&self, n: u64) -> u64 {
        (self.p * total_pairs(n) as f64).round() as u64
    }

    fn num_nodes_for_edges(&self, num_edges: u64) -> u64 {
        if self.p <= 0.0 {
            return 0;
        }
        // m = p n(n-1)/2  =>  n ≈ (1 + sqrt(1 + 8m/p)) / 2.
        let m = num_edges as f64;
        ((1.0 + (1.0 + 8.0 * m / self.p).sqrt()) / 2.0).round() as u64
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            scalable: true,
            ..Default::default()
        }
    }
}

/// `G(n, m)`: exactly `m` distinct edges drawn uniformly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Gnm {
    m: u64,
}

impl Gnm {
    /// Create with edge count `m`.
    pub fn new(m: u64) -> Self {
        Self { m }
    }
}

impl StructureGenerator for Gnm {
    fn name(&self) -> &'static str {
        "gnm"
    }

    fn run(&self, n: u64, rng: &mut SplitMix64) -> EdgeTable {
        let m = self.expected_edges(n);
        let mut et = EdgeTable::with_capacity("gnm", m as usize);
        let mut chosen = std::collections::HashSet::with_capacity(m as usize);
        while (chosen.len() as u64) < m {
            let idx = rng.next_below(total_pairs(n));
            if chosen.insert(idx) {
                let (t, h) = pair_from_index(idx);
                et.push(t, h);
            }
        }
        et
    }

    fn expected_edges(&self, n: u64) -> u64 {
        self.m.min(total_pairs(n))
    }

    fn num_nodes_for_edges(&self, num_edges: u64) -> u64 {
        // Any n with enough pairs works; pick the density of sqrt scaling.
        (((num_edges * 2) as f64).sqrt().ceil() as u64).max(2)
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            scalable: true,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_equals_partitioned_run_range() {
        let g = Gnp::new(0.02);
        let n = 800u64;
        let whole = g.run(n, &mut SplitMix64::new(9));
        // Same key derivation as run(): first draw off the rng.
        let stream = CounterStream::new(SplitMix64::new(9).next_u64());
        let slots = g.num_slots(n);
        let mut parts = EdgeTable::new(g.name());
        let mut at = 0;
        while at < slots {
            let next = (at + 3).min(slots);
            parts.extend_from(&g.run_range(n, at..next, &stream));
            at = next;
        }
        assert_eq!(whole, g.finalize(parts));
        assert!(slots > 1, "n=800 must split into several slots");
    }

    #[test]
    fn gnp_edge_count_concentrates() {
        let g = Gnp::new(0.01);
        let mut rng = SplitMix64::new(1);
        let n = 1000u64;
        let et = g.run(n, &mut rng);
        let expected = 0.01 * (n * (n - 1) / 2) as f64;
        let got = et.len() as f64;
        assert!(
            (got - expected).abs() < 5.0 * expected.sqrt(),
            "{got} vs {expected}"
        );
        // All edges valid and canonical.
        for (t, h) in et.iter() {
            assert!(t < h && h < n);
        }
    }

    #[test]
    fn gnp_p_one_is_complete() {
        let et = Gnp::new(1.0).run(5, &mut SplitMix64::new(2));
        assert_eq!(et.len(), 10);
    }

    #[test]
    fn gnp_p_zero_is_empty() {
        assert!(Gnp::new(0.0).run(100, &mut SplitMix64::new(3)).is_empty());
    }

    #[test]
    fn gnp_sizing_inverse() {
        let g = Gnp::new(0.5);
        let n = g.num_nodes_for_edges(1000);
        let pairs = (n * (n - 1) / 2) as f64;
        assert!((pairs * 0.5 - 1000.0).abs() / 1000.0 < 0.1);
    }

    #[test]
    fn gnm_exact_count_distinct() {
        let g = Gnm::new(200);
        let et = g.run(100, &mut SplitMix64::new(4));
        assert_eq!(et.len(), 200);
        let mut c = et.clone();
        c.canonicalize_undirected();
        assert_eq!(c.dedup(), 0);
    }

    #[test]
    fn gnm_caps_at_complete_graph() {
        let g = Gnm::new(1000);
        let et = g.run(5, &mut SplitMix64::new(5));
        assert_eq!(et.len(), 10);
    }
}
