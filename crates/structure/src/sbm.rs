//! Planted Stochastic Block Model.
//!
//! SBM-Part assumes the target correlation is SBM-shaped; generating *from*
//! a planted SBM gives matching tests a ground truth where the optimal
//! assignment (and its score) is known.

use std::ops::Range;

use datasynth_prng::{CounterStream, SplitMix64};
use datasynth_tables::EdgeTable;

use crate::chunk::{self, pair_from_index, sample_indices_in, total_pairs, SLOT_PAIRS};
use crate::{Capabilities, PlantedPartition, StructureGenerator};

/// SBM with explicit group sizes and a full inter-group edge-probability
/// matrix (symmetric; the diagonal is within-group density).
#[derive(Debug, Clone, PartialEq)]
pub struct PlantedSbm {
    sizes: Vec<u64>,
    density: Vec<Vec<f64>>,
}

impl PlantedSbm {
    /// Create from group sizes and a `k × k` symmetric density matrix.
    pub fn new(sizes: Vec<u64>, density: Vec<Vec<f64>>) -> Self {
        let k = sizes.len();
        assert!(k > 0, "need at least one group");
        assert_eq!(density.len(), k, "square matrix required");
        for row in &density {
            assert_eq!(row.len(), k, "square matrix required");
            for &p in row {
                assert!((0.0..=1.0).contains(&p), "density out of range");
            }
        }
        for i in 0..k {
            for j in 0..k {
                assert!(
                    (density[i][j] - density[j][i]).abs() < 1e-12,
                    "matrix must be symmetric"
                );
            }
        }
        Self { sizes, density }
    }

    /// Homophilous shorthand: `k` equal groups, `p_intra` inside,
    /// `p_inter` across.
    pub fn homophilous(k: usize, group_size: u64, p_intra: f64, p_inter: f64) -> Self {
        let density = (0..k)
            .map(|i| {
                (0..k)
                    .map(|j| if i == j { p_intra } else { p_inter })
                    .collect()
            })
            .collect();
        Self::new(vec![group_size; k], density)
    }

    /// Planted group sizes.
    pub fn sizes(&self) -> &[u64] {
        &self.sizes
    }

    /// Total nodes across groups.
    pub fn total_nodes(&self) -> u64 {
        self.sizes.iter().sum()
    }

    fn labels(&self) -> Vec<u32> {
        let mut labels = Vec::with_capacity(self.total_nodes() as usize);
        for (g, &s) in self.sizes.iter().enumerate() {
            labels.extend(std::iter::repeat_n(g as u32, s as usize));
        }
        labels
    }

    /// Enumerate the upper-triangle blocks `(i, j)` with their node-id
    /// offsets and linearized pair-space sizes — the independent-edge units
    /// of the model, each of which divides into [`SLOT_PAIRS`]-wide slots.
    fn blocks(&self) -> Vec<SbmBlock> {
        let offsets: Vec<u64> = {
            let mut acc = 0;
            self.sizes
                .iter()
                .map(|&s| {
                    let off = acc;
                    acc += s;
                    off
                })
                .collect()
        };
        let k = self.sizes.len();
        let mut blocks = Vec::with_capacity(k * (k + 1) / 2);
        for i in 0..k {
            for j in i..k {
                let pairs = if i == j {
                    total_pairs(self.sizes[i])
                } else {
                    self.sizes[i].saturating_mul(self.sizes[j])
                };
                blocks.push(SbmBlock {
                    off_i: offsets[i],
                    off_j: offsets[j],
                    cols: self.sizes[j],
                    diagonal: i == j,
                    density: self.density[i][j],
                    pairs,
                });
            }
        }
        blocks
    }

    /// Expected edge count.
    pub fn expected_edges(&self) -> f64 {
        self.blocks()
            .iter()
            .map(|b| b.pairs as f64 * b.density)
            .sum()
    }
}

/// One upper-triangle block of the model, as a unit of independent edges.
struct SbmBlock {
    off_i: u64,
    off_j: u64,
    /// Column count of the cross block (`sizes[j]`); unused on diagonals.
    cols: u64,
    diagonal: bool,
    density: f64,
    /// Linearized pair-space size of the block.
    pairs: u64,
}

impl SbmBlock {
    fn slots(&self) -> u64 {
        chunk::slots_for_pairs(self.pairs)
    }

    /// Decode a block-local pair index into global `(tail, head)` ids.
    fn pair(&self, idx: u64) -> (u64, u64) {
        if self.diagonal {
            let (t, h) = pair_from_index(idx);
            (self.off_i + t, self.off_j + h)
        } else {
            (self.off_i + idx / self.cols, self.off_j + idx % self.cols)
        }
    }
}

impl StructureGenerator for PlantedSbm {
    fn name(&self) -> &'static str {
        "sbm"
    }

    /// `n` is ignored — the planted sizes define the node count (the trait
    /// is still useful so SBM plugs into the same pipeline slots).
    fn run(&self, n: u64, rng: &mut SplitMix64) -> EdgeTable {
        chunk::run_chunked(self, n, rng)
    }

    fn chunkable(&self) -> bool {
        true
    }

    fn num_slots(&self, _n: u64) -> u64 {
        self.blocks().iter().map(SbmBlock::slots).sum()
    }

    fn run_range(&self, _n: u64, range: Range<u64>, stream: &CounterStream) -> EdgeTable {
        let mut et = EdgeTable::new("sbm");
        let mut base = 0u64;
        for block in self.blocks() {
            let end = base + block.slots();
            let lo_slot = range.start.max(base);
            let hi_slot = range.end.min(end);
            for slot in lo_slot..hi_slot {
                let lo = (slot - base) * SLOT_PAIRS;
                let hi = (lo + SLOT_PAIRS).min(block.pairs);
                let mut rng = stream.substream(slot);
                sample_indices_in(lo, hi, block.density, &mut rng, |idx| {
                    let (t, h) = block.pair(idx);
                    et.push(t, h);
                });
            }
            base = end;
            if base >= range.end {
                break;
            }
        }
        et
    }

    /// Like the node count, fixed by the planted sizes.
    fn expected_edges(&self, _n: u64) -> u64 {
        PlantedSbm::expected_edges(self).round() as u64
    }

    fn num_nodes_for_edges(&self, _num_edges: u64) -> u64 {
        self.total_nodes()
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            communities: true,
            scalable: true,
            ..Default::default()
        }
    }
}

impl PlantedPartition for PlantedSbm {
    fn run_with_partition(&self, n: u64, rng: &mut SplitMix64) -> (EdgeTable, Vec<u32>) {
        (self.run(n, rng), self.labels())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasynth_analysis::modularity;

    #[test]
    fn labels_follow_sizes() {
        let sbm = PlantedSbm::homophilous(3, 10, 0.5, 0.01);
        let (_, labels) = sbm.run_with_partition(0, &mut SplitMix64::new(1));
        assert_eq!(labels.len(), 30);
        assert_eq!(labels[0], 0);
        assert_eq!(labels[10], 1);
        assert_eq!(labels[29], 2);
    }

    #[test]
    fn edge_count_near_expectation() {
        let sbm = PlantedSbm::homophilous(4, 100, 0.2, 0.01);
        let (et, _) = sbm.run_with_partition(0, &mut SplitMix64::new(2));
        let expected = sbm.expected_edges();
        let got = et.len() as f64;
        assert!(
            (got - expected).abs() < 6.0 * expected.sqrt(),
            "{got} vs {expected}"
        );
    }

    #[test]
    fn homophily_shows_in_modularity() {
        let sbm = PlantedSbm::homophilous(4, 50, 0.4, 0.01);
        let (et, labels) = sbm.run_with_partition(0, &mut SplitMix64::new(3));
        let q = modularity(&et, 200, &labels);
        assert!(q > 0.5, "planted split modularity {q}");
    }

    #[test]
    fn asymmetric_sizes_and_zero_blocks() {
        let sbm = PlantedSbm::new(vec![5, 20], vec![vec![1.0, 0.0], vec![0.0, 0.1]]);
        let (et, labels) = sbm.run_with_partition(0, &mut SplitMix64::new(4));
        assert_eq!(labels.len(), 25);
        // Group 0 is a complete K5 = 10 edges; no cross edges at all.
        let cross = et
            .iter()
            .filter(|&(t, h)| labels[t as usize] != labels[h as usize])
            .count();
        assert_eq!(cross, 0);
        let k5 = et.iter().filter(|&(t, h)| t < 5 && h < 5).count();
        assert_eq!(k5, 10);
    }

    #[test]
    #[should_panic(expected = "symmetric")]
    fn rejects_asymmetric_matrix() {
        PlantedSbm::new(vec![2, 2], vec![vec![0.1, 0.2], vec![0.3, 0.1]]);
    }

    #[test]
    fn run_equals_partitioned_run_range() {
        use datasynth_prng::CounterStream;
        // Sizes straddling the slot width so several blocks span multiple
        // slots, plus a zero-density block and a sub-2 group.
        let sbm = PlantedSbm::new(
            vec![1, 300, 250],
            vec![
                vec![0.0, 0.5, 0.0],
                vec![0.5, 0.08, 0.01],
                vec![0.0, 0.01, 0.12],
            ],
        );
        let whole = sbm.run(0, &mut SplitMix64::new(13));
        let stream = CounterStream::new(SplitMix64::new(13).next_u64());
        let slots = sbm.num_slots(0);
        assert!(slots > 3, "expected a multi-slot pair space, got {slots}");
        let mut parts = EdgeTable::new(sbm.name());
        let mut at = 0;
        while at < slots {
            let next = (at + 2).min(slots);
            parts.extend_from(&sbm.run_range(0, at..next, &stream));
            at = next;
        }
        assert_eq!(whole, sbm.finalize(parts));
    }
}
