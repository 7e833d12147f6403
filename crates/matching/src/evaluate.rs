//! Matching-quality evaluation: the expected-vs-observed CDF series of
//! Figures 3 and 4, and the paper's §4.2 experiment protocol
//! ([`Protocol`]).

use datasynth_prng::dist::geometric_pmf;
use datasynth_prng::SplitMix64;
use datasynth_tables::{Csr, EdgeTable};

use crate::jpd::Jpd;
use crate::ldg::ldg_partition;
use crate::matcher::MatchResult;
use crate::sbm_part::{sbm_part, MatchInput};

/// The paper's §4.2 experiment on one graph: ground-truth groups from an
/// LDG pass into `k` geometric-sized groups, the joint distribution
/// `P(X,Y)` they induce (the *expected* JPD), and SBM-Part asked to
/// reproduce it from scratch on a random stream.
#[derive(Debug)]
pub struct Protocol {
    /// Undirected adjacency of the graph (self-loops and duplicate edges
    /// kept as generated, like the paper).
    pub csr: Csr,
    /// Group sizes: [`geometric_group_sizes`] with `p = 0.4`.
    pub sizes: Vec<u64>,
    /// The JPD measured on the LDG ground truth.
    pub expected: Jpd,
    /// Edge count of the graph.
    pub num_edges: u64,
}

impl Protocol {
    /// Build the ground truth for `edges` over `n` nodes and `k` groups,
    /// streaming LDG in the order [`stream_order`]`(n, truth_seed)`.
    pub fn new(edges: &EdgeTable, n: u64, k: usize, truth_seed: u64) -> Self {
        let csr = Csr::undirected(edges, n);
        let sizes = geometric_group_sizes(n, k, 0.4);
        let truth = ldg_partition(&csr, &sizes, &stream_order(n, truth_seed));
        let expected = empirical_jpd(&truth, edges, k);
        Self {
            csr,
            sizes,
            expected,
            num_edges: edges.len(),
        }
    }

    /// The matcher's input: the expected JPD over this graph and sizes.
    pub fn input(&self) -> MatchInput<'_> {
        MatchInput {
            group_sizes: &self.sizes,
            jpd: &self.expected,
            csr: &self.csr,
            num_edges: self.num_edges,
        }
    }

    /// SBM-Part from scratch over the stream [`stream_order`]`(n, order_seed)`.
    pub fn sbm_part(&self, order_seed: u64) -> MatchResult {
        sbm_part(
            &self.input(),
            &stream_order(self.csr.num_nodes(), order_seed),
        )
    }

    /// Compare the expected JPD with the one `group_of` induces on `edges`
    /// (the graph this protocol was built from).
    pub fn compare(&self, edges: &EdgeTable, group_of: &[u32]) -> CdfComparison {
        let observed = empirical_jpd(group_of, edges, self.expected.k());
        compare_jpds(&self.expected, &observed)
    }
}

/// A random stream order: the node ids `0..n` shuffled by `seed`.
pub fn stream_order(n: u64, seed: u64) -> Vec<u64> {
    let mut order: Vec<u64> = (0..n).collect();
    SplitMix64::new(seed).shuffle(&mut order);
    order
}

/// Measure the empirical joint distribution `P'(X,Y)` of the labels at the
/// endpoints of every edge (unordered).
pub fn empirical_jpd(labels: &[u32], edges: &EdgeTable, k: usize) -> Jpd {
    let mut counts = vec![vec![0.0f64; k]; k];
    for (t, h) in edges.iter() {
        let (a, b) = (labels[t as usize] as usize, labels[h as usize] as usize);
        let (lo, hi) = (a.min(b), a.max(b));
        counts[lo][hi] += 1.0;
    }
    Jpd::from_unordered_counts(&counts)
}

/// One point of the CDF comparison: an unordered value pair with its
/// expected and observed probability.
#[derive(Debug, Clone, PartialEq)]
pub struct PairPoint {
    /// First value index (`<= j`).
    pub i: usize,
    /// Second value index.
    pub j: usize,
    /// Target mass `P(i, j)`.
    pub expected: f64,
    /// Achieved mass `P'(i, j)`.
    pub observed: f64,
}

/// The full comparison: pairs sorted by decreasing expected mass (the
/// x-axis of the paper's figures), both CDFs, and scalar distances.
#[derive(Debug, Clone, PartialEq)]
pub struct CdfComparison {
    /// Pairs in plot order.
    pub pairs: Vec<PairPoint>,
    /// Running sum of expected masses.
    pub expected_cdf: Vec<f64>,
    /// Running sum of observed masses (in the expected order).
    pub observed_cdf: Vec<f64>,
    /// L1 distance between the two pmfs.
    pub l1: f64,
    /// Kolmogorov–Smirnov distance between the two CDFs.
    pub ks: f64,
    /// Hellinger distance between the two pmfs.
    pub hellinger: f64,
    /// Expected diagonal (homophily) mass.
    pub expected_diagonal: f64,
    /// Observed diagonal mass.
    pub observed_diagonal: f64,
}

/// Build the comparison between a target JPD and an observed one.
pub fn compare_jpds(expected: &Jpd, observed: &Jpd) -> CdfComparison {
    assert_eq!(expected.k(), observed.k(), "mismatched arity");
    let order = expected.pairs_by_mass_desc();
    let mut pairs = Vec::with_capacity(order.len());
    let mut expected_cdf = Vec::with_capacity(order.len());
    let mut observed_cdf = Vec::with_capacity(order.len());
    let (mut ce, mut co) = (0.0, 0.0);
    let (mut l1, mut h2) = (0.0, 0.0);
    let mut ks: f64 = 0.0;
    for (i, j, e) in order {
        let o = observed.unordered_mass(i, j);
        pairs.push(PairPoint {
            i,
            j,
            expected: e,
            observed: o,
        });
        ce += e;
        co += o;
        expected_cdf.push(ce);
        observed_cdf.push(co);
        l1 += (e - o).abs();
        h2 += (e.sqrt() - o.sqrt()).powi(2);
        ks = ks.max((ce - co).abs());
    }
    CdfComparison {
        pairs,
        expected_cdf,
        observed_cdf,
        l1,
        ks,
        hellinger: (h2 / 2.0).sqrt(),
        expected_diagonal: expected.diagonal_mass(),
        observed_diagonal: observed.diagonal_mass(),
    }
}

/// The paper's group-size protocol: `size_i ∝ max(geo(0.4, i), 1/k)`,
/// scaled to sum exactly to `n` (largest-remainder rounding; every group
/// keeps at least one member when `n >= k`).
pub fn geometric_group_sizes(n: u64, k: usize, p: f64) -> Vec<u64> {
    assert!(k >= 1 && n >= k as u64, "need at least one node per group");
    let raw: Vec<f64> = (0..k)
        .map(|i| geometric_pmf(p, i as u64).max(1.0 / k as f64))
        .collect();
    let total: f64 = raw.iter().sum();
    let scaled: Vec<f64> = raw.iter().map(|w| w / total * n as f64).collect();
    let mut sizes: Vec<u64> = scaled.iter().map(|s| (s.floor() as u64).max(1)).collect();
    // Largest-remainder: distribute what rounding dropped (or reclaim
    // overshoot caused by the >= 1 floor).
    let mut assigned: u64 = sizes.iter().sum();
    let mut order: Vec<usize> = (0..k).collect();
    order.sort_by(|&a, &b| {
        let ra = scaled[a] - scaled[a].floor();
        let rb = scaled[b] - scaled[b].floor();
        rb.partial_cmp(&ra).expect("no NaN")
    });
    let mut idx = 0;
    while assigned < n {
        sizes[order[idx % k]] += 1;
        assigned += 1;
        idx += 1;
    }
    idx = 0;
    while assigned > n {
        let g = order[k - 1 - (idx % k)];
        if sizes[g] > 1 {
            sizes[g] -= 1;
            assigned -= 1;
        }
        idx += 1;
    }
    debug_assert_eq!(sizes.iter().sum::<u64>(), n);
    sizes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empirical_jpd_counts_edges_once() {
        let labels = [0u32, 0, 1, 1];
        let et = EdgeTable::from_pairs("e", [(0u64, 1u64), (2, 3), (0, 2), (1, 3)]);
        let jpd = empirical_jpd(&labels, &et, 2);
        assert!((jpd.unordered_mass(0, 0) - 0.25).abs() < 1e-12);
        assert!((jpd.unordered_mass(1, 1) - 0.25).abs() < 1e-12);
        assert!((jpd.unordered_mass(0, 1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn identical_jpds_compare_to_zero() {
        let jpd = Jpd::homophilous(&[1.0, 2.0, 3.0], 0.6);
        let cmp = compare_jpds(&jpd, &jpd);
        assert!(cmp.l1 < 1e-12);
        assert!(cmp.ks < 1e-12);
        assert!(cmp.hellinger < 1e-12);
        let last = *cmp.expected_cdf.last().unwrap();
        assert!((last - 1.0).abs() < 1e-9, "CDF reaches 1, got {last}");
    }

    #[test]
    fn comparison_orders_by_expected_mass() {
        let expected = Jpd::homophilous(&[4.0, 1.0], 0.9);
        let observed = Jpd::uniform(2);
        let cmp = compare_jpds(&expected, &observed);
        for w in cmp.pairs.windows(2) {
            assert!(w[0].expected >= w[1].expected);
        }
        assert!(cmp.l1 > 0.1);
        assert!((cmp.expected_diagonal - 0.9).abs() < 1e-9);
    }

    #[test]
    fn geometric_sizes_match_paper_formula() {
        let n = 10_000u64;
        let k = 16;
        let sizes = geometric_group_sizes(n, k, 0.4);
        assert_eq!(sizes.len(), k);
        assert_eq!(sizes.iter().sum::<u64>(), n);
        // Decreasing head (geometric part), flat tail (the 1/k floor).
        assert!(sizes[0] > sizes[1]);
        assert!(sizes[1] > sizes[2]);
        let tail_spread = sizes[10].abs_diff(sizes[15]);
        assert!(tail_spread <= 2, "tail should be nearly flat: {sizes:?}");
        // Check the exact proportions for the first group:
        // geo(0.4, 0) = 0.4 vs floor 1/16; weight 0.4.
        let raw: f64 = (0..k)
            .map(|i| geometric_pmf(0.4, i as u64).max(1.0 / 16.0))
            .sum();
        let expected0 = 0.4 / raw * n as f64;
        assert!(
            (sizes[0] as f64 - expected0).abs() <= 1.0,
            "{} vs {expected0}",
            sizes[0]
        );
    }

    #[test]
    fn geometric_sizes_small_n() {
        let sizes = geometric_group_sizes(16, 16, 0.4);
        assert_eq!(sizes.iter().sum::<u64>(), 16);
        assert!(sizes.iter().all(|&s| s >= 1));
    }
}
