//! Degree sequences: the wiring machinery shared by LFR, BTER and Darwini
//! (parity fixing, the configuration model, Chung–Lu weighted sampling)
//! and the generator built directly on it — the paper's example of an SG
//! initialized with *"a file with an empirical degree distribution"*.

use datasynth_prng::dist::{AliasTable, Sampler};
use datasynth_prng::SplitMix64;
use datasynth_tables::EdgeTable;

use crate::{Capabilities, DegreeDist, StructureGenerator};

/// Make the degree sum even by bumping the first node (a configuration
/// model needs an even number of stubs). Returns whether a bump happened.
pub fn even_out_degree_sum(degrees: &mut [u32]) -> bool {
    let sum: u64 = degrees.iter().map(|&d| u64::from(d)).sum();
    if sum % 2 == 1 {
        degrees[0] += 1;
        true
    } else {
        false
    }
}

/// Options for [`configuration_model`].
#[derive(Debug, Clone, Copy)]
pub struct ConfigModelOptions {
    /// Reject self-loops (dropped stubs after `rewire_passes`).
    pub forbid_self_loops: bool,
    /// Reject duplicate edges.
    pub forbid_multi_edges: bool,
    /// How many repair passes to run over invalid pairings.
    pub rewire_passes: usize,
}

impl Default for ConfigModelOptions {
    fn default() -> Self {
        Self {
            forbid_self_loops: true,
            forbid_multi_edges: true,
            rewire_passes: 8,
        }
    }
}

/// Configuration model: wire a given degree sequence into a graph by
/// pairing shuffled stubs. Invalid pairs (self-loops / duplicates, when
/// forbidden) are repaired by swapping with random partners for up to
/// `rewire_passes` passes; irreparable leftovers are dropped, so low-degree
/// tails keep their exact degrees and only a vanishing fraction of stubs is
/// lost (standard practice — the reference LFR code does the same).
pub fn configuration_model(
    degrees: &[u32],
    opts: ConfigModelOptions,
    rng: &mut SplitMix64,
) -> EdgeTable {
    let mut stubs: Vec<u64> =
        Vec::with_capacity(degrees.iter().map(|&d| d as usize).sum::<usize>());
    for (v, &d) in degrees.iter().enumerate() {
        stubs.extend(std::iter::repeat_n(v as u64, d as usize));
    }
    if stubs.len() % 2 == 1 {
        stubs.pop(); // odd stub cannot pair
    }
    rng.shuffle(&mut stubs);

    let half = stubs.len() / 2;
    let tails: Vec<u64> = stubs[..half].to_vec();
    let mut heads: Vec<u64> = stubs[half..].to_vec();

    let edge_key = |t: u64, h: u64| if t <= h { (t, h) } else { (h, t) };
    for _pass in 0..opts.rewire_passes {
        let mut seen = std::collections::HashSet::with_capacity(half);
        let mut bad: Vec<usize> = Vec::new();
        for i in 0..tails.len() {
            let is_loop = opts.forbid_self_loops && tails[i] == heads[i];
            let is_dup = opts.forbid_multi_edges && !seen.insert(edge_key(tails[i], heads[i]));
            if is_loop || is_dup {
                bad.push(i);
            }
        }
        if bad.is_empty() {
            break;
        }
        // Swap each bad pair's head with a random other pair's head.
        for &i in &bad {
            let j = rng.next_below(tails.len() as u64) as usize;
            heads.swap(i, j);
        }
    }

    // Final filter: drop any still-invalid pairs.
    let mut et = EdgeTable::with_capacity("config_model", tails.len());
    let mut seen = std::collections::HashSet::with_capacity(half);
    for (t, h) in tails.into_iter().zip(heads) {
        if opts.forbid_self_loops && t == h {
            continue;
        }
        if opts.forbid_multi_edges && !seen.insert(edge_key(t, h)) {
            continue;
        }
        et.push(t, h);
    }
    et
}

/// Chung–Lu model: sample `m` edges with endpoint probability proportional
/// to `weights`, rejecting self-loops and duplicates (bounded retries).
pub fn chung_lu(weights: &[f64], m: u64, rng: &mut SplitMix64) -> EdgeTable {
    let mut et = EdgeTable::with_capacity("chung_lu", m as usize);
    if weights.iter().all(|&w| w <= 0.0) || m == 0 {
        return et;
    }
    let alias = AliasTable::new(weights);
    let mut seen = std::collections::HashSet::with_capacity(m as usize);
    let mut attempts = 0u64;
    let max_attempts = m.saturating_mul(20).max(1000);
    while (et.len()) < m && attempts < max_attempts {
        attempts += 1;
        let a = alias.sample(rng) as u64;
        let b = alias.sample(rng) as u64;
        if a == b {
            continue;
        }
        let key = if a < b { (a, b) } else { (b, a) };
        if seen.insert(key) {
            et.push(key.0, key.1);
        }
    }
    et
}

/// Configuration-model generator over an arbitrary degree distribution
/// (constant, uniform, zipf, power-law, geometric, or empirical).
#[derive(Debug, Clone)]
pub struct DegreeSequenceGenerator {
    dist: DegreeDist,
    options: ConfigModelOptions,
}

impl DegreeSequenceGenerator {
    /// Create with simple-graph wiring (no self-loops, no multi-edges).
    pub fn new(dist: DegreeDist) -> Self {
        Self {
            dist,
            options: ConfigModelOptions::default(),
        }
    }

    /// Override the wiring options.
    pub fn with_options(mut self, options: ConfigModelOptions) -> Self {
        self.options = options;
        self
    }
}

impl StructureGenerator for DegreeSequenceGenerator {
    fn name(&self) -> &'static str {
        "degree_sequence"
    }

    fn run(&self, n: u64, rng: &mut SplitMix64) -> EdgeTable {
        // A node cannot have more simple-graph neighbors than n-1.
        let cap = n.saturating_sub(1).min(u64::from(u32::MAX));
        let mut degrees: Vec<u32> = (0..n)
            .map(|_| self.dist.sample(rng).min(cap) as u32)
            .collect();
        if degrees.is_empty() {
            return EdgeTable::new("degree_sequence");
        }
        even_out_degree_sum(&mut degrees);
        configuration_model(&degrees, self.options, rng)
    }

    fn expected_edges(&self, n: u64) -> u64 {
        (n as f64 * self.dist.mean() / 2.0).round() as u64
    }

    fn num_nodes_for_edges(&self, num_edges: u64) -> u64 {
        let mean = self.dist.mean().max(f64::MIN_POSITIVE);
        ((2.0 * num_edges as f64 / mean).round() as u64).max(2)
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            degree_distribution: true,
            scalable: true,
            ..Default::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasynth_analysis::DegreeStats;
    use datasynth_prng::dist::Empirical;

    #[test]
    fn parity_fix() {
        let mut d = vec![1, 1, 1];
        assert!(even_out_degree_sum(&mut d));
        assert_eq!(d, vec![2, 1, 1]);
        let mut e = vec![2, 2];
        assert!(!even_out_degree_sum(&mut e));
    }

    #[test]
    fn config_model_respects_degrees_closely() {
        let degrees: Vec<u32> = (0..200).map(|i| 2 + (i % 5)).collect();
        let mut d = degrees.clone();
        even_out_degree_sum(&mut d);
        let mut rng = SplitMix64::new(1);
        let et = configuration_model(&d, ConfigModelOptions::default(), &mut rng);
        let got = et.degrees(200);
        // Allow a small number of dropped stubs.
        let wanted: u64 = d.iter().map(|&x| u64::from(x)).sum();
        let realized: u64 = got.iter().map(|&x| u64::from(x)).sum();
        assert!(realized >= wanted - 8, "{realized} of {wanted} stubs kept");
        for (v, (&g, &w)) in got.iter().zip(&d).enumerate() {
            assert!(g <= w, "node {v} exceeded its degree");
        }
    }

    #[test]
    fn config_model_simple_graph_properties() {
        let d = vec![3u32; 100];
        let mut rng = SplitMix64::new(2);
        let et = configuration_model(&d, ConfigModelOptions::default(), &mut rng);
        for (t, h) in et.iter() {
            assert_ne!(t, h, "self-loop");
        }
        let mut canon = et.clone();
        canon.canonicalize_undirected();
        assert_eq!(canon.dedup(), 0, "no duplicate edges");
    }

    #[test]
    fn config_model_allows_loops_when_permitted() {
        let d = vec![2u32, 0, 0];
        let opts = ConfigModelOptions {
            forbid_self_loops: false,
            forbid_multi_edges: false,
            rewire_passes: 0,
        };
        let mut rng = SplitMix64::new(3);
        let et = configuration_model(&d, opts, &mut rng);
        assert_eq!(et.len(), 1);
        assert_eq!(et.edge(0), (0, 0));
    }

    #[test]
    fn chung_lu_favors_heavy_nodes() {
        let mut weights = vec![1.0; 100];
        weights[0] = 200.0;
        let mut rng = SplitMix64::new(4);
        let et = chung_lu(&weights, 300, &mut rng);
        let deg = et.degrees(100);
        assert!(deg[0] > 50, "hub degree {} should dominate", deg[0]);
        for (t, h) in et.iter() {
            assert_ne!(t, h);
        }
    }

    #[test]
    fn chung_lu_degenerate_inputs() {
        let mut rng = SplitMix64::new(5);
        assert!(chung_lu(&[0.0, 0.0], 10, &mut rng).is_empty());
        assert!(chung_lu(&[1.0, 1.0], 0, &mut rng).is_empty());
    }

    #[test]
    fn determinism() {
        let d = vec![4u32; 64];
        let a = configuration_model(&d, ConfigModelOptions::default(), &mut SplitMix64::new(9));
        let b = configuration_model(&d, ConfigModelOptions::default(), &mut SplitMix64::new(9));
        assert_eq!(a, b);
    }

    #[test]
    fn empirical_distribution_is_reproduced() {
        // An "empirical" degree histogram: mostly 2s, a few 10s.
        let dist = DegreeDist::Empirical(Empirical::from_histogram(&[(2, 9.0), (10, 1.0)]));
        let g = DegreeSequenceGenerator::new(dist);
        let n = 4000;
        let et = g.run(n, &mut SplitMix64::new(1));
        let stats = DegreeStats::from_degrees(&et.degrees(n)).unwrap();
        let target = 0.9 * 2.0 + 0.1 * 10.0; // 2.8
        assert!(
            (stats.mean - target).abs() < 0.3,
            "mean {} vs {target}",
            stats.mean
        );
        // Degree-10 nodes exist.
        assert!(et.degrees(n).iter().any(|&d| d >= 9));
    }

    #[test]
    fn output_is_simple() {
        let g = DegreeSequenceGenerator::new(DegreeDist::Constant(4));
        let et = g.run(500, &mut SplitMix64::new(2));
        for (t, h) in et.iter() {
            assert_ne!(t, h);
        }
        let mut c = et.clone();
        c.canonicalize_undirected();
        assert_eq!(c.dedup(), 0);
    }

    #[test]
    fn degrees_capped_by_population() {
        let g = DegreeSequenceGenerator::new(DegreeDist::Constant(100));
        let n = 10;
        let et = g.run(n, &mut SplitMix64::new(3));
        assert!(et.degrees(n).iter().all(|&d| d <= 9));
    }

    #[test]
    fn sizing_inverse() {
        let g = DegreeSequenceGenerator::new(DegreeDist::Constant(8));
        assert_eq!(g.num_nodes_for_edges(4000), 1000);
    }
}
