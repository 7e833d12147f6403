//! LFR benchmark graphs (Lancichinetti, Fortunato, Radicchi; PRE'08):
//! power-law degrees, power-law community sizes, and a mixing factor μ
//! giving each node a (1-μ) fraction of intra-community edges.
//!
//! The paper's evaluation generates LFR graphs with average degree 20,
//! maximum degree 50, community sizes in [10, 50] and μ = 0.1 — those are
//! the defaults of [`LfrParams`].

use datasynth_prng::dist::{BoundedPareto, DiscretePowerLaw, Sampler};
use datasynth_prng::SplitMix64;
use datasynth_tables::EdgeTable;

use crate::{Capabilities, PlantedPartition, StructureGenerator};

/// LFR parameters; `Default` matches the paper's configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LfrParams {
    /// Target average degree.
    pub average_degree: f64,
    /// Maximum degree.
    pub max_degree: u64,
    /// Degree power-law exponent τ1.
    pub degree_exponent: f64,
    /// Community-size power-law exponent τ2.
    pub community_exponent: f64,
    /// Minimum community size.
    pub min_community: u64,
    /// Maximum community size.
    pub max_community: u64,
    /// Mixing factor μ: fraction of each node's edges leaving its community.
    pub mixing: f64,
}

impl Default for LfrParams {
    fn default() -> Self {
        Self {
            average_degree: 20.0,
            max_degree: 50,
            degree_exponent: 2.0,
            community_exponent: 1.0,
            min_community: 10,
            max_community: 50,
            mixing: 0.1,
        }
    }
}

/// LFR generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LfrGenerator {
    params: LfrParams,
}

impl LfrGenerator {
    /// Create from parameters (validated).
    pub fn new(params: LfrParams) -> Self {
        assert!((0.0..=1.0).contains(&params.mixing), "mixing out of range");
        assert!(
            params.min_community >= 2 && params.min_community <= params.max_community,
            "bad community size range"
        );
        assert!(
            params.average_degree > 1.0 && params.average_degree < params.max_degree as f64,
            "bad degree target"
        );
        Self { params }
    }

    /// The paper's configuration.
    pub fn paper_defaults() -> Self {
        Self::new(LfrParams::default())
    }

    /// Accessors for reports.
    pub fn params(&self) -> &LfrParams {
        &self.params
    }

    fn sample_degrees(&self, n: u64, rng: &mut SplitMix64) -> Vec<u32> {
        let p = &self.params;
        let pareto = BoundedPareto::with_floor_mean(
            p.degree_exponent,
            p.max_degree as f64,
            p.average_degree,
        )
        .expect("degree target within range");
        (0..n)
            .map(|_| {
                let d = pareto.sample(rng).floor() as u64;
                d.clamp(1, p.max_degree) as u32
            })
            .collect()
    }

    fn sample_community_sizes(&self, n: u64, rng: &mut SplitMix64) -> Vec<u64> {
        let p = &self.params;
        if n <= p.min_community {
            return vec![n];
        }
        let dist = DiscretePowerLaw::new(p.community_exponent, p.min_community, p.max_community);
        let mut sizes = Vec::new();
        let mut total = 0u64;
        while total < n {
            let s = dist.sample(rng);
            sizes.push(s);
            total += s;
        }
        // Shave the overshoot off the largest communities, never dropping
        // below the minimum size.
        let mut excess = total - n;
        while excess > 0 {
            let (idx, _) = sizes
                .iter()
                .enumerate()
                .max_by_key(|(_, &s)| s)
                .expect("nonempty");
            if sizes[idx] > p.min_community {
                sizes[idx] -= 1;
                excess -= 1;
            } else {
                // Everything is at the minimum: drop one community and give
                // its mass to the others.
                let dropped = sizes.pop().expect("nonempty");
                for _ in 0..dropped.min(excess) {
                    excess -= 1;
                    if excess == 0 {
                        break;
                    }
                }
                let mut leftover = dropped.saturating_sub(dropped.min(excess));
                let mut i = 0;
                while leftover > 0 && !sizes.is_empty() {
                    let len = sizes.len();
                    sizes[i % len] += 1;
                    leftover -= 1;
                    i += 1;
                }
                break;
            }
        }
        debug_assert_eq!(sizes.iter().sum::<u64>(), n);
        sizes
    }

    /// Assign nodes to communities such that each node's internal degree
    /// fits (`int_deg <= size - 1`). Candidate communities are drawn with
    /// probability proportional to *remaining capacity* (a slot vector with
    /// swap-remove), so large communities naturally absorb the high-degree
    /// nodes that only they can host. Nodes that still fail to fit get their
    /// internal degree clamped; the clamped-off stubs become external edges.
    fn assign_communities(
        sizes: &[u64],
        int_degrees: &mut [u32],
        rng: &mut SplitMix64,
    ) -> Vec<u32> {
        let n = int_degrees.len();
        let mut labels = vec![u32::MAX; n];
        // One slot per unit of capacity.
        let mut slots: Vec<u32> = Vec::with_capacity(n);
        for (c, &s) in sizes.iter().enumerate() {
            slots.extend(std::iter::repeat_n(c as u32, s as usize));
        }
        // Hardest-to-place (highest internal degree) first.
        let mut order: Vec<u32> = (0..n as u32).collect();
        rng.shuffle(&mut order);
        order.sort_by_key(|&v| std::cmp::Reverse(int_degrees[v as usize]));
        for &v in &order {
            let v = v as usize;
            let need = u64::from(int_degrees[v]);
            let mut placed = false;
            for _try in 0..32 {
                let i = rng.next_below(slots.len() as u64) as usize;
                let c = slots[i] as usize;
                if sizes[c] > need {
                    labels[v] = c as u32;
                    slots.swap_remove(i);
                    placed = true;
                    break;
                }
            }
            if !placed {
                // Fall back to the largest community that still has a slot.
                let i = (0..slots.len())
                    .max_by_key(|&i| sizes[slots[i] as usize])
                    .expect("capacity equals node count");
                let c = slots[i] as usize;
                labels[v] = c as u32;
                slots.swap_remove(i);
                int_degrees[v] = int_degrees[v].min((sizes[c] - 1) as u32);
            }
        }
        labels
    }
}

impl StructureGenerator for LfrGenerator {
    fn name(&self) -> &'static str {
        "lfr"
    }

    fn run(&self, n: u64, rng: &mut SplitMix64) -> EdgeTable {
        self.run_with_partition(n, rng).0
    }

    // m ≈ n · avg_degree / 2.
    fn expected_edges(&self, n: u64) -> u64 {
        (n as f64 * self.params.average_degree / 2.0).round() as u64
    }

    fn num_nodes_for_edges(&self, num_edges: u64) -> u64 {
        ((2.0 * num_edges as f64 / self.params.average_degree).round() as u64).max(2)
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            power_law: true,
            degree_distribution: true,
            communities: true,
            ..Default::default()
        }
    }
}

impl PlantedPartition for LfrGenerator {
    fn run_with_partition(&self, n: u64, rng: &mut SplitMix64) -> (EdgeTable, Vec<u32>) {
        assert!(n >= 2, "need at least two nodes");
        let degrees = self.sample_degrees(n, rng);
        let mut int_degrees: Vec<u32> = degrees
            .iter()
            .map(|&d| ((1.0 - self.params.mixing) * f64::from(d)).round() as u32)
            .collect();
        let sizes = self.sample_community_sizes(n, rng);
        let labels = Self::assign_communities(&sizes, &mut int_degrees, rng);

        let mut et = EdgeTable::with_capacity(
            "lfr",
            degrees.iter().map(|&d| d as usize).sum::<usize>() / 2,
        );

        // Intra-community wiring: Havel–Hakimi builds the exact internal
        // degree sequence (communities can be nearly complete at low μ,
        // where random stub pairing would collapse), then double-edge swaps
        // randomize. Internal stubs that are not graphical inside their
        // community are returned and converted to external stubs.
        let k = sizes.len();
        let mut members: Vec<Vec<u64>> = vec![Vec::new(); k];
        for (v, &c) in labels.iter().enumerate() {
            members[c as usize].push(v as u64);
        }
        let mut ext_extra = vec![0u32; degrees.len()];
        for comm in &members {
            let demands: Vec<u32> = comm.iter().map(|&v| int_degrees[v as usize]).collect();
            let (mut edges, leftover) = havel_hakimi(&demands);
            let swap_attempts = 2 * edges.len();
            double_edge_swaps(&mut edges, swap_attempts, rng);
            for (a, b) in edges {
                et.push(comm[a], comm[b]);
            }
            for (i, l) in leftover.into_iter().enumerate() {
                ext_extra[comm[i] as usize] += l;
            }
        }

        // Inter-community wiring: global pairing forbidding intra pairs.
        let mut ext_stubs: Vec<u64> = Vec::new();
        for (v, (&d, &i)) in degrees.iter().zip(&int_degrees).enumerate() {
            let ext = d.saturating_sub(i) + ext_extra[v];
            ext_stubs.extend(std::iter::repeat_n(v as u64, ext as usize));
        }
        for (t, h) in constrained_pairing(ext_stubs, rng, 8, |t, h| {
            labels[t as usize] == labels[h as usize]
        }) {
            et.push(t, h);
        }

        (et, labels)
    }
}

/// Havel–Hakimi construction over local node indices `0..demands.len()`:
/// returns the realized simple-graph edges plus, per node, the demand that
/// could not be realized (non-graphical leftovers). Exact when the sequence
/// is graphical.
pub(crate) fn havel_hakimi(demands: &[u32]) -> (Vec<(usize, usize)>, Vec<u32>) {
    let n = demands.len();
    let mut remaining: Vec<(u32, usize)> =
        demands.iter().enumerate().map(|(i, &d)| (d, i)).collect();
    let mut edges = Vec::with_capacity(demands.iter().map(|&d| d as usize).sum::<usize>() / 2);
    loop {
        // Highest remaining demand first.
        remaining.sort_unstable_by(|a, b| b.cmp(a));
        let (d0, v0) = remaining[0];
        if d0 == 0 {
            break;
        }
        remaining[0].0 = 0;
        let take = (d0 as usize).min(remaining.len() - 1);
        for item in remaining.iter_mut().skip(1).take(take) {
            if item.0 == 0 {
                break; // out of partners; the shortfall surfaces below
            }
            item.0 -= 1;
            edges.push((v0.min(item.1), v0.max(item.1)));
        }
    }
    // Leftover = demand minus realized degree (non-zero only when the
    // sequence is not graphical within this community).
    let mut leftover = vec![0u32; n];
    let mut realized = vec![0u32; n];
    for &(a, b) in &edges {
        realized[a] += 1;
        realized[b] += 1;
    }
    for i in 0..n {
        leftover[i] = demands[i].saturating_sub(realized[i]);
    }
    (edges, leftover)
}

/// Randomize a simple graph in place with double-edge swaps
/// (`(a,b),(c,d) -> (a,d),(c,b)`) that preserve the degree sequence and
/// reject self-loops and duplicates.
pub(crate) fn double_edge_swaps(
    edges: &mut [(usize, usize)],
    attempts: usize,
    rng: &mut SplitMix64,
) {
    if edges.len() < 2 {
        return;
    }
    let canon = |a: usize, b: usize| (a.min(b), a.max(b));
    let mut present: std::collections::HashSet<(usize, usize)> =
        edges.iter().map(|&(a, b)| canon(a, b)).collect();
    let m = edges.len() as u64;
    for _ in 0..attempts {
        let i = rng.next_below(m) as usize;
        let j = rng.next_below(m) as usize;
        if i == j {
            continue;
        }
        let (a, b) = edges[i];
        let (c, d) = edges[j];
        let (e1, e2) = (canon(a, d), canon(c, b));
        if a == d || c == b || present.contains(&e1) || present.contains(&e2) {
            continue;
        }
        present.remove(&canon(a, b));
        present.remove(&canon(c, d));
        present.insert(e1);
        present.insert(e2);
        edges[i] = e1;
        edges[j] = e2;
    }
}

/// Pair up stubs into edges, repairing self-loops, duplicates and pairs
/// rejected by `forbid` via random head swaps; irreparable pairs are
/// dropped. Duplicate detection is sort-based so memory overhead stays at
/// O(m) words.
pub(crate) fn constrained_pairing(
    mut stubs: Vec<u64>,
    rng: &mut SplitMix64,
    passes: usize,
    forbid: impl Fn(u64, u64) -> bool,
) -> Vec<(u64, u64)> {
    if stubs.len() < 2 {
        return Vec::new();
    }
    if stubs.len() % 2 == 1 {
        stubs.pop();
    }
    rng.shuffle(&mut stubs);
    let half = stubs.len() / 2;
    let (tails, heads) = stubs.split_at_mut(half);

    let canon = |t: u64, h: u64| if t <= h { (t, h) } else { (h, t) };
    for _ in 0..passes {
        let mut bad = mark_invalid(tails, heads, &forbid, canon);
        if bad.is_empty() {
            break;
        }
        // Swap each bad head with a random partner (possibly also bad —
        // two wrongs often make two rights here).
        for i in bad.drain(..) {
            let j = rng.next_below(half as u64) as usize;
            heads.swap(i, j);
        }
    }

    let final_bad: std::collections::HashSet<usize> = mark_invalid(tails, heads, &forbid, canon)
        .into_iter()
        .collect();
    tails
        .iter()
        .zip(heads.iter())
        .enumerate()
        .filter(|(i, _)| !final_bad.contains(i))
        .map(|(_, (&t, &h))| canon(t, h))
        .collect()
}

fn mark_invalid(
    tails: &[u64],
    heads: &[u64],
    forbid: &impl Fn(u64, u64) -> bool,
    canon: impl Fn(u64, u64) -> (u64, u64),
) -> Vec<usize> {
    let mut bad = Vec::new();
    let mut keyed: Vec<((u64, u64), u32)> = tails
        .iter()
        .zip(heads)
        .enumerate()
        .map(|(i, (&t, &h))| (canon(t, h), i as u32))
        .collect();
    keyed.sort_unstable();
    for w in keyed.windows(2) {
        if w[0].0 == w[1].0 {
            bad.push(w[1].1 as usize); // duplicate
        }
    }
    for (i, (&t, &h)) in tails.iter().zip(heads).enumerate() {
        if t == h || forbid(t, h) {
            bad.push(i);
        }
    }
    bad.sort_unstable();
    bad.dedup();
    bad
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasynth_analysis::{largest_component_size, modularity, DegreeStats};

    #[test]
    fn sizes_partition_exactly() {
        let g = LfrGenerator::paper_defaults();
        let mut rng = SplitMix64::new(1);
        for n in [50u64, 500, 5000] {
            let sizes = g.sample_community_sizes(n, &mut rng);
            assert_eq!(sizes.iter().sum::<u64>(), n, "n = {n}");
            for &s in &sizes {
                assert!(s <= g.params.max_community + 5, "size {s}");
            }
        }
    }

    #[test]
    fn paper_configuration_statistics() {
        let g = LfrGenerator::paper_defaults();
        let n = 10_000;
        let (et, labels) = g.run_with_partition(n, &mut SplitMix64::new(2));
        let stats = DegreeStats::from_degrees(&et.degrees(n)).unwrap();
        assert!(
            (stats.mean - 20.0).abs() < 1.5,
            "average degree {}",
            stats.mean
        );
        assert!(stats.max <= 51, "max degree {}", stats.max);
        // μ = 0.1: about 10% of edge endpoints leave their community.
        let cross = et
            .iter()
            .filter(|&(t, h)| labels[t as usize] != labels[h as usize])
            .count() as f64;
        let mix = cross / et.len() as f64;
        assert!((mix - 0.1).abs() < 0.05, "observed mixing {mix}");
    }

    #[test]
    fn planted_partition_has_high_modularity() {
        let g = LfrGenerator::paper_defaults();
        let n = 5000;
        let (et, labels) = g.run_with_partition(n, &mut SplitMix64::new(3));
        let q = modularity(&et, n, &labels);
        assert!(q > 0.6, "modularity {q}");
    }

    #[test]
    fn graph_is_simple() {
        let g = LfrGenerator::paper_defaults();
        let n = 2000;
        let (et, _) = g.run_with_partition(n, &mut SplitMix64::new(4));
        for (t, h) in et.iter() {
            assert_ne!(t, h, "self-loop");
        }
        let mut c = et.clone();
        c.canonicalize_undirected();
        assert_eq!(c.dedup(), 0, "duplicate edges");
    }

    #[test]
    fn mostly_connected_at_low_mixing() {
        let g = LfrGenerator::paper_defaults();
        let n = 3000;
        let (et, _) = g.run_with_partition(n, &mut SplitMix64::new(5));
        let lcc = largest_component_size(&et, n);
        assert!(lcc as f64 > 0.95 * n as f64, "LCC {lcc} of {n}");
    }

    #[test]
    fn sizing_inverse() {
        let g = LfrGenerator::paper_defaults();
        let n = g.num_nodes_for_edges(100_000);
        assert!((n as f64 - 10_000.0).abs() < 200.0, "n = {n}");
    }

    #[test]
    fn deterministic() {
        let g = LfrGenerator::paper_defaults();
        let a = g.run_with_partition(1000, &mut SplitMix64::new(6));
        let b = g.run_with_partition(1000, &mut SplitMix64::new(6));
        assert_eq!(a, b);
    }

    #[test]
    fn havel_hakimi_exact_on_graphical_sequence() {
        let demands = [3u32, 3, 2, 2, 2];
        let (edges, leftover) = havel_hakimi(&demands);
        assert_eq!(edges.len(), 6);
        assert!(leftover.iter().all(|&l| l == 0), "graphical: no leftover");
        let mut realized = [0u32; 5];
        let mut seen = std::collections::HashSet::new();
        for &(a, b) in &edges {
            assert_ne!(a, b);
            assert!(seen.insert((a, b)), "duplicate edge ({a},{b})");
            realized[a] += 1;
            realized[b] += 1;
        }
        assert_eq!(realized, demands);
    }

    #[test]
    fn havel_hakimi_reports_non_graphical_leftover() {
        // Sum odd and demand exceeding n-1: cannot be fully realized.
        let (edges, leftover) = havel_hakimi(&[5, 1, 1]);
        let total_left: u32 = leftover.iter().sum();
        assert!(total_left >= 3, "leftover {leftover:?}");
        for &(a, b) in &edges {
            assert_ne!(a, b);
        }
    }

    #[test]
    fn havel_hakimi_complete_graph() {
        let demands = [4u32; 5];
        let (edges, leftover) = havel_hakimi(&demands);
        assert_eq!(edges.len(), 10);
        assert!(leftover.iter().all(|&l| l == 0));
    }

    #[test]
    fn double_edge_swaps_preserve_degrees_and_simplicity() {
        let (mut edges, _) = havel_hakimi(&[3u32, 3, 2, 2, 2, 2, 2, 2]);
        let before = edges.clone();
        let mut deg_before = [0u32; 8];
        for &(a, b) in &edges {
            deg_before[a] += 1;
            deg_before[b] += 1;
        }
        double_edge_swaps(&mut edges, 200, &mut SplitMix64::new(8));
        assert_ne!(edges, before, "swaps should change something");
        let mut deg_after = [0u32; 8];
        let mut seen = std::collections::HashSet::new();
        for &(a, b) in &edges {
            assert_ne!(a, b);
            assert!(seen.insert((a.min(b), a.max(b))));
            deg_after[a] += 1;
            deg_after[b] += 1;
        }
        assert_eq!(deg_before, deg_after);
    }

    #[test]
    fn constrained_pairing_respects_forbid() {
        let stubs: Vec<u64> = (0..100).flat_map(|v| [v, v]).collect();
        let mut rng = SplitMix64::new(7);
        // Forbid pairs whose endpoints share parity.
        let pairs = constrained_pairing(stubs, &mut rng, 8, |a, b| a % 2 == b % 2);
        assert!(!pairs.is_empty());
        for (t, h) in pairs {
            assert_ne!(t % 2, h % 2, "({t},{h}) violates the predicate");
        }
    }
}
