//! Matching results and the mapping function `f`.
//!
//! SBM-Part produces a *group* per structure node; the mapping function
//! assigns each node a concrete property-table id whose value belongs to
//! that group. Property ids are handed out in id order within each group,
//! which keeps the whole pipeline deterministic.

use datasynth_prng::SplitMix64;

/// Result of a matching run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatchResult {
    /// Group (property-value index) per structure node.
    pub group_of: Vec<u32>,
    /// The mapping `f`: `mapping[node] = property table id`.
    pub mapping: Vec<u64>,
}

impl MatchResult {
    /// Build from a group assignment, handing out the property ids of each
    /// group in ascending order.
    pub fn from_assignment(group_of: Vec<u32>, group_sizes: &[u64]) -> Self {
        let mapping = assignment_to_mapping(&group_of, group_sizes);
        Self { group_of, mapping }
    }
}

/// Derive the node→property-id mapping from a group assignment: property
/// ids are laid out group-by-group (`group 0` owns ids `0..q0`, `group 1`
/// owns `q0..q0+q1`, ...) matching how the experiment protocol builds its
/// property tables.
pub fn assignment_to_mapping(group_of: &[u32], group_sizes: &[u64]) -> Vec<u64> {
    let mut next = Vec::with_capacity(group_sizes.len());
    let mut acc = 0u64;
    for &q in group_sizes {
        next.push(acc);
        acc += q;
    }
    group_of
        .iter()
        .map(|&g| {
            let id = next[g as usize];
            next[g as usize] += 1;
            id
        })
        .collect()
}

/// Derive the node→property-id mapping when each group's property ids are
/// an arbitrary (not contiguous) id list — the general case when matching
/// against a real property table: `ids_by_group[g]` lists the PT rows
/// holding value `g`, and nodes assigned to `g` consume them in order.
pub fn assignment_to_mapping_with_ids(group_of: &[u32], ids_by_group: &[Vec<u64>]) -> Vec<u64> {
    let mut next = vec![0usize; ids_by_group.len()];
    group_of
        .iter()
        .map(|&g| {
            let g = g as usize;
            let id = ids_by_group[g][next[g]];
            next[g] += 1;
            id
        })
        .collect()
}

/// Random matching baseline: assign nodes to groups uniformly (respecting
/// sizes) with no regard to structure — what DataSynth does "in those
/// cases where an edge type is not correlated with any property".
pub fn random_matching(group_sizes: &[u64], num_nodes: u64, seed: u64) -> MatchResult {
    let total: u64 = group_sizes.iter().sum();
    assert_eq!(total, num_nodes, "group sizes must sum to node count");
    let mut labels: Vec<u32> = Vec::with_capacity(num_nodes as usize);
    for (g, &q) in group_sizes.iter().enumerate() {
        labels.extend(std::iter::repeat_n(g as u32, q as usize));
    }
    SplitMix64::new(seed).shuffle(&mut labels);
    MatchResult::from_assignment(labels, group_sizes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mapping_is_a_bijection_respecting_groups() {
        let group_of = vec![1u32, 0, 1, 0, 1];
        let sizes = [2u64, 3];
        let mapping = assignment_to_mapping(&group_of, &sizes);
        // Group 0 owns ids 0..2, group 1 owns 2..5.
        assert_eq!(mapping, vec![2, 0, 3, 1, 4]);
        let mut sorted = mapping.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn mapping_with_scattered_ids() {
        // Value "a" sits at PT rows 1 and 4; value "b" at 0, 2, 3.
        let ids_by_group = vec![vec![1u64, 4], vec![0u64, 2, 3]];
        let group_of = vec![1u32, 0, 1, 1, 0];
        let mapping = assignment_to_mapping_with_ids(&group_of, &ids_by_group);
        assert_eq!(mapping, vec![0, 1, 2, 3, 4]);
        let mut sorted = mapping;
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2, 3, 4], "bijection");
    }

    #[test]
    fn random_matching_respects_sizes_and_seed() {
        let r1 = random_matching(&[3, 7], 10, 9);
        let r2 = random_matching(&[3, 7], 10, 9);
        assert_eq!(r1, r2);
        let zeros = r1.group_of.iter().filter(|&&g| g == 0).count();
        assert_eq!(zeros, 3);
    }
}
