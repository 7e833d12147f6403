//! Compressed sparse row adjacency, the neighborhood view used by the
//! matching and analysis algorithms.

use crate::edge_table::EdgeTable;

/// CSR adjacency over nodes `0..n`. An entry `E` is whatever the builder
/// makes of `(neighbor, edge row)`: the bare neighbor id by default (what
/// matching and analysis walk), `(neighbor, row)` where traversals need
/// edge-row provenance (the query engine).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr<E = u64> {
    offsets: Vec<u64>,
    entries: Vec<E>,
}

impl Csr {
    /// Build the *undirected* view: every edge appears in both endpoint
    /// lists (a self-loop appears twice in its node's list).
    pub fn undirected(edges: &EdgeTable, n: u64) -> Self {
        Self::build(n, edges.tails(), edges.heads(), true, |nbr, _| nbr)
    }

    /// Build the *directed* (out-adjacency) view.
    pub fn directed(edges: &EdgeTable, n: u64) -> Self {
        Self::build(n, edges.tails(), edges.heads(), false, |nbr, _| nbr)
    }

    /// Sort every adjacency list (enables binary-searched `has_edge`).
    pub fn sort_neighborhoods(&mut self) {
        for v in 0..self.num_nodes() {
            let lo = self.offsets[v as usize] as usize;
            let hi = self.offsets[v as usize + 1] as usize;
            self.entries[lo..hi].sort_unstable();
        }
    }

    /// Membership test; requires [`Self::sort_neighborhoods`] first for
    /// correctness of the binary search.
    #[inline]
    pub fn has_edge_sorted(&self, u: u64, v: u64) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }
}

impl<E: Copy + Default> Csr<E> {
    /// The one counting sort (count → prefix offsets → cursor fill) behind
    /// every view: parallel `tails`/`heads` slices over nodes `0..n`, edge
    /// row `i` entered under `tails[i]` as `entry(heads[i], i)` and, with
    /// `both`, under `heads[i]` as `entry(tails[i], i)` — so a self-loop
    /// contributes two entries, the
    /// [`EdgeTable::degrees`](crate::EdgeTable::degrees) convention. Lists
    /// keep edge-row order. Inlined so `both` and `entry` are constants
    /// of each caller's copy, not per-entry decisions.
    #[inline]
    pub fn build(
        n: u64,
        tails: &[u64],
        heads: &[u64],
        both: bool,
        entry: impl Fn(u64, u64) -> E,
    ) -> Self {
        let n = n as usize;
        let mut offsets = vec![0u64; n + 1];
        for (&t, &h) in tails.iter().zip(heads) {
            offsets[t as usize + 1] += 1;
            if both {
                offsets[h as usize + 1] += 1;
            }
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        let mut cursor: Vec<u64> = offsets[..n].to_vec();
        let mut entries = vec![E::default(); offsets[n] as usize];
        let mut place = |v: u64, e: E| {
            entries[cursor[v as usize] as usize] = e;
            cursor[v as usize] += 1;
        };
        for (row, (&t, &h)) in tails.iter().zip(heads).enumerate() {
            place(t, entry(h, row as u64));
            if both {
                place(h, entry(t, row as u64));
            }
        }
        Self { offsets, entries }
    }
}

impl<E> Csr<E> {
    /// Number of nodes.
    pub fn num_nodes(&self) -> u64 {
        (self.offsets.len() - 1) as u64
    }

    /// Total adjacency entries (2m for undirected, m for directed).
    pub fn num_entries(&self) -> u64 {
        self.entries.len() as u64
    }

    /// [`num_entries`](Self::num_entries), under the engine's name.
    pub fn entry_count(&self) -> u64 {
        self.num_entries()
    }

    /// Entries of `v`.
    #[inline]
    pub fn neighbors(&self, v: u64) -> &[E] {
        let lo = self.offsets[v as usize] as usize;
        let hi = self.offsets[v as usize + 1] as usize;
        &self.entries[lo..hi]
    }

    /// Degree of `v` in this view.
    #[inline]
    pub fn degree(&self, v: u64) -> u64 {
        self.offsets[v as usize + 1] - self.offsets[v as usize]
    }

    /// Heap bytes held (offsets plus entries).
    pub fn bytes(&self) -> u64 {
        (self.offsets.len() * 8 + self.entries.len() * std::mem::size_of::<E>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn triangle() -> EdgeTable {
        EdgeTable::from_pairs("e", [(0u64, 1u64), (1, 2), (0, 2)])
    }

    #[test]
    fn undirected_lists_both_directions() {
        let csr = Csr::undirected(&triangle(), 3);
        assert_eq!(csr.num_nodes(), 3);
        assert_eq!(csr.num_entries(), 6);
        for v in 0..3 {
            assert_eq!(csr.degree(v), 2, "node {v}");
        }
        let mut n0 = csr.neighbors(0).to_vec();
        n0.sort_unstable();
        assert_eq!(n0, vec![1, 2]);
    }

    #[test]
    fn directed_lists_out_only() {
        let csr = Csr::directed(&triangle(), 3);
        assert_eq!(csr.num_entries(), 3);
        assert_eq!(csr.degree(0), 2);
        assert_eq!(csr.degree(2), 0);
    }

    #[test]
    fn isolated_nodes_have_empty_lists() {
        let et = EdgeTable::from_pairs("e", [(0u64, 1u64)]);
        let csr = Csr::undirected(&et, 4);
        assert_eq!(csr.degree(2), 0);
        assert_eq!(csr.degree(3), 0);
        assert!(csr.neighbors(3).is_empty());
    }

    #[test]
    fn self_loop_appears_twice() {
        let et = EdgeTable::from_pairs("e", [(1u64, 1u64)]);
        let csr = Csr::undirected(&et, 2);
        assert_eq!(csr.neighbors(1), &[1, 1]);
    }

    #[test]
    fn sorted_membership() {
        let mut csr = Csr::undirected(&triangle(), 3);
        csr.sort_neighborhoods();
        assert!(csr.has_edge_sorted(0, 1));
        assert!(csr.has_edge_sorted(2, 0));
        assert!(!csr.has_edge_sorted(0, 0));
    }

    #[test]
    fn degree_sum_equals_entries() {
        let et = EdgeTable::from_pairs("e", [(0u64, 1), (0, 2), (3, 1), (2, 2)]);
        let csr = Csr::undirected(&et, 4);
        let sum: u64 = (0..4).map(|v| csr.degree(v)).sum();
        assert_eq!(sum, csr.num_entries());
    }
}
