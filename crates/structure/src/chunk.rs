//! Shared machinery for *chunkable* (counter-based) structure generation.
//!
//! A chunkable generator partitions its work into fixed, generator-defined
//! slots — an edge index for RMAT, a window of linearized pair indices for
//! Erdős–Rényi and SBM blocks — and samples each slot from an independent
//! [`CounterStream`] substream. Because the partition is fixed (it never
//! depends on the thread count) and each slot is a pure function of
//! `(stream key, slot index)`, concatenating any ordered partition of the
//! slot range reproduces the sequential output byte-for-byte.

use std::ops::Range;

use datasynth_prng::{CounterStream, SplitMix64};
use datasynth_tables::EdgeTable;

use crate::StructureGenerator;

/// Pair indices per work slot for generators that sample a linearized pair
/// space. Small enough that modest graphs split into many slots, large
/// enough that per-slot stream setup is amortized away.
pub(crate) const SLOT_PAIRS: u64 = 1 << 14;

/// Unordered pairs over `n` nodes; saturating, since lint sizes any `n`.
pub(crate) fn total_pairs(n: u64) -> u64 {
    n.saturating_mul(n.saturating_sub(1)) / 2
}

/// Number of [`SLOT_PAIRS`]-wide slots covering `total` pair indices.
pub(crate) fn slots_for_pairs(total: u64) -> u64 {
    total.div_ceil(SLOT_PAIRS)
}

/// Visit the Bernoulli(`p`)-sampled indices of `[lo, hi)` via geometric
/// skips drawn from `rng`. Restarting the skip chain at a slot boundary
/// does not change the distribution — the Bernoulli process is memoryless —
/// which is exactly what makes fixed-width slots a valid parallel unit.
pub(crate) fn sample_indices_in(
    lo: u64,
    hi: u64,
    p: f64,
    rng: &mut SplitMix64,
    mut f: impl FnMut(u64),
) {
    if p <= 0.0 || lo >= hi {
        return;
    }
    if p >= 1.0 {
        for idx in lo..hi {
            f(idx);
        }
        return;
    }
    let log_q = (1.0 - p).ln();
    let mut idx: i128 = i128::from(lo) - 1;
    loop {
        let u = rng.next_f64();
        let skip = ((1.0 - u).ln() / log_q).floor() as i128 + 1;
        idx += skip.max(1);
        if idx >= i128::from(hi) {
            return;
        }
        f(idx as u64);
    }
}

/// Decode a linearized strict-lower-triangle index into `(t, h)` with
/// `t < h`: the inverse of `idx = h(h-1)/2 + t` for `0 <= t < h`.
pub(crate) fn pair_from_index(idx: u64) -> (u64, u64) {
    let h = ((1.0 + (1.0 + 8.0 * idx as f64).sqrt()) / 2.0).floor() as u64;
    // Guard against float rounding at large indices.
    let h = if h * (h - 1) / 2 > idx { h - 1 } else { h };
    let h = if (h + 1) * h / 2 <= idx { h + 1 } else { h };
    let t = idx - h * (h - 1) / 2;
    (t, h)
}

/// The canonical `k`-way row partition used by sharded generation: shard
/// `index` of `count` owns the global rows `[n*index/count, n*(index+1)/count)`
/// of an `n`-row table. The windows of all `count` shards are disjoint,
/// ordered by shard index, and tile `0..n` exactly — so concatenating the
/// shards' row slices in index order reconstructs the full table. The
/// partition is a pure function of `(n, index, count)`: every shard (and
/// every sink) derives the same windows independently, with no
/// coordination.
///
/// # Panics
///
/// Panics when `count == 0` or `index >= count`; callers validate shard
/// specs before reaching this function.
pub fn shard_window(n: u64, index: u64, count: u64) -> Range<u64> {
    assert!(count > 0, "shard count must be positive");
    assert!(
        index < count,
        "shard index {index} out of range for {count} shards"
    );
    // u128 intermediates: n * count must not overflow for any u64 inputs.
    let lo = ((n as u128 * index as u128) / count as u128) as u64;
    let hi = ((n as u128 * (index as u128 + 1)) / count as u128) as u64;
    lo..hi
}

/// Run a chunkable generator over its whole slot range on one thread,
/// deriving the counter key from `rng` — the reference semantics that any
/// partitioned `run_range` execution must reproduce byte-for-byte. This is
/// the canonical `run()` body for chunkable generators; the pipeline runner
/// performs the same derivation, splitting the slot range across workers.
pub fn run_chunked<G: StructureGenerator + ?Sized>(
    g: &G,
    n: u64,
    rng: &mut SplitMix64,
) -> EdgeTable {
    let stream = CounterStream::new(rng.next_u64());
    let et = g.run_range(n, 0..g.num_slots(n), &stream);
    g.finalize(et)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pair_index_roundtrip() {
        let mut idx = 0u64;
        for h in 1..40u64 {
            for t in 0..h {
                assert_eq!(pair_from_index(idx), (t, h), "idx {idx}");
                idx += 1;
            }
        }
    }

    #[test]
    fn sample_indices_edge_probabilities() {
        let mut rng = SplitMix64::new(1);
        let mut seen = Vec::new();
        sample_indices_in(10, 20, 1.0, &mut rng, |i| seen.push(i));
        assert_eq!(seen, (10..20).collect::<Vec<_>>());
        seen.clear();
        sample_indices_in(10, 20, 0.0, &mut rng, |i| seen.push(i));
        assert!(seen.is_empty());
        sample_indices_in(20, 10, 0.5, &mut rng, |i| seen.push(i));
        assert!(seen.is_empty(), "empty window samples nothing");
    }

    #[test]
    fn sample_indices_stays_in_window_and_concentrates() {
        let mut total = 0u64;
        for slot in 0..50u64 {
            let mut rng = SplitMix64::new(slot);
            let (lo, hi) = (slot * 1000, slot * 1000 + 1000);
            sample_indices_in(lo, hi, 0.1, &mut rng, |i| {
                assert!((lo..hi).contains(&i));
                total += 1;
            });
        }
        // 50 windows x 1000 indices x p=0.1 = 5000 expected.
        assert!((4400..5600).contains(&total), "sampled {total}");
    }

    #[test]
    fn shard_windows_tile_the_row_space() {
        for &n in &[0u64, 1, 7, 1000, 1001] {
            for k in 1..=8u64 {
                let mut next = 0u64;
                for i in 0..k {
                    let w = shard_window(n, i, k);
                    assert_eq!(w.start, next, "n={n} k={k} i={i} must be contiguous");
                    assert!(w.end >= w.start);
                    next = w.end;
                }
                assert_eq!(next, n, "n={n} k={k} must be exhaustive");
            }
        }
        // Balanced to within one row.
        for i in 0..7u64 {
            let w = shard_window(100, i, 7);
            assert!((w.end - w.start).abs_diff(100 / 7) <= 1);
        }
    }

    #[test]
    fn shard_window_survives_huge_tables() {
        // n * count overflows u64; u128 arithmetic must still tile exactly.
        let n = u64::MAX;
        let mut next = 0u64;
        for i in 0..5 {
            let w = shard_window(n, i, 5);
            assert_eq!(w.start, next);
            assert!(w.end > w.start);
            next = w.end;
        }
        assert_eq!(next, n);
    }

    #[test]
    fn slots_cover_the_pair_space() {
        assert_eq!(slots_for_pairs(0), 0);
        assert_eq!(slots_for_pairs(1), 1);
        assert_eq!(slots_for_pairs(SLOT_PAIRS), 1);
        assert_eq!(slots_for_pairs(SLOT_PAIRS + 1), 2);
    }
}
