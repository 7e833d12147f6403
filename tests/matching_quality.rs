//! Integration: the paper's §4.2 matching experiment at test scale, with
//! hard quality thresholds (tightened versions of the Figure 3/4 shapes).

use datasynth::matching::evaluate::Protocol;
use datasynth::matching::random_matching;
use datasynth::prng::SplitMix64;
use datasynth::structure::{LfrGenerator, RmatGenerator, StructureGenerator};
use datasynth::tables::EdgeTable;
use datasynth::telemetry::fnv1a_64;

/// FNV-1a over the little-endian bytes of an assignment: pins every
/// node's group, so a matcher change that moves one node fails loudly.
fn digest(group_of: &[u32]) -> u64 {
    let bytes: Vec<u8> = group_of.iter().flat_map(|g| g.to_le_bytes()).collect();
    fnv1a_64(&bytes)
}

/// SBM-Part and a random matching against the protocol's expected JPD:
/// their L1 distances and the digest of SBM-Part's assignment.
fn match_and_score(edges: &EdgeTable, protocol: &Protocol, seed: u64) -> (f64, f64, u64) {
    let smart = protocol.sbm_part(seed);
    let rand = random_matching(&protocol.sizes, protocol.csr.num_nodes(), seed ^ 0xBEEF);
    (
        protocol.compare(edges, &smart.group_of).l1,
        protocol.compare(edges, &rand.group_of).l1,
        digest(&smart.group_of),
    )
}

#[test]
fn lfr_matching_is_high_quality_and_beats_random() {
    let n = 10_000;
    let edges = LfrGenerator::paper_defaults().run(n, &mut SplitMix64::new(1));
    let protocol = Protocol::new(&edges, n, 16, 2);
    let (l1, l1_random, pin) = match_and_score(&edges, &protocol, 3);
    assert_eq!(
        pin, 0x59a8_e7b1_f2db_e026,
        "LFR(10k) k = 16 assignment moved"
    );
    assert!(l1 < 0.25, "LFR L1 = {l1}");
    assert!(l1 < 0.25 * l1_random, "SBM-Part {l1} vs random {l1_random}");
}

#[test]
fn rmat_matching_beats_random() {
    let edges = RmatGenerator::graph500().run_scale(13, &mut SplitMix64::new(4));
    let protocol = Protocol::new(&edges, 1 << 13, 16, 5);
    let (l1, l1_random, pin) = match_and_score(&edges, &protocol, 6);
    assert_eq!(
        pin, 0x5c83_3ec6_4d0f_8d57,
        "RMAT(2^13) k = 16 assignment moved"
    );
    assert!(l1 < 0.5 * l1_random, "SBM-Part {l1} vs random {l1_random}");
}

#[test]
fn quality_holds_across_k() {
    // Figure 4's axis: k in {4, 16, 64} on the same graph.
    let n = 10_000;
    let edges = LfrGenerator::paper_defaults().run(n, &mut SplitMix64::new(7));
    for k in [4usize, 16, 64] {
        let protocol = Protocol::new(&edges, n, k, 8);
        let (l1, l1_random, pin) = match_and_score(&edges, &protocol, 9);
        let want = match k {
            4 => 0x4a0a_6b93_507e_65e5,
            16 => 0x3a3f_5cdd_44fb_6636,
            _ => 0xe796_4b8a_e45c_2ff1,
        };
        assert_eq!(pin, want, "LFR(10k) k = {k} assignment moved");
        // k = 64 at 10k nodes is far below the paper's 1M-node setting;
        // the win over random shrinks with group size (Figure 4's point).
        let factor = if k == 64 { 0.75 } else { 0.5 };
        assert!(
            l1 < factor * l1_random,
            "k = {k}: SBM-Part {l1} vs random {l1_random}"
        );
    }
}

#[test]
fn diagonal_homophily_mass_is_recovered() {
    let n = 10_000;
    let edges = LfrGenerator::paper_defaults().run(n, &mut SplitMix64::new(10));
    let protocol = Protocol::new(&edges, n, 16, 11);
    let result = protocol.sbm_part(12);
    assert_eq!(
        digest(&result.group_of),
        0xeb20_cc21_276f_a046,
        "LFR(10k) k = 16 assignment moved"
    );
    let cmp = protocol.compare(&edges, &result.group_of);
    let (expected_diag, observed_diag) = (cmp.expected_diagonal, cmp.observed_diagonal);
    assert!(
        observed_diag > 0.85 * expected_diag,
        "diag {observed_diag} vs expected {expected_diag}"
    );
}
