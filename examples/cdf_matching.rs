//! A miniature of the paper's matching experiment, end to end, printing an
//! ASCII rendering of the Figure 3 CDF plot for one configuration.
//!
//! Protocol (§4.2): generate an LFR graph, fabricate ground-truth groups by
//! LDG with geometric sizes, measure the resulting `P(X,Y)`, then ask
//! SBM-Part to re-match a fresh property table against that target and
//! compare expected vs observed CDFs.
//!
//! ```sh
//! cargo run --release --example cdf_matching
//! ```

use datasynth::matching::evaluate::Protocol;
use datasynth::prng::SplitMix64;
use datasynth::structure::{LfrGenerator, StructureGenerator};

fn main() {
    let n: u64 = 20_000;
    let k = 16usize;
    let seed = 7u64;

    println!("LFR({n}, k={k}) matching experiment\n");

    // 1. Structure.
    let lfr = LfrGenerator::paper_defaults();
    let mut rng = SplitMix64::new(seed);
    let edges = lfr.run(n, &mut rng);
    println!("graph: {} edges", edges.len());

    // 2. Ground-truth groups via LDG with geometric sizes, and the JPD
    //    they induce.
    let protocol = Protocol::new(&edges, n, k, seed ^ 1);

    // 3. SBM-Part re-match from scratch, random stream order.
    let result = protocol.sbm_part(seed ^ 2);

    // 4. Compare, Figure-3 style.
    let cmp = protocol.compare(&edges, &result.group_of);
    println!(
        "L1 = {:.4}   KS = {:.4}   Hellinger = {:.4}",
        cmp.l1, cmp.ks, cmp.hellinger
    );
    println!(
        "diagonal mass: expected {:.3}, observed {:.3}\n",
        cmp.expected_diagonal, cmp.observed_diagonal
    );

    // ASCII CDF plot: 60 columns over the sorted pairs, two curves.
    let width = 60usize;
    let height = 20usize;
    let m = cmp.pairs.len();
    let mut canvas = vec![vec![' '; width]; height];
    for col in 0..width {
        let idx = (col * (m - 1)) / (width - 1);
        let e_row = ((1.0 - cmp.expected_cdf[idx]) * (height - 1) as f64).round() as usize;
        let o_row = ((1.0 - cmp.observed_cdf[idx]) * (height - 1) as f64).round() as usize;
        canvas[o_row.min(height - 1)][col] = 'o';
        let cell = &mut canvas[e_row.min(height - 1)][col];
        *cell = if *cell == 'o' { '*' } else { 'e' };
    }
    println!(
        "CDF over value pairs, sorted by expected mass (e = expected, o = observed, * = both)"
    );
    for row in canvas {
        let line: String = row.into_iter().collect();
        println!("|{line}");
    }
    println!("+{}", "-".repeat(width));
}
