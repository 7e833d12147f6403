//! **Figure 4**: expected vs observed CDF of `P(X,Y)` after SBM-Part at a
//! fixed graph size, varying the number of property values k ∈ {4, 16, 64}.
//!
//! Paper grid: LFR 1M nodes, RMAT scale 22. Default run uses LFR 100k and
//! RMAT 18; pass `--full` for the paper's sizes.
//!
//! ```sh
//! cargo run --release -p datasynth-bench --bin fig4 [--full] [--seed N] [--csv-dir DIR]
//! ```

use datasynth_bench::{
    maybe_write_csv, result_row, run_matching_experiment, CliOptions, GraphKind,
};

fn main() {
    let opts = CliOptions::from_args();
    let ks = [4usize, 16, 64];
    let (lfr_n, rmat_scale): (u64, u32) = if opts.full {
        (1_000_000, 22)
    } else {
        (100_000, 18)
    };

    println!("== Figure 4: matching quality vs number of values (fixed size) ==\n");
    for &k in &ks {
        let r = run_matching_experiment(GraphKind::Lfr { n: lfr_n }, k, opts.seed);
        maybe_write_csv(&opts, &format!("fig4_lfr_{lfr_n}_{k}"), &r);
        println!("{}", result_row(&r));
    }
    println!();
    for &k in &ks {
        let r = run_matching_experiment(GraphKind::Rmat { scale: rmat_scale }, k, opts.seed);
        maybe_write_csv(&opts, &format!("fig4_rmat_{rmat_scale}_{k}"), &r);
        println!("{}", result_row(&r));
    }

    println!("\npaper-shape checks:");
    println!("  * LFR works consistently well across k");
    println!("  * graph structure dominates quality (compare LFR vs RMAT rows at equal k)");
}
