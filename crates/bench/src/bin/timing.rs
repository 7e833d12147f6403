//! **Timing claim** (§4.2, last paragraph): the paper reports ≈1100 s for
//! SBM-Part on the largest problem — RMAT-22 (67M generated edges) with 64
//! values, single thread, "no optimizations of any kind".
//!
//! This binary reproduces the measurement as a scale sweep: single-threaded
//! SBM-Part wall time and throughput per (scale, k). Default sweep tops out
//! at RMAT-18; `--full` runs the paper's exact RMAT-22 / k = 64 cell.
//!
//! ```sh
//! cargo run --release -p datasynth-bench --bin timing [--full] [--seed N]
//! ```

use datasynth_bench::{run_matching_experiment, CliOptions, GraphKind};

fn main() {
    let opts = CliOptions::from_args();
    let cells: Vec<(u32, usize)> = if opts.full {
        vec![(18, 16), (20, 16), (22, 16), (22, 4), (22, 64)]
    } else {
        vec![(14, 16), (16, 16), (18, 16), (18, 4), (18, 64)]
    };

    println!("== SBM-Part runtime (single thread) ==");
    println!("paper reference point: RMAT-22, 67M edges, k = 64  ->  ~1100 s on a 2014 Xeon\n");
    println!(
        "{:<10} {:>4} {:>12} {:>10} {:>14} {:>14}",
        "graph", "k", "edges", "seconds", "edges/s", "nodes/s"
    );
    for (scale, k) in cells {
        let kind = GraphKind::Rmat { scale };
        let r = run_matching_experiment(kind, k, opts.seed);
        let secs = r.match_seconds;
        println!(
            "{:<10} {:>4} {:>12} {:>10.2} {:>14.0} {:>14.0}",
            r.graph,
            k,
            r.num_edges,
            secs,
            r.num_edges as f64 / secs,
            kind.num_nodes() as f64 / secs
        );
    }
}
