//! Paper-figure harness: one binary per table or figure of the paper
//! (`fig3`, `fig4`, `table1`, `timing`). Speed is measured by the
//! repository's `benchmark/` package, not here.
//!
//! The matching figures run the §4.2 protocol of
//! [`datasynth_matching::evaluate::Protocol`] on an LFR or RMAT graph and
//! report SBM-Part's expected-vs-observed distances beside those of a
//! random matching of the same graph (the floor SBM-Part must beat).

use std::time::Instant;

use datasynth_matching::evaluate::{stream_order, CdfComparison, Protocol};
use datasynth_matching::{random_matching, sbm_part};
use datasynth_prng::SplitMix64;
use datasynth_structure::{LfrGenerator, RmatGenerator, StructureGenerator};
use datasynth_tables::EdgeTable;

/// Which generator produced the experiment graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraphKind {
    /// LFR with the paper's parameters, `n` nodes.
    Lfr {
        /// Node count.
        n: u64,
    },
    /// RMAT at Graph-500 defaults, `scale` (n = 2^scale).
    Rmat {
        /// log2 of the node count.
        scale: u32,
    },
}

impl GraphKind {
    /// Label used in report rows (matches the paper's figure captions).
    pub fn label(&self) -> String {
        match self {
            GraphKind::Lfr { n } => format!("LFR({})", human(*n)),
            GraphKind::Rmat { scale } => format!("RMAT({scale})"),
        }
    }

    /// Node count of the generated graph.
    pub fn num_nodes(&self) -> u64 {
        match self {
            GraphKind::Lfr { n } => *n,
            GraphKind::Rmat { scale } => 1u64 << scale,
        }
    }

    /// Generate the edge table.
    pub fn generate(&self, seed: u64) -> EdgeTable {
        let mut rng = SplitMix64::new(seed);
        match self {
            GraphKind::Lfr { n } => LfrGenerator::paper_defaults().run(*n, &mut rng),
            GraphKind::Rmat { scale } => RmatGenerator::graph500().run_scale(*scale, &mut rng),
        }
    }
}

fn human(n: u64) -> String {
    if n >= 1_000_000 && n.is_multiple_of(1_000_000) {
        format!("{}M", n / 1_000_000)
    } else if n >= 1_000 && n.is_multiple_of(1_000) {
        format!("{}k", n / 1_000)
    } else {
        n.to_string()
    }
}

/// Result of one experiment cell.
#[derive(Debug)]
pub struct ExperimentResult {
    /// Graph label (e.g. `LFR(100k)`).
    pub graph: String,
    /// Number of distinct property values `k`.
    pub k: usize,
    /// Edges in the structure graph.
    pub num_edges: u64,
    /// Expected-vs-observed comparison after SBM-Part.
    pub comparison: CdfComparison,
    /// The same comparison after a random matching.
    pub random: CdfComparison,
    /// Wall time of the SBM-Part step only.
    pub match_seconds: f64,
}

/// Run the §4.2 protocol for one `(graph, k)` cell: ground truth streamed
/// with seed `seed ^ 0x5151`, SBM-Part with `seed ^ 0xACDC`, the random
/// floor with `seed ^ 0xF00D`.
pub fn run_matching_experiment(kind: GraphKind, k: usize, seed: u64) -> ExperimentResult {
    let n = kind.num_nodes();
    let edges = kind.generate(seed);
    let protocol = Protocol::new(&edges, n, k, seed ^ 0x5151);
    let order = stream_order(n, seed ^ 0xACDC);
    let start = Instant::now();
    let matched = sbm_part(&protocol.input(), &order);
    let match_seconds = start.elapsed().as_secs_f64();
    let random = random_matching(&protocol.sizes, n, seed ^ 0xF00D);

    ExperimentResult {
        graph: kind.label(),
        k,
        num_edges: edges.len(),
        comparison: protocol.compare(&edges, &matched.group_of),
        random: protocol.compare(&edges, &random.group_of),
        match_seconds,
    }
}

/// Render a result as one row of the report tables.
pub fn result_row(r: &ExperimentResult) -> String {
    format!(
        "{:<12} k={:<3} m={:<10} L1={:.4}  KS={:.4}  Hellinger={:.4}  diag {:.3}->{:.3}  match {:.2}s  | random L1={:.4}  KS={:.4}",
        r.graph,
        r.k,
        r.num_edges,
        r.comparison.l1,
        r.comparison.ks,
        r.comparison.hellinger,
        r.comparison.expected_diagonal,
        r.comparison.observed_diagonal,
        r.match_seconds,
        r.random.l1,
        r.random.ks
    )
}

/// Render the expected/observed CDF series of a result as CSV lines
/// (`pair_rank,...`) — the exact data behind one panel of Figures 3/4.
pub fn cdf_series_csv(r: &ExperimentResult) -> String {
    let mut out =
        String::from("pair_rank,i,j,expected_pmf,observed_pmf,expected_cdf,observed_cdf\n");
    for (rank, p) in r.comparison.pairs.iter().enumerate() {
        out.push_str(&format!(
            "{rank},{},{},{:.6},{:.6},{:.6},{:.6}\n",
            p.i,
            p.j,
            p.expected,
            p.observed,
            r.comparison.expected_cdf[rank],
            r.comparison.observed_cdf[rank]
        ));
    }
    out
}

/// Parse `--full` / `--seed N` / `--csv-dir D` flags shared by the figure
/// binaries.
pub struct CliOptions {
    /// Run at the paper's full scale (LFR 1M, RMAT 22).
    pub full: bool,
    /// Experiment seed.
    pub seed: u64,
    /// Optional directory to drop per-panel CDF CSV files into.
    pub csv_dir: Option<std::path::PathBuf>,
}

impl CliOptions {
    /// Parse from `std::env::args`.
    pub fn from_args() -> Self {
        let mut opts = CliOptions {
            full: false,
            seed: 42,
            csv_dir: None,
        };
        let mut args = std::env::args().skip(1);
        while let Some(a) = args.next() {
            match a.as_str() {
                "--full" => opts.full = true,
                "--seed" => {
                    opts.seed = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .expect("--seed takes an integer");
                }
                "--csv-dir" => {
                    opts.csv_dir = Some(args.next().expect("--csv-dir takes a path").into());
                }
                other => panic!("unknown flag {other:?} (known: --full, --seed N, --csv-dir D)"),
            }
        }
        opts
    }
}

/// Write a panel's CDF series when `--csv-dir` was given.
pub fn maybe_write_csv(opts: &CliOptions, name: &str, r: &ExperimentResult) {
    if let Some(dir) = &opts.csv_dir {
        std::fs::create_dir_all(dir).expect("create csv dir");
        let path = dir.join(format!("{name}.csv"));
        std::fs::write(&path, cdf_series_csv(r)).expect("write csv");
    }
}
