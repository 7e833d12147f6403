//! The six workloads. Each is set up once (timed as `setup_s`), repeats its
//! timed region, and then verifies its outputs with extra untimed runs.

mod engine_queries;
mod props_export;
mod server_stream;
mod sharded_oplog;
mod social_e2e;
mod structure_match;

pub mod generate;
pub mod kernels;
pub mod query;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::trace::Tracer;

pub type Error = Box<dyn std::error::Error>;
pub type Result<T> = std::result::Result<T, Error>;

pub const SOCIAL_DSL: &str = include_str!("../../workloads/social.dsl");
pub const WIDE_DSL: &str = include_str!("../../workloads/wide.dsl");
pub const LEDGER_DSL: &str = include_str!("../../workloads/ledger.dsl");
pub const LEDGER_TEMPORAL_DSL: &str = include_str!("../../workloads/ledger_temporal.dsl");
pub const STREAM_DSL: &str = include_str!("../../workloads/stream.dsl");

/// What every workload is given: the seed, the core count, and a directory
/// of its own to write under.
#[derive(Debug, Clone)]
pub struct Ctx {
    pub seed: u64,
    pub nproc: usize,
    pub dir: PathBuf,
}

impl Ctx {
    /// A generation thread budget, never above the core count.
    pub fn threads(&self, wanted: usize) -> usize {
        wanted.min(self.nproc).max(1)
    }

    /// The thread count a determinism check compares against: `nproc`, or 1
    /// when the workload itself already runs at `nproc`.
    pub fn other_threads(&self, used: usize) -> usize {
        if used == self.nproc {
            1
        } else {
            self.nproc
        }
    }
}

/// Named measurements of one repetition (or of one verification pass).
#[derive(Debug, Clone, Default)]
pub struct Samples(pub BTreeMap<String, f64>);

impl Samples {
    pub fn set(&mut self, name: &str, value: f64) {
        self.0.insert(name.to_owned(), value);
    }

    pub fn add(&mut self, name: &str, value: f64) {
        *self.0.entry(name.to_owned()).or_default() += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }

    /// `name = numerator / denominator`, left unset when the denominator is 0.
    pub fn rate(&mut self, name: &str, numerator: f64, denominator: f64) {
        if denominator > 0.0 {
            self.set(name, numerator / denominator);
        }
    }
}

/// One repetition of a workload's timed region.
#[derive(Debug, Default)]
pub struct Rep {
    pub metrics: Samples,
    /// Manifest content hash of what the repetition generated (0: nothing).
    pub hash: u64,
    /// Execute wall of every query round, pooled over repetitions for the p99.
    pub rounds_us: Vec<f64>,
}

/// Output checks: each is one attempted operation.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Checks {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }
}

pub trait Workload {
    /// Run the timed region once.
    fn rep(&mut self, tracer: &mut Tracer, checks: &mut Checks) -> Result<Rep>;

    /// Checks that need runs of their own; once, after the repetitions,
    /// whose common content hash is `hash`. May add deterministic metrics
    /// (`match_ks`).
    fn verify(&mut self, hash: u64, checks: &mut Checks, out: &mut Samples) -> Result<()>;

    /// The traced pass's standalone kernel calls at this workload's size.
    fn kernels(&mut self, out: &mut Samples) -> Result<()>;

    /// Per-layer numbers the set-up itself measured.
    fn setup_metrics(&self, _out: &mut Samples) {}
}

/// Set up the workload called `name` under `ctx.dir`.
pub fn setup(name: &str, ctx: &Ctx) -> Result<Box<dyn Workload>> {
    Ok(match name {
        "social_e2e" => Box::new(social_e2e::SocialE2e::setup(ctx)?),
        "props_export" => Box::new(props_export::PropsExport::setup(ctx)?),
        "structure_match" => Box::new(structure_match::StructureMatch::setup(ctx)?),
        "engine_queries" => Box::new(engine_queries::EngineQueries::setup(ctx)?),
        "sharded_oplog" => Box::new(sharded_oplog::ShardedOplog::setup(ctx)?),
        "server_stream" => Box::new(server_stream::ServerStream::setup(ctx)?),
        other => return Err(format!("unknown workload {other:?}").into()),
    })
}

/// Remove `dir` and everything under it, then create it empty.
pub fn fresh_dir(dir: &Path) -> Result<()> {
    if dir.exists() {
        std::fs::remove_dir_all(dir)?;
    }
    std::fs::create_dir_all(dir)?;
    Ok(())
}

/// Total size of the regular files directly under `dir`.
pub fn dir_bytes(dir: &Path) -> Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let meta = entry?.metadata()?;
        if meta.is_file() {
            total += meta.len();
        }
    }
    Ok(total)
}

pub const MB: f64 = 1e6;
