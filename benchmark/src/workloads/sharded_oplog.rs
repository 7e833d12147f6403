//! `sharded_oplog`: a full temporal run, then one shard of four, both into
//! CSV tables plus the op log.

use std::fs::File;
use std::io::BufWriter;
use std::path::{Path, PathBuf};

use datasynth::core::{CsvSink, SinkManifest};
use datasynth::temporal::{ops_file_name, OpsFormat, TemporalSink};

use super::generate::{emit_sinks, generate, Generated, LayerTotals, Prepared, SinkSlot};
use super::kernels;
use super::{
    dir_bytes, fresh_dir, Checks, Ctx, Rep, Result, Samples, Workload, LEDGER_TEMPORAL_DSL, MB,
};
use crate::trace::Tracer;

const THREADS: usize = 1;
const SHARDS: u64 = 4;
/// The shard the timed region runs; the others run once, in `verify`.
const TIMED_SHARD: u64 = 1;

pub struct ShardedOplog {
    ctx: Ctx,
    prepared: Prepared,
    full_dir: PathBuf,
    /// Manifests of the last repetition's full run and timed shard.
    full: Option<SinkManifest>,
    timed_shard: Option<SinkManifest>,
}

impl ShardedOplog {
    pub fn setup(ctx: &Ctx) -> Result<Self> {
        Ok(ShardedOplog {
            ctx: ctx.clone(),
            prepared: Prepared::new(LEDGER_TEMPORAL_DSL, ctx.seed, THREADS)?,
            full_dir: ctx.dir.join("full"),
            full: None,
            timed_shard: None,
        })
    }

    fn shard_dir(&self, index: u64) -> PathBuf {
        self.ctx.dir.join(format!("shard-{index}-of-{SHARDS}"))
    }

    /// One run into `CsvSink` + `TemporalSink` under `dir`, which is empty.
    fn run(
        &self,
        tracer: &mut Tracer,
        name: &str,
        dir: &Path,
        shard: Option<u64>,
        threads: usize,
    ) -> Result<Generated> {
        let mut session = self
            .prepared
            .session()?
            .with_ops(true)
            .with_threads(threads);
        if let Some(index) = shard {
            session = session.shard(index, SHARDS)?;
        }
        let mut csv = CsvSink::new(dir);
        let log = BufWriter::new(File::create(dir.join(ops_file_name(OpsFormat::Csv)))?);
        let mut ops = TemporalSink::new(self.prepared.schema(), log, OpsFormat::Csv)?;
        generate(
            tracer,
            name,
            session,
            vec![
                SinkSlot {
                    label: "core.sink.csv",
                    sink: &mut csv,
                },
                SinkSlot {
                    label: "temporal",
                    sink: &mut ops,
                },
            ],
        )
    }
}

fn ops_of(run: &Generated) -> u64 {
    run.report.tables.get("$ops").map_or(0, |t| t.hi - t.lo)
}

impl Workload for ShardedOplog {
    fn rep(&mut self, tracer: &mut Tracer, _checks: &mut Checks) -> Result<Rep> {
        let shard_dir = self.shard_dir(TIMED_SHARD);
        fresh_dir(&self.full_dir)?;
        fresh_dir(&shard_dir)?;
        let mut rep = Rep::default();
        let root = tracer.enter("sharded_oplog", "bench");
        let full = self.run(tracer, "generate full", &self.full_dir, None, THREADS)?;
        let shard = self.run(
            tracer,
            "generate shard 1/4",
            &shard_dir,
            Some(TIMED_SHARD),
            THREADS,
        )?;
        let wall = tracer.exit(root);

        let out = &mut rep.metrics;
        let log_name = ops_file_name(OpsFormat::Csv);
        let log_bytes = std::fs::metadata(self.full_dir.join(log_name))?.len();
        let bytes = dir_bytes(&self.full_dir)?;
        let (full_s, shard_s) = (full.wall.as_secs_f64(), shard.wall.as_secs_f64());
        out.set("wall_s", wall.as_secs_f64());
        out.rate("rows_per_s", full.report.total_rows() as f64, full_s);
        out.rate("mb_per_s", bytes as f64 / MB, full_s);
        out.set("shard_wall_s", shard_s);
        out.set("core.runner.shard_wall_ms", shard_s * 1e3);
        out.rate("core.runner.shard_cost_ratio", shard_s, full_s);
        let mut totals = LayerTotals::default();
        totals.add(self.prepared.schema(), &full);
        totals.emit(out);
        emit_sinks(out, &full, |label| {
            if label == "temporal" {
                log_bytes
            } else {
                bytes - log_bytes
            }
        });
        out.set("temporal.ops", ops_of(&full) as f64);
        out.rate(
            "temporal.ops_per_s",
            ops_of(&full) as f64,
            out.get("temporal.sink.busy_ms") / 1e3,
        );

        rep.hash = full.report.content_hash();
        self.full = Some(full.report.into_manifest());
        self.timed_shard = Some(shard.report.into_manifest());
        Ok(rep)
    }

    /// The four shards, three of them generated here at the other thread
    /// count, concatenate to the full run's files byte for byte, and their
    /// manifests merge into the full run's.
    fn verify(&mut self, _hash: u64, checks: &mut Checks, _out: &mut Samples) -> Result<()> {
        let Some(full) = &self.full else {
            return Err("verify needs a repetition".into());
        };
        let mut tracer = Tracer::new();
        let mut manifests = Vec::new();
        for index in 0..SHARDS {
            if index == TIMED_SHARD {
                manifests.push(
                    self.timed_shard
                        .clone()
                        .ok_or("verify needs a repetition")?,
                );
                continue;
            }
            let dir = self.shard_dir(index);
            fresh_dir(&dir)?;
            let run = self.run(
                &mut tracer,
                "verify",
                &dir,
                Some(index),
                self.ctx.other_threads(THREADS),
            )?;
            manifests.push(run.report.into_manifest());
        }
        let merged = SinkManifest::merge(&manifests)?;
        checks.check(merged.tables == full.tables, || {
            "merged shard manifests differ from the full run's".to_owned()
        });

        let mut names: Vec<String> = full
            .tables
            .keys()
            .filter(|t| !t.starts_with('$'))
            .map(|t| format!("{t}.csv"))
            .collect();
        names.push(ops_file_name(OpsFormat::Csv).to_owned());
        for name in names {
            let mut joined = Vec::new();
            for index in 0..SHARDS {
                joined.extend(std::fs::read(self.shard_dir(index).join(&name))?);
            }
            let whole = std::fs::read(self.full_dir.join(&name))?;
            checks.check(joined == whole, || {
                format!("{name}: the {SHARDS} shards concatenated differ from the full run")
            });
        }
        Ok(())
    }

    fn kernels(&mut self, out: &mut Samples) -> Result<()> {
        let mut in_memory = kernels::InMemory::default();
        let (graph, _) = in_memory.get(&self.prepared, self.ctx.nproc)?;
        kernels::structure_kernels(self.prepared.schema(), graph, self.ctx.seed, out)?;
        kernels::null_sink_scaling(&self.prepared, self.ctx.nproc, out)
    }
}
