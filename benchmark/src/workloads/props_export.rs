//! `props_export`: property generation and the row writers, nothing else.

use std::path::PathBuf;

use datasynth::core::{CsvSink, JsonlSink};

use super::generate::{emit_sinks, generate, LayerTotals, Prepared, SinkSlot};
use super::kernels::{self, InMemory};
use super::{dir_bytes, fresh_dir, Checks, Ctx, Rep, Result, Samples, Workload, MB, WIDE_DSL};
use crate::sinks::NullSink;
use crate::trace::Tracer;

const THREADS: usize = 2;

pub struct PropsExport {
    ctx: Ctx,
    prepared: Prepared,
    csv_dir: PathBuf,
    jsonl_dir: PathBuf,
}

impl PropsExport {
    pub fn setup(ctx: &Ctx) -> Result<Self> {
        let (csv_dir, jsonl_dir) = (ctx.dir.join("csv"), ctx.dir.join("jsonl"));
        fresh_dir(&csv_dir)?;
        fresh_dir(&jsonl_dir)?;
        Ok(PropsExport {
            ctx: ctx.clone(),
            prepared: Prepared::new(WIDE_DSL, ctx.seed, ctx.threads(THREADS))?,
            csv_dir,
            jsonl_dir,
        })
    }
}

impl Workload for PropsExport {
    fn rep(&mut self, tracer: &mut Tracer, checks: &mut Checks) -> Result<Rep> {
        fresh_dir(&self.csv_dir)?;
        fresh_dir(&self.jsonl_dir)?;
        let mut rep = Rep::default();
        let root = tracer.enter("props_export", "bench");
        let mut csv = CsvSink::new(&self.csv_dir);
        let csv_run = generate(
            tracer,
            "generate csv",
            self.prepared.session()?,
            vec![SinkSlot {
                label: "core.sink.csv",
                sink: &mut csv,
            }],
        )?;
        let mut jsonl = JsonlSink::new(&self.jsonl_dir);
        let jsonl_run = generate(
            tracer,
            "generate jsonl",
            self.prepared.session()?,
            vec![SinkSlot {
                label: "core.sink.jsonl",
                sink: &mut jsonl,
            }],
        )?;
        let wall = tracer.exit(root);

        let out = &mut rep.metrics;
        let (csv_bytes, jsonl_bytes) = (dir_bytes(&self.csv_dir)?, dir_bytes(&self.jsonl_dir)?);
        let gen_s = (csv_run.wall + jsonl_run.wall).as_secs_f64();
        let rows = csv_run.report.total_rows() + jsonl_run.report.total_rows();
        out.set("wall_s", wall.as_secs_f64());
        out.rate("rows_per_s", rows as f64, gen_s);
        out.rate("mb_per_s", (csv_bytes + jsonl_bytes) as f64 / MB, gen_s);
        let mut totals = LayerTotals::default();
        totals.add(self.prepared.schema(), &csv_run);
        totals.add(self.prepared.schema(), &jsonl_run);
        totals.emit(out);
        emit_sinks(out, &csv_run, |_| csv_bytes);
        emit_sinks(out, &jsonl_run, |_| jsonl_bytes);

        rep.hash = csv_run.report.content_hash();
        let jsonl_hash = jsonl_run.report.content_hash();
        checks.check(rep.hash == jsonl_hash, || {
            format!(
                "content hash {:x} into CSV but {jsonl_hash:x} into JSONL",
                rep.hash
            )
        });
        Ok(rep)
    }

    fn verify(&mut self, hash: u64, checks: &mut Checks, _out: &mut Samples) -> Result<()> {
        let other = self.ctx.other_threads(self.ctx.threads(THREADS));
        let mut sink = NullSink::default();
        let session = self.prepared.session()?.with_threads(other);
        let other_hash = session.run_into(&mut sink)?.content_hash();
        checks.check(hash == other_hash, || {
            format!(
                "content hash {hash:x} at the workload's threads but {other_hash:x} at t={other}"
            )
        });
        Ok(())
    }

    fn kernels(&mut self, out: &mut Samples) -> Result<()> {
        let mut in_memory = InMemory::default();
        let (graph, _) = in_memory.get(&self.prepared, self.ctx.nproc)?;
        kernels::export_replay(graph, &self.ctx.dir.join("replay"), out)?;
        kernels::null_sink_scaling(&self.prepared, self.ctx.nproc, out)
    }
}
