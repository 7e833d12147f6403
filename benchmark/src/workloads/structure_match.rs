//! `structure_match`: structure generators and SBM-Part into a null sink.

use super::generate::{generate, LayerTotals, Prepared, SinkSlot};
use super::kernels::{self, InMemory};
use super::{Checks, Ctx, Rep, Result, Samples, Workload, LEDGER_DSL, MB};
use crate::sinks::NullSink;
use crate::trace::Tracer;

const THREADS: usize = 2;

pub struct StructureMatch {
    ctx: Ctx,
    prepared: Prepared,
    in_memory: InMemory,
}

impl StructureMatch {
    pub fn setup(ctx: &Ctx) -> Result<Self> {
        Ok(StructureMatch {
            ctx: ctx.clone(),
            prepared: Prepared::new(LEDGER_DSL, ctx.seed, ctx.threads(THREADS))?,
            in_memory: InMemory::default(),
        })
    }

    fn other_threads(&self) -> usize {
        self.ctx.other_threads(self.ctx.threads(THREADS))
    }
}

impl Workload for StructureMatch {
    fn rep(&mut self, tracer: &mut Tracer, checks: &mut Checks) -> Result<Rep> {
        let mut rep = Rep::default();
        let root = tracer.enter("structure_match", "bench");
        let mut sink = NullSink::default();
        let run = generate(
            tracer,
            "generate",
            self.prepared.session()?,
            vec![SinkSlot {
                label: "bench",
                sink: &mut sink,
            }],
        )?;
        let wall = tracer.exit(root);

        let rows = run.report.total_rows();
        checks.check(sink.rows == rows, || {
            format!("null sink saw {} rows, manifest says {rows}", sink.rows)
        });
        let out = &mut rep.metrics;
        out.set("wall_s", wall.as_secs_f64());
        out.rate("rows_per_s", rows as f64, run.wall.as_secs_f64());
        out.rate("mb_per_s", sink.bytes as f64 / MB, run.wall.as_secs_f64());
        let mut totals = LayerTotals::default();
        totals.add(self.prepared.schema(), &run);
        totals.emit(out);

        rep.hash = run.report.content_hash();
        Ok(rep)
    }

    fn verify(&mut self, hash: u64, checks: &mut Checks, out: &mut Samples) -> Result<()> {
        let other = self.other_threads();
        let (graph, other_hash) = self.in_memory.get(&self.prepared, other)?;
        checks.check(hash == *other_hash, || {
            format!(
                "content hash {hash:x} at the workload's threads but {other_hash:x} at t={other}"
            )
        });
        kernels::match_quality(self.prepared.schema(), graph, self.ctx.seed, checks, out)
    }

    fn kernels(&mut self, out: &mut Samples) -> Result<()> {
        let other = self.other_threads();
        let (graph, _) = self.in_memory.get(&self.prepared, other)?;
        kernels::structure_kernels(self.prepared.schema(), graph, self.ctx.seed, out)?;
        kernels::null_sink_scaling(&self.prepared, self.ctx.nproc, out)
    }
}
