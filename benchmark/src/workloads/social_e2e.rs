//! `social_e2e`: the paper's whole path in one number, at one thread.

use std::path::PathBuf;

use datasynth::core::CsvSink;
use datasynth::lint::lint;
use datasynth::schema::parse_schema;

use super::generate::{emit_sinks, generate, LayerTotals, Prepared, SinkSlot};
use super::kernels::{self, InMemory};
use super::{
    dir_bytes, fresh_dir, query, Checks, Ctx, Rep, Result, Samples, Workload, MB, SOCIAL_DSL,
};
use crate::trace::Tracer;

const ROUNDS: usize = 200;
const THREADS: usize = 1;

pub struct SocialE2e {
    ctx: Ctx,
    out: PathBuf,
    /// The schema as set-up planned it, for the checks and kernels; every
    /// repetition parses and plans the text again.
    checked: Prepared,
    in_memory: InMemory,
}

impl SocialE2e {
    /// The timed region starts from the DSL text; set-up makes room and sees
    /// that the text parses and plans, so a broken schema fails before timing.
    pub fn setup(ctx: &Ctx) -> Result<Self> {
        let out = ctx.dir.join("export");
        fresh_dir(&out)?;
        Ok(SocialE2e {
            ctx: ctx.clone(),
            out,
            checked: Prepared::new(SOCIAL_DSL, ctx.seed, THREADS)?,
            in_memory: InMemory::default(),
        })
    }
}

impl Workload for SocialE2e {
    fn rep(&mut self, tracer: &mut Tracer, checks: &mut Checks) -> Result<Rep> {
        fresh_dir(&self.out)?;
        let mut rep = Rep::default();
        let seed = self.ctx.seed;
        let root = tracer.enter("social_e2e", "bench");

        let (schema, parse) = tracer.time("parse_schema", "schema", || parse_schema(SOCIAL_DSL));
        let schema = schema?;
        let (report, lint_time) = tracer.time("lint", "lint", || lint(&schema));
        let (prepared, plan) = tracer.time("plan", "core.plan", || {
            Prepared::from_schema(schema, seed, THREADS)
        });
        let prepared = prepared?;

        let mut csv = CsvSink::new(&self.out);
        let run = generate(
            tracer,
            "generate",
            prepared.session()?,
            vec![SinkSlot {
                label: "core.sink.csv",
                sink: &mut csv,
            }],
        )?;
        let (saved, _) = tracer.time("SinkManifest::save", "core.sink", || {
            run.report.save(&self.out)
        });
        saved?;

        let loaded = query::load(
            tracer,
            prepared.schema(),
            &self.out,
            checks,
            &mut rep.metrics,
        )?;
        let workload = query::curate_and_execute(
            tracer,
            prepared.schema(),
            &loaded.store,
            seed,
            ROUNDS,
            &mut rep,
        )?;
        let wall = tracer.exit(root);
        query::check_bands(&loaded, &workload, checks, &mut rep.metrics)?;

        let out = &mut rep.metrics;
        let bytes = dir_bytes(&self.out)?;
        let rows = run.report.total_rows();
        let gen_s = run.wall.as_secs_f64();
        out.set("wall_s", wall.as_secs_f64());
        out.rate("rows_per_s", rows as f64, gen_s);
        out.rate("mb_per_s", bytes as f64 / MB, gen_s);
        out.set("schema.parse_us", parse.as_secs_f64() * 1e6);
        out.rate(
            "schema.parse_mb_per_s",
            SOCIAL_DSL.len() as f64 / MB,
            parse.as_secs_f64(),
        );
        out.set("lint.run_us", lint_time.as_secs_f64() * 1e6);
        out.set("lint.diagnostics", report.diagnostics.len() as f64);
        out.set("core.plan.us", plan.as_secs_f64() * 1e6);
        out.set(
            "core.plan.tasks",
            prepared.planned.plan().tasks.len() as f64,
        );
        let mut totals = LayerTotals::default();
        totals.add(prepared.schema(), &run);
        totals.emit(out);
        emit_sinks(out, &run, |_| bytes);

        rep.hash = run.report.content_hash();
        Ok(rep)
    }

    fn verify(&mut self, hash: u64, checks: &mut Checks, out: &mut Samples) -> Result<()> {
        let other = self.ctx.other_threads(THREADS);
        let (graph, other_hash) = self.in_memory.get(&self.checked, other)?;
        checks.check(hash == *other_hash, || {
            format!("content hash {hash:x} at t={THREADS} but {other_hash:x} at t={other}")
        });
        kernels::match_quality(self.checked.schema(), graph, self.ctx.seed, checks, out)
    }

    fn kernels(&mut self, out: &mut Samples) -> Result<()> {
        let (graph, _) = self
            .in_memory
            .get(&self.checked, self.ctx.other_threads(THREADS))?;
        kernels::structure_kernels(self.checked.schema(), graph, self.ctx.seed, out)?;
        kernels::export_replay(graph, &self.ctx.dir.join("replay"), out)?;
        kernels::null_sink_scaling(&self.checked, self.ctx.nproc, out)
    }
}
