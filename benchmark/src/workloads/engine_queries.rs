//! `engine_queries`: the reader, the store and the executor over an export
//! made in set-up.

use std::path::PathBuf;

use datasynth::core::CsvSink;

use super::generate::Prepared;
use super::{fresh_dir, query, Checks, Ctx, Rep, Result, Samples, Workload, MB, SOCIAL_DSL};
use crate::trace::Tracer;

const ROUNDS: usize = 400;

pub struct EngineQueries {
    ctx: Ctx,
    prepared: Prepared,
    export: PathBuf,
    export_rows: u64,
}

impl EngineQueries {
    /// Generate the `social_e2e` graph to CSV. At one thread, so that the
    /// whole process stays single-threaded: worker threads would leave the
    /// allocator in one of two states and `peak_rss_mb` in one of two modes.
    pub fn setup(ctx: &Ctx) -> Result<Self> {
        let export = ctx.dir.join("export");
        fresh_dir(&export)?;
        let prepared = Prepared::new(SOCIAL_DSL, ctx.seed, 1)?;
        let mut csv = CsvSink::new(&export);
        let report = prepared.session()?.run_into(&mut csv)?;
        report.save(&export)?;
        let export_rows = report.total_rows();
        Ok(EngineQueries {
            ctx: ctx.clone(),
            prepared,
            export,
            export_rows,
        })
    }
}

impl Workload for EngineQueries {
    fn rep(&mut self, tracer: &mut Tracer, checks: &mut Checks) -> Result<Rep> {
        let mut rep = Rep::default();
        let schema = self.prepared.schema();
        let root = tracer.enter("engine_queries", "bench");
        let loaded = query::load(tracer, schema, &self.export, checks, &mut rep.metrics)?;
        let workload = query::curate_and_execute(
            tracer,
            schema,
            &loaded.store,
            self.ctx.seed,
            ROUNDS,
            &mut rep,
        )?;
        let wall = tracer.exit(root);
        query::check_bands(&loaded, &workload, checks, &mut rep.metrics)?;

        checks.check(loaded.rows == self.export_rows, || {
            format!(
                "loaded {} rows, the export wrote {}",
                loaded.rows, self.export_rows
            )
        });
        let out = &mut rep.metrics;
        out.set("wall_s", wall.as_secs_f64());
        out.rate("rows_per_s", loaded.rows as f64, loaded.load.as_secs_f64());
        out.rate(
            "mb_per_s",
            loaded.bytes as f64 / MB,
            loaded.read.as_secs_f64(),
        );
        rep.hash = loaded.hash;
        Ok(rep)
    }

    fn verify(&mut self, _hash: u64, _checks: &mut Checks, _out: &mut Samples) -> Result<()> {
        Ok(())
    }

    fn kernels(&mut self, _out: &mut Samples) -> Result<()> {
        Ok(())
    }
}
