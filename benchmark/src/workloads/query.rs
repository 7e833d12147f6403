//! The engine half of the loop: read an export back, build the store,
//! curate the uniform query mix and execute it in rounds.
//!
//! Queries are timed per template batch, one `Instant` pair per batch per
//! round, at nanosecond resolution. `engine::Bench::run` times each query
//! in whole microseconds, which reads 0 for the sub-microsecond templates.

use std::hint::black_box;
use std::path::Path;
use std::time::Duration;

use datasynth::engine::{read_graph_dir, Executor, GraphStore};
use datasynth::schema::Schema;
use datasynth::workload::{Workload as QueryWorkload, WorkloadGenerator};

use super::{dir_bytes, Checks, Rep, Result, Samples, MB};
use crate::trace::Tracer;

pub const QUERIES: usize = 2048;

pub struct Loaded {
    pub store: GraphStore,
    pub load: Duration,
    pub read: Duration,
    pub rows: u64,
    pub bytes: u64,
    /// Content hash of the manifest the export was read with.
    pub hash: u64,
}

/// `read_graph_dir` + `GraphStore::build`, with the reader's row counts
/// checked against the manifest it loaded.
pub fn load(
    tracer: &mut Tracer,
    schema: &Schema,
    dir: &Path,
    checks: &mut Checks,
    out: &mut Samples,
) -> Result<Loaded> {
    let bytes = dir_bytes(dir)?;
    let timer = tracer.enter("read_graph_dir", "engine.reader");
    let (graph, manifest) = read_graph_dir(dir)?;
    let rows = graph.total_nodes() + graph.total_edges();
    let read = tracer.exit_counted(timer, rows, bytes);

    for (table, window) in manifest.tables.iter().filter(|(t, _)| !t.starts_with('$')) {
        let loaded = graph
            .node_count(table)
            .or_else(|| graph.edges(table).map(|e| e.len()));
        checks.check(loaded == Some(window.total), || {
            format!(
                "read_graph_dir: {table} has {loaded:?} rows, manifest says {}",
                window.total
            )
        });
    }

    let timer = tracer.enter("GraphStore::build", "engine.store");
    let hash = manifest.content_hash();
    let store = GraphStore::build(schema, manifest.seed, graph)?;
    let build = tracer.exit_counted(timer, rows, 0);

    out.set("engine.reader.ms", read.as_secs_f64() * 1e3);
    out.rate(
        "engine.reader.mb_per_s",
        bytes as f64 / MB,
        read.as_secs_f64(),
    );
    out.rate("engine.reader.rows_per_s", rows as f64, read.as_secs_f64());
    out.set("engine.store.build_ms", build.as_secs_f64() * 1e3);
    out.rate(
        "engine.store.elements_per_s",
        rows as f64,
        build.as_secs_f64(),
    );
    out.set("load_s", (read + build).as_secs_f64());
    Ok(Loaded {
        store,
        load: read + build,
        read,
        rows,
        bytes,
        hash,
    })
}

/// Queries of one template, contiguous in the workload.
struct Batch {
    template: String,
    kind: &'static str,
    first: usize,
    end: usize,
    nanos: u128,
    rows: u64,
}

fn batches(workload: &QueryWorkload) -> Vec<Batch> {
    let mut out: Vec<Batch> = Vec::new();
    for (i, q) in workload.queries.iter().enumerate() {
        match out.last_mut() {
            Some(b) if b.template == q.template_id() => b.end = i + 1,
            _ => out.push(Batch {
                template: q.template_id().to_owned(),
                kind: q.plan.kind.keyword(),
                first: i,
                end: i + 1,
                nanos: 0,
                rows: 0,
            }),
        }
    }
    out
}

/// Curate [`QUERIES`] queries over `store` and execute them for `rounds`
/// rounds.
pub fn curate_and_execute(
    tracer: &mut Tracer,
    schema: &Schema,
    store: &GraphStore,
    seed: u64,
    rounds: usize,
    rep: &mut Rep,
) -> Result<QueryWorkload> {
    let out = &mut rep.metrics;
    let timer = tracer.enter("WorkloadGenerator::generate", "workload");
    let workload = WorkloadGenerator::new(schema, store.graph())
        .with_seed(seed)
        .generate(QUERIES)?;
    let curate = tracer.exit_counted(timer, workload.queries.len() as u64, 0);
    out.set("workload.curate_ms", curate.as_secs_f64() * 1e3);
    out.set("workload.queries", workload.queries.len() as f64);
    out.set("workload.templates", workload.templates.len() as f64);

    let exec = Executor::new(store);
    let mut batches = batches(&workload);
    for _ in 0..rounds {
        let round = tracer.enter("round", "engine.exec");
        for b in &mut batches {
            let timer = tracer.enter(&b.template, "engine.exec");
            let mut rows = 0;
            for q in &workload.queries[b.first..b.end] {
                rows += exec.execute(black_box(&q.plan))?.rows;
            }
            b.rows += black_box(rows);
            b.nanos += tracer.exit_counted(timer, rows, 0).as_nanos();
        }
        rep.rounds_us.push(tracer.exit(round).as_secs_f64() * 1e6);
    }

    let executions = |b: &Batch| ((b.end - b.first) * rounds) as f64;
    let total_ns: f64 = batches.iter().map(|b| b.nanos as f64).sum();
    let total_ops: f64 = batches.iter().map(executions).sum();
    out.rate("query_ops_per_s", total_ops, total_ns / 1e9);
    out.rate("engine.exec.ops_per_s", total_ops, total_ns / 1e9);
    out.rate(
        "engine.exec.rows_per_op",
        batches.iter().map(|b| b.rows as f64).sum(),
        total_ops,
    );
    for kind in crate::catalog::QUERY_KINDS {
        let of_kind = || batches.iter().filter(|b| b.kind == kind);
        out.rate(
            &format!("engine.exec.{kind}.ns_per_op"),
            of_kind().map(|b| b.nanos as f64).sum(),
            of_kind().map(executions).sum(),
        );
    }
    Ok(workload)
}

/// Untimed: every curated query's row count lies inside its band; and the
/// store's footprint, which takes a walk over it to add up.
pub fn check_bands(
    loaded: &Loaded,
    workload: &QueryWorkload,
    checks: &mut Checks,
    out: &mut Samples,
) -> Result<()> {
    out.rate(
        "engine.store.bytes_per_element",
        loaded.store.memory_bytes() as f64,
        loaded.rows as f64,
    );
    let exec = Executor::new(&loaded.store);
    let mut out_of_band = 0;
    for q in &workload.queries {
        let rows = exec.execute(&q.plan)?.rows;
        let (lo, hi) = q.binding().band;
        let inside = lo <= rows && rows <= hi;
        out_of_band += u64::from(!inside);
        checks.check(inside, || {
            format!(
                "query {} ({}): {rows} rows outside [{lo}, {hi}]",
                q.id,
                q.template_id()
            )
        });
    }
    out.set("engine.exec.out_of_band", out_of_band as f64);
    Ok(())
}
