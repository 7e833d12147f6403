//! The run report: everything one [`Session::run_into`](crate::Session::run_into)
//! learned about itself, in one deterministic structure.
//!
//! A [`RunReport`] wraps the run's completed [`SinkManifest`] (it derefs
//! to it, so manifest-only callers keep working) and adds the telemetry
//! the scheduler and sinks collected: per-task phase timings, per-table
//! byte counts, thread/shard configuration and a schema fingerprint.
//!
//! Determinism contract: every row, byte, hash and configuration field is
//! a pure function of `(schema, seed, shard)` — identical across thread
//! counts and across runs. Timing-class fields (durations, occupancy,
//! reorder depth, rows/sec) are measurements and carry no such guarantee;
//! [`to_json_stable`](RunReport::to_json_stable) renders the report with
//! them omitted, and *that* byte stream is what the test suite pins
//! across thread counts 1/2/7.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::ops::Deref;
use std::time::Duration;

use datasynth_telemetry::json::escape as json_escape;
use datasynth_telemetry::{prometheus, Snapshot};

use crate::sink::SinkManifest;

/// Telemetry for one plan slot: what the task was, how many rows it
/// produced, and where its wall time went.
#[derive(Debug, Clone)]
pub struct TaskReport {
    /// The task, rendered (e.g. `generate property Person.country`).
    pub task: String,
    /// Task kind: `count`, `node_property`, `structure`, `match` or
    /// `edge_property`.
    pub kind: &'static str,
    /// Rows the task produced — window-sized in a sharded run for
    /// windowed tasks, full-sized for recomputed ones. Deterministic.
    pub rows: u64,
    /// Time spent in the ready set — from the moment the task's last
    /// dependency committed to the moment a worker picked it up (with one
    /// worker, that is the time earlier tasks in plan order took).
    pub queue_wait: Duration,
    /// Coordinator time collecting the task's inputs.
    pub gather: Duration,
    /// Worker time running the task body — what progress observers
    /// receive as `TaskProgress::elapsed`.
    pub execute: Duration,
    /// Coordinator time storing the output and delivering the slot's
    /// scheduled artifacts to the sink.
    pub commit: Duration,
}

impl TaskReport {
    /// Total working time: gather + execute + commit (queue wait is
    /// idleness, not work).
    pub fn elapsed(&self) -> Duration {
        self.gather + self.execute + self.commit
    }
}

/// The structured result of one pipeline run.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// The completed sink manifest: per-table row windows and content
    /// hashes. [`RunReport`] derefs here.
    pub manifest: SinkManifest,
    /// FNV-1a fingerprint of the schema's canonical DSL rendering: two
    /// runs with equal hashes generated the same schema.
    pub schema_hash: u64,
    /// The session's configured thread budget.
    pub threads: usize,
    /// Scheduler workers actually used (`min(threads, plan length)`).
    pub workers: usize,
    /// Per-task telemetry, in plan order.
    pub tasks: Vec<TaskReport>,
    /// Bytes written per table, summed over every metered sink attached
    /// to the run (empty when no metrics registry was attached).
    pub sink_bytes: BTreeMap<String, u64>,
    /// Wall-clock duration of the whole run.
    pub wall: Duration,
    /// Total execute time across all workers (the numerator of
    /// [`worker_occupancy`](Self::worker_occupancy)).
    pub busy: Duration,
    /// High-water mark of the reorder buffer: the most completed tasks
    /// held back at once behind an earlier slot that was still running
    /// (always 0 with one worker, which completes slots in plan order).
    pub max_reorder_depth: u64,
    /// Snapshot of the attached metrics registry, if any — scheduler and
    /// sink series beyond what the typed fields above carry.
    pub metrics: Option<Snapshot>,
}

impl Deref for RunReport {
    type Target = SinkManifest;

    fn deref(&self) -> &SinkManifest {
        &self.manifest
    }
}

impl RunReport {
    /// Take just the manifest (for persistence and
    /// [`SinkManifest::merge`]).
    pub fn into_manifest(self) -> SinkManifest {
        self.manifest
    }

    /// Total rows this run emitted across all tables (window-sized under
    /// sharding).
    pub fn total_rows(&self) -> u64 {
        self.manifest.tables.values().map(|t| t.hi - t.lo).sum()
    }

    /// Total bytes written across all tables and metered sinks.
    pub fn total_bytes(&self) -> u64 {
        self.sink_bytes.values().sum()
    }

    /// Fraction of the run's `workers x wall` budget spent executing
    /// tasks: 1.0 means every worker was busy the whole run.
    pub fn worker_occupancy(&self) -> f64 {
        let budget = self.wall.as_secs_f64() * self.workers as f64;
        if budget <= 0.0 {
            return 0.0;
        }
        (self.busy.as_secs_f64() / budget).min(1.0)
    }

    /// The full report as JSON, timings included. Row/byte/hash/config
    /// fields are deterministic; timing fields are measurements.
    pub fn to_json(&self) -> String {
        self.render_json(true)
    }

    /// The deterministic subset as JSON: identical bytes for identical
    /// `(schema, seed, shard)` at any thread count — every timing-class
    /// field omitted.
    pub fn to_json_stable(&self) -> String {
        self.render_json(false)
    }

    fn table_kind(&self, table: &str) -> &'static str {
        if table.starts_with('$') {
            // Sink-contributed tables ("$ops") — no DSL identifier can
            // start with '$', so the prefix is unambiguous.
            "ops"
        } else if self.manifest.nodes.iter().any(|n| n.name == table) {
            "node"
        } else {
            "edge"
        }
    }

    fn render_json(&self, timings: bool) -> String {
        let m = &self.manifest;
        let mut out = String::new();
        out.push_str("{\n");
        let _ = writeln!(out, "  \"graph\": \"{}\",", json_escape(&m.graph_name));
        let _ = writeln!(out, "  \"seed\": \"{:016x}\",", m.seed);
        let _ = writeln!(out, "  \"schema_hash\": \"{:016x}\",", self.schema_hash);
        let _ = writeln!(
            out,
            "  \"shard\": {{\"index\": {}, \"count\": {}}},",
            m.shard.index, m.shard.count
        );
        if timings {
            let _ = writeln!(out, "  \"threads\": {},", self.threads);
            let _ = writeln!(out, "  \"workers\": {},", self.workers);
        }
        out.push_str("  \"tasks\": [\n");
        for (i, t) in self.tasks.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"task\": \"{}\", \"kind\": \"{}\", \"rows\": {}",
                json_escape(&t.task),
                t.kind,
                t.rows
            );
            if timings {
                let _ = write!(
                    out,
                    ", \"queue_wait_us\": {}, \"gather_us\": {}, \"execute_us\": {}, \
                     \"commit_us\": {}, \"elapsed_us\": {}",
                    t.queue_wait.as_micros(),
                    t.gather.as_micros(),
                    t.execute.as_micros(),
                    t.commit.as_micros(),
                    t.elapsed().as_micros()
                );
            }
            out.push('}');
            out.push_str(if i + 1 < self.tasks.len() {
                ",\n"
            } else {
                "\n"
            });
        }
        out.push_str("  ],\n");
        out.push_str("  \"tables\": [\n");
        let wall_secs = self.wall.as_secs_f64();
        for (i, (name, rows)) in m.tables.iter().enumerate() {
            let emitted = rows.hi - rows.lo;
            let _ = write!(
                out,
                "    {{\"table\": \"{}\", \"kind\": \"{}\", \"lo\": {}, \"hi\": {}, \
                 \"total\": {}, \"rows\": {}, \"content_hash\": \"{:016x}\", \"bytes\": {}",
                json_escape(name),
                self.table_kind(name),
                rows.lo,
                rows.hi,
                rows.total,
                emitted,
                rows.content_hash,
                self.sink_bytes.get(name).copied().unwrap_or(0)
            );
            if timings && wall_secs > 0.0 {
                let _ = write!(out, ", \"rows_per_sec\": {:.1}", emitted as f64 / wall_secs);
            }
            out.push('}');
            out.push_str(if i + 1 < m.tables.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ],\n");
        let _ = write!(
            out,
            "  \"totals\": {{\"rows\": {}, \"bytes\": {}, \"content_hash\": \"{:016x}\"",
            self.total_rows(),
            self.total_bytes(),
            m.content_hash()
        );
        if timings {
            let _ = write!(
                out,
                ", \"wall_us\": {}, \"busy_us\": {}, \"worker_occupancy\": {:.4}, \
                 \"max_reorder_depth\": {}",
                self.wall.as_micros(),
                self.busy.as_micros(),
                self.worker_occupancy(),
                self.max_reorder_depth
            );
        }
        out.push_str("}\n}\n");
        out
    }

    /// Render the report in the Prometheus text exposition format:
    /// run-level gauges, per-table row/byte counters, per-task phase
    /// timings — followed by every series of the attached metrics
    /// registry, if one was attached. Ready for a scrape endpoint.
    pub fn to_prometheus(&self) -> String {
        let m = &self.manifest;
        let mut out = String::new();
        let shard = format!("{}", m.shard);
        out.push_str("# TYPE datasynth_run_info gauge\n");
        prometheus::write_sample(
            &mut out,
            "datasynth_run_info",
            &[
                ("graph", m.graph_name.clone()),
                ("seed", format!("{:016x}", m.seed)),
                ("schema_hash", format!("{:016x}", self.schema_hash)),
                ("shard", shard),
            ],
            1,
        );
        out.push_str("# TYPE datasynth_threads gauge\n");
        prometheus::write_sample(&mut out, "datasynth_threads", &[], self.threads as u64);
        out.push_str("# TYPE datasynth_wall_microseconds gauge\n");
        prometheus::write_sample(
            &mut out,
            "datasynth_wall_microseconds",
            &[],
            self.wall.as_micros() as u64,
        );
        // The runner sets these two on an attached registry, so its
        // snapshot (appended below) already carries them: a series written
        // twice is an exposition no Prometheus parser accepts.
        if self.metrics.is_none() {
            out.push_str("# TYPE datasynth_workers gauge\n");
            prometheus::write_sample(&mut out, "datasynth_workers", &[], self.workers as u64);
            out.push_str("# TYPE datasynth_reorder_depth_max gauge\n");
            let depth = self.max_reorder_depth;
            prometheus::write_sample(&mut out, "datasynth_reorder_depth_max", &[], depth);
        }
        out.push_str("# TYPE datasynth_table_rows_total counter\n");
        for (name, rows) in &m.tables {
            prometheus::write_sample(
                &mut out,
                "datasynth_table_rows_total",
                &[
                    ("table", name.clone()),
                    ("kind", self.table_kind(name).to_owned()),
                ],
                rows.hi - rows.lo,
            );
        }
        if !self.sink_bytes.is_empty() {
            out.push_str("# TYPE datasynth_table_bytes_total counter\n");
            for (name, bytes) in &self.sink_bytes {
                prometheus::write_sample(
                    &mut out,
                    "datasynth_table_bytes_total",
                    &[("table", name.clone())],
                    *bytes,
                );
            }
        }
        out.push_str("# TYPE datasynth_task_execute_microseconds gauge\n");
        for t in &self.tasks {
            prometheus::write_sample(
                &mut out,
                "datasynth_task_execute_microseconds",
                &[("task", t.task.clone()), ("kind", t.kind.to_owned())],
                t.execute.as_micros() as u64,
            );
        }
        if let Some(metrics) = &self.metrics {
            out.push_str(&metrics.to_prometheus());
        }
        out
    }
}
