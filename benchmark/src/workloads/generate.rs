//! One generation run, seen from outside: the call into
//! `Session::run_into`, the sink callbacks under it (traced passes only),
//! and the `RunReport` it returns, read as returned.

use std::time::Duration;

use datasynth::core::{DataSynth, GraphSink, MultiSink, PlannedSchema, RunReport, Session};
use datasynth::schema::{parse_schema, Schema};

use super::{Result, Samples};
use crate::sinks::TimedSink;
use crate::trace::Tracer;

/// A parsed, validated and planned schema: what generation-only workloads
/// prepare in set-up.
pub struct Prepared {
    pub synth: DataSynth,
    pub planned: PlannedSchema,
}

impl Prepared {
    pub fn new(dsl: &str, seed: u64, threads: usize) -> Result<Self> {
        Self::from_schema(parse_schema(dsl)?, seed, threads)
    }

    pub fn from_schema(schema: Schema, seed: u64, threads: usize) -> Result<Self> {
        let synth = DataSynth::new(schema)?
            .with_seed(seed)
            .with_threads(threads);
        let planned = synth.planned()?;
        Ok(Prepared { synth, planned })
    }

    pub fn session(&self) -> Result<Session<'_>> {
        Ok(self.synth.session_from(&self.planned)?)
    }

    pub fn schema(&self) -> &Schema {
        self.synth.schema()
    }
}

/// A sink handed to [`generate`], with the layer its callbacks belong to:
/// `core.sink.csv`, `core.sink.jsonl`, `temporal`, or `bench` for the
/// benchmark's own null sink.
pub struct SinkSlot<'a> {
    pub label: &'static str,
    pub sink: &'a mut dyn GraphSink,
}

/// Time one sink spent in its callbacks (traced passes only).
pub struct SinkTiming {
    pub label: &'static str,
    pub busy: Duration,
    pub finish: Duration,
    pub calls: usize,
}

pub struct Generated {
    pub report: RunReport,
    pub wall: Duration,
    /// Empty when the pass is untraced: the sinks then run unwrapped.
    pub sinks: Vec<SinkTiming>,
}

fn span_layer(label: &'static str) -> &'static str {
    if label.starts_with("core.sink") {
        "core.sink"
    } else {
        label
    }
}

/// Run `session` into `sinks`, as the span `name`. A recording tracer gets
/// every sink wrapped in a `TimedSink`, the callbacks as child spans, and
/// the span's self time apportioned over the task kinds of the report.
pub fn generate(
    tracer: &mut Tracer,
    name: &str,
    session: Session<'_>,
    sinks: Vec<SinkSlot<'_>>,
) -> Result<Generated> {
    let timer = tracer.enter(name, "core.runner");
    let span = timer.span();
    if !tracer.recording() {
        // Raw sinks; a `MultiSink` only where the workload has several.
        let mut sinks = sinks;
        let report = if sinks.len() == 1 {
            session.run_into(sinks.remove(0).sink)?
        } else {
            let mut multi = MultiSink::new();
            for slot in sinks {
                multi.push(slot.sink);
            }
            session.run_into(&mut multi)?
        };
        let wall = tracer.exit(timer);
        return Ok(Generated {
            report,
            wall,
            sinks: Vec::new(),
        });
    }

    let mut timed: Vec<(&'static str, TimedSink<'_>)> = sinks
        .into_iter()
        .map(|s| (s.label, TimedSink::new(s.sink)))
        .collect();
    let report = {
        let mut multi = MultiSink::new();
        for (_, sink) in timed.iter_mut() {
            multi.push(sink);
        }
        session.run_into(&mut multi)?
    };
    let mut timings = Vec::new();
    for (label, sink) in &timed {
        tracer.adopt(span_layer(label), &sink.calls);
        timings.push(SinkTiming {
            label,
            busy: sink.busy(),
            finish: sink
                .calls
                .iter()
                .filter(|c| c.callback == "finish")
                .map(|c| c.elapsed)
                .sum(),
            calls: sink.calls.len(),
        });
    }
    let rows = report.total_rows();
    let wall = tracer.exit_counted(timer, rows, 0);

    // No span exists inside the runner yet, so its self time is apportioned
    // by the report's execute times: each task kind gets its share of
    // `busy`, scaled down when the workers together were busy for longer
    // than the wall they had. What is left stays with core.runner.
    let sink_busy: Duration = timings.iter().map(|t| t.busy).sum();
    let own = wall.saturating_sub(sink_busy).as_secs_f64();
    let busy = kind_busy(&report);
    let total: f64 = busy.iter().map(|(_, b, _)| b).sum();
    if own > 0.0 && total > 0.0 {
        let scale = (own / total).min(1.0);
        tracer.split_self(
            span,
            busy.iter()
                .map(|(layer, b, _)| (*layer, b * scale / own))
                .collect(),
        );
    }
    Ok(Generated {
        report,
        wall,
        sinks: timings,
    })
}

fn layer_of_kind(kind: &str) -> Option<&'static str> {
    match kind {
        "structure" => Some("structure"),
        "match" => Some("matching"),
        "node_property" | "edge_property" => Some("props"),
        _ => None,
    }
}

/// Execute seconds and rows per layer (`structure`, `matching`, `props`).
fn kind_busy(report: &RunReport) -> Vec<(&'static str, f64, u64)> {
    let mut out = Vec::new();
    for task in &report.tasks {
        if let Some(layer) = layer_of_kind(task.kind) {
            bump(&mut out, layer, task.execute.as_secs_f64(), task.rows);
        }
    }
    out
}

/// The family a property generator's throughput is reported under.
fn generator_family(generator: &str) -> &'static str {
    match generator {
        "dictionary" | "categorical" => "dictionary",
        "first_names" => "first_names",
        "sentence_about" | "sentence" => "sentence_about",
        "date_between" | "date_after" => "date",
        _ => "numeric",
    }
}

/// `Type.property -> generator name` for every property of the schema.
fn generators_of(schema: &Schema) -> Vec<(String, &str)> {
    let nodes = schema.nodes.iter().map(|n| (&n.name, &n.properties));
    let edges = schema.edges.iter().map(|e| (&e.name, &e.properties));
    nodes
        .chain(edges)
        .flat_map(|(owner, props)| {
            props
                .iter()
                .map(move |p| (format!("{owner}.{}", p.name), p.generator.name.as_str()))
        })
        .collect()
}

const MS: f64 = 1e3;

/// Accumulated per-layer numbers of the generation runs of one repetition.
#[derive(Default)]
pub struct LayerTotals {
    wall: f64,
    busy: f64,
    queue_wait: f64,
    gather: f64,
    commit: f64,
    worker_seconds: f64,
    max_reorder_depth: u64,
    sink_busy: f64,
    traced: bool,
    /// (layer, execute seconds, rows)
    kinds: Vec<(&'static str, f64, u64)>,
    /// (family, execute seconds, values)
    families: Vec<(&'static str, f64, u64)>,
}

impl LayerTotals {
    /// Add one run.
    pub fn add(&mut self, schema: &Schema, run: &Generated) {
        let report = &run.report;
        self.wall += run.wall.as_secs_f64();
        self.busy += report.busy.as_secs_f64();
        self.worker_seconds += run.wall.as_secs_f64() * report.workers as f64;
        self.max_reorder_depth = self.max_reorder_depth.max(report.max_reorder_depth);
        self.traced |= !run.sinks.is_empty();
        self.sink_busy += run.sinks.iter().map(|s| s.busy.as_secs_f64()).sum::<f64>();
        let generators = generators_of(schema);
        for task in &report.tasks {
            self.queue_wait += task.queue_wait.as_secs_f64();
            self.gather += task.gather.as_secs_f64();
            self.commit += task.commit.as_secs_f64();
            let Some(layer) = layer_of_kind(task.kind) else {
                continue;
            };
            let execute = task.execute.as_secs_f64();
            bump(&mut self.kinds, layer, execute, task.rows);
            if layer == "props" {
                // Tasks render as `property(Type.name)`.
                let key = task
                    .task
                    .trim_start_matches("property(")
                    .trim_end_matches(')');
                if let Some((_, generator)) = generators.iter().find(|(k, _)| k == key) {
                    bump(
                        &mut self.families,
                        generator_family(generator),
                        execute,
                        task.rows,
                    );
                }
            }
        }
    }

    pub fn emit(&self, out: &mut Samples) {
        out.set("core.runner.wall_ms", self.wall * MS);
        out.set("core.runner.busy_ms", self.busy * MS);
        out.set("core.runner.queue_wait_ms", self.queue_wait * MS);
        out.set("core.runner.gather_ms", self.gather * MS);
        out.set("core.runner.commit_ms", self.commit * MS);
        out.rate(
            "core.runner.worker_occupancy",
            self.busy,
            self.worker_seconds,
        );
        out.set(
            "core.runner.max_reorder_depth",
            self.max_reorder_depth as f64,
        );
        if self.traced && self.wall > 0.0 {
            // Scheduling, gathering, non-sink commit work and idle workers:
            // the run's wall minus its sinks minus busy / workers.
            let workers = self.worker_seconds / self.wall;
            out.set(
                "core.runner.self_ms",
                (self.wall - self.sink_busy - self.busy / workers).max(0.0) * MS,
            );
        }
        for (layer, execute, rows) in &self.kinds {
            out.set(&format!("{layer}.busy_ms"), execute * MS);
            if *layer == "props" {
                out.set("props.values", *rows as f64);
                out.rate("props.values_per_s", *rows as f64, *execute);
            } else {
                out.set(&format!("{layer}.rows"), *rows as f64);
            }
        }
        for (family, execute, values) in &self.families {
            out.rate(
                &format!("props.{family}.values_per_s"),
                *values as f64,
                *execute,
            );
        }
    }
}

fn bump(slots: &mut Vec<(&'static str, f64, u64)>, key: &'static str, seconds: f64, count: u64) {
    match slots.iter_mut().find(|(k, _, _)| *k == key) {
        Some(slot) => {
            slot.1 += seconds;
            slot.2 += count;
        }
        None => slots.push((key, seconds, count)),
    }
}

/// Emit what a traced run's sinks measured: busy time per label, and
/// throughput for the ones that wrote `bytes`.
pub fn emit_sinks(out: &mut Samples, run: &Generated, bytes_of: impl Fn(&'static str) -> u64) {
    for sink in &run.sinks {
        let busy = sink.busy.as_secs_f64();
        let bytes = bytes_of(sink.label);
        match sink.label {
            "core.sink.csv" | "core.sink.jsonl" => {
                out.add(&format!("{}.busy_ms", sink.label), busy * MS);
                out.rate(
                    &format!("{}.mb_per_s", sink.label),
                    bytes as f64 / super::MB,
                    busy,
                );
                out.add("core.sink.calls", sink.calls as f64);
                out.add("core.sink.bytes", bytes as f64);
            }
            "temporal" => {
                out.add("temporal.sink.busy_ms", busy * MS);
                out.add("temporal.finish_ms", sink.finish.as_secs_f64() * MS);
            }
            _ => {}
        }
    }
}
