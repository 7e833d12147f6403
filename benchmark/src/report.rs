//! Results as JSON (the driver's one-line form and the benchmark's own
//! results file) and as text: every metric by name, with unit and direction.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use datasynth::telemetry::json::Json;

use crate::catalog::{self, Better, END_TO_END, PER_LAYER, WALL_LAYERS};
use crate::harness::Outcome;
use crate::stats::Summary;

fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

fn summary_json(unit: &str, better: Better, s: &Summary) -> Json {
    obj([
        ("unit", Json::from(unit)),
        ("better", Json::from(better.keyword())),
        ("median", Json::Float(s.median)),
        ("q1", Json::Float(s.q1)),
        ("q3", Json::Float(s.q3)),
        ("n", Json::Int(s.n as u64)),
        (
            "samples",
            Json::Arr(s.samples.iter().map(|v| Json::Float(*v)).collect()),
        ),
    ])
}

/// The last line of standard output the PR driver reads: every
/// `BENCHMARK.json` end-to-end metric, or with `traced` every per-layer one.
pub fn driver_line(outcome: &Outcome, traced: bool) -> String {
    let value = |unit: &str, s: &Summary| {
        obj([("value", Json::Float(s.median)), ("unit", Json::from(unit))])
    };
    let metrics: BTreeMap<String, Json> = if traced {
        PER_LAYER
            .iter()
            .filter_map(|d| {
                Some((
                    d.name.to_owned(),
                    value(d.unit, outcome.per_layer.get(d.name)?),
                ))
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .filter(|d| d.everywhere)
            .filter_map(|d| {
                Some((
                    d.name.to_owned(),
                    value(d.unit, outcome.end_to_end.get(d.name)?),
                ))
            })
            .collect()
    };
    obj([
        ("correct", Json::Bool(outcome.checks.failed == 0)),
        ("attempted", Json::Int(outcome.checks.attempted)),
        ("failed", Json::Int(outcome.checks.failed)),
        ("metrics", Json::Obj(metrics)),
    ])
    .render()
}

/// One workload's entry of the results file.
pub fn outcome_json(outcome: &Outcome) -> Json {
    let end_to_end = END_TO_END
        .iter()
        .filter_map(|d| {
            Some((
                d.name.to_owned(),
                summary_json(d.unit, d.better, outcome.end_to_end.get(d.name)?),
            ))
        })
        .collect();
    let per_layer = PER_LAYER
        .iter()
        .filter_map(|d| {
            Some((
                d.name.to_owned(),
                summary_json(d.unit, d.better, outcome.per_layer.get(d.name)?),
            ))
        })
        .collect();
    obj([
        ("correct", Json::Bool(outcome.checks.failed == 0)),
        ("attempted", Json::Int(outcome.checks.attempted)),
        ("failed", Json::Int(outcome.checks.failed)),
        (
            "failures",
            Json::Arr(
                outcome
                    .checks
                    .failures
                    .iter()
                    .map(|f| Json::from(f.as_str()))
                    .collect(),
            ),
        ),
        (
            "content_hash",
            Json::from(format!("{:016x}", outcome.content_hash)),
        ),
        ("end_to_end", Json::Obj(end_to_end)),
        ("per_layer", Json::Obj(per_layer)),
        (
            "notes",
            Json::Arr(
                outcome
                    .notes
                    .iter()
                    .map(|n| Json::from(n.as_str()))
                    .collect(),
            ),
        ),
    ])
}

/// A results document as lines: one per workload, so the file diffs.
pub fn document(host: Json, workloads: &BTreeMap<String, Json>) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "\"host\": {},", host.render());
    out.push_str("\"workloads\": {\n");
    let ordered: Vec<_> = catalog::WORKLOADS
        .iter()
        .filter_map(|w| Some((w.name, workloads.get(w.name)?)))
        .collect();
    for (i, (name, entry)) in ordered.iter().enumerate() {
        let comma = if i + 1 < ordered.len() { "," } else { "" };
        let _ = writeln!(out, "\"{name}\": {}{comma}", entry.render());
    }
    out.push_str("}\n}\n");
    out
}

fn number(v: f64) -> String {
    let magnitude = v.abs();
    if v == 0.0 {
        "0".to_owned()
    } else if magnitude >= 1e6 {
        format!("{v:.4e}")
    } else if magnitude >= 100.0 {
        format!("{v:.1}")
    } else if magnitude >= 1.0 {
        format!("{v:.3}")
    } else {
        format!("{v:.5}")
    }
}

fn metric_line(
    out: &mut String,
    name: &str,
    unit: &str,
    better: Better,
    bound: Option<f64>,
    entry: &Json,
) {
    let field = |k: &str| entry.get(k).and_then(Json::as_f64).unwrap_or(0.0);
    let bound = bound
        .map(|b| format!("  bound {:.0}%", b * 100.0))
        .unwrap_or_default();
    let _ = writeln!(
        out,
        "  {name:<40} {:>12} {unit:<6} {:<6} q1 {:>12}  q3 {:>12}  n {}{bound}",
        number(field("median")),
        better.keyword(),
        number(field("q1")),
        number(field("q3")),
        field("n"),
    );
}

/// Every metric of one workload's results entry, by name.
pub fn text(name: &str, entry: &Json) -> String {
    let mut out = String::new();
    let get = |k: &str| entry.get(k);
    let _ = writeln!(
        out,
        "== {name}: {} ({} checks, {} failed), content_hash {}",
        if get("correct").and_then(Json::as_bool) == Some(true) {
            "correct"
        } else {
            "FAILED"
        },
        get("attempted").and_then(Json::as_u64).unwrap_or(0),
        get("failed").and_then(Json::as_u64).unwrap_or(0),
        get("content_hash").and_then(Json::as_str).unwrap_or("-"),
    );
    for failure in get("failures").and_then(Json::as_arr).unwrap_or(&[]) {
        let _ = writeln!(out, "  FAILED: {}", failure.as_str().unwrap_or("?"));
    }
    for note in get("notes").and_then(Json::as_arr).unwrap_or(&[]) {
        let _ = writeln!(out, "  note: {}", note.as_str().unwrap_or("?"));
    }
    out.push_str(" end to end\n");
    for d in &END_TO_END {
        if let Some(m) = get("end_to_end").and_then(|e| e.get(d.name)) {
            metric_line(&mut out, d.name, d.unit, d.better, Some(d.bound), m);
        }
    }
    let Some(layers) = get("per_layer").filter(|l| l.as_obj().is_some_and(|o| !o.is_empty()))
    else {
        return out;
    };
    out.push_str(" per layer (traced pass; metrics that read 0 are left out: their layer did nothing here)\n");
    let median = |metric: &str| {
        layers
            .get(metric)
            .and_then(|m| m.get("median"))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    for d in PER_LAYER
        .iter()
        .filter(|d| !d.name.starts_with("share.") && median(d.name) != 0.0)
    {
        if let Some(m) = layers.get(d.name) {
            metric_line(&mut out, d.name, d.unit, d.better, None, m);
        }
    }
    let wall_ms = median("trace.wall_ms");
    let _ = writeln!(
        out,
        " layer table: self time of the traced repetition ({} ms)",
        number(wall_ms)
    );
    let mut sum = 0.0;
    for layer in WALL_LAYERS {
        let share = median(&format!("share.{layer}"));
        sum += share;
        if share > 0.0 {
            let _ = writeln!(
                out,
                "  {layer:<16} {:>10} ms {share:>6.1} %",
                number(wall_ms * share / 100.0)
            );
        }
    }
    let _ = writeln!(
        out,
        "  {:<16} {:>10} ms {sum:>6.1} %",
        "sum",
        number(wall_ms * sum / 100.0)
    );
    out
}
