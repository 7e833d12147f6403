//! The benchmark's vocabulary: every workload and metric name, with unit,
//! direction and regression bound. `BENCHMARK.json` at the repo root is the
//! same list in the PR driver's format; a unit test holds the two equal.

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn keyword(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

pub struct WorkloadDef {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: [WorkloadDef; 6] = [
    WorkloadDef {
        name: "social_e2e",
        why: "The whole path at t=1: DSL text, parse, lint, plan, generate to CSV, read back, build the store, curate 2048 queries, 200 rounds. Every layer does a share; the did-anything-regress row.",
    },
    WorkloadDef {
        name: "props_export",
        why: "500k rows x 8 properties, no edges, t=2, written as CSV then JSONL: props and core.sink do all the work, structure and matching none. JSONL beside CSV uses the row writers both ways.",
    },
    WorkloadDef {
        name: "structure_match",
        why: "rmat + homophily matching + barabasi_albert over 100k accounts into a counting null sink at t=2: structure and matching dominate, no serialisation, no disk.",
    },
    WorkloadDef {
        name: "engine_queries",
        why: "The social export is made in set-up; timed: read_graph_dir, GraphStore::build, curate 2048 queries, 400 rounds. Only engine.reader, engine.store, engine.exec and workload work.",
    },
    WorkloadDef {
        name: "sharded_oplog",
        why: "Temporal ledger at t=1: a full run into CSV + op log, then shard 1 of 4 with the same sinks. The windowed/recomputed use of core.runner, and the only workload where temporal's sort matters.",
    },
    WorkloadDef {
        name: "server_stream",
        why: "In-process HTTP server (2 workers, generation budget 2); one keep-alive client pulls knows.csv in full, then as 4 shards, then /ops. Framing, channel bridge and per-pull regeneration.",
    },
];

/// An end-to-end metric. `everywhere` metrics are defined on all six
/// workloads and are the ones `BENCHMARK.json` lists (the driver needs every
/// listed metric from every workload); the others exist only where the
/// workload has the stage they measure.
pub struct EndToEndDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which the metric may get worse.
    pub bound: f64,
    pub everywhere: bool,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEndDef; 10] = [
    EndToEndDef {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        everywhere: true,
        what: "everything before the warm-up repetition, median over repeated set-ups; excludes cargo build",
    },
    EndToEndDef {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
        everywhere: true,
        what: "wall of the timed region",
    },
    EndToEndDef {
        name: "rows_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
        everywhere: true,
        what: "table rows (incl. $ops) / generation wall; engine_queries: rows loaded / load wall; server_stream: rows of the full pull / its wall",
    },
    EndToEndDef {
        name: "mb_per_s",
        unit: "MB/s",
        better: Better::Higher,
        bound: 0.10,
        everywhere: true,
        what: "bytes written to disk, read from disk (engine_queries), received on the socket, or handed to the null sink as columns (structure_match) / the wall that moved them",
    },
    EndToEndDef {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        everywhere: true,
        what: "peak resident set of a timed repetition: VmHWM of the workload's own process, restarted before each repetition",
    },
    EndToEndDef {
        name: "shard_wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
        everywhere: false,
        what: "wall of the sharded variant: shard 1/4 on sharded_oplog, the four shard pulls on server_stream",
    },
    EndToEndDef {
        name: "load_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.10,
        everywhere: false,
        what: "read_graph_dir + GraphStore::build",
    },
    EndToEndDef {
        name: "query_ops_per_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.10,
        everywhere: false,
        what: "query executions / execute wall over the uniform mix, from per-template batches",
    },
    EndToEndDef {
        name: "match_ks",
        unit: "ks",
        better: Better::Lower,
        bound: 0.0,
        everywhere: false,
        what: "KS distance between the requested and the observed P(X,Y) on the correlated edge; deterministic per seed",
    },
    EndToEndDef {
        name: "failed_share",
        unit: "share",
        better: Better::Lower,
        bound: 0.0,
        everywhere: false,
        what: "failed / attempted checks; the driver reads the same two counts from the result line",
    },
];

#[cfg(test)]
pub fn end_to_end(name: &str) -> Option<&'static EndToEndDef> {
    END_TO_END.iter().find(|m| m.name == name)
}

pub struct LayerDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> LayerDef {
    LayerDef {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> LayerDef {
    LayerDef {
        name,
        unit,
        better: Better::Higher,
    }
}

/// Layers that own a share of a traced repetition's wall, in path order.
/// `bench` is the harness itself: time inside a repetition no span covers.
pub const WALL_LAYERS: [&str; 15] = [
    "schema",
    "lint",
    "core.plan",
    "core.runner",
    "structure",
    "matching",
    "props",
    "core.sink",
    "temporal",
    "engine.reader",
    "engine.store",
    "workload",
    "engine.exec",
    "server",
    "bench",
];

/// The nine query kinds the workload crate derives.
pub const QUERY_KINDS: [&str; 9] = [
    "point_lookup",
    "as_of_lookup",
    "property_scan",
    "expand_1hop",
    "expand_2hop",
    "expand_window",
    "window_agg",
    "community_agg",
    "path_2",
];

/// Per-layer metrics. A metric reads 0 on a workload that does not reach
/// its layer; that zero is the "this layer did nothing here" statement.
pub const PER_LAYER: &[LayerDef] = &[
    lower("schema.parse_us", "us"),
    higher("schema.parse_mb_per_s", "MB/s"),
    lower("lint.run_us", "us"),
    lower("lint.diagnostics", "count"),
    lower("core.plan.us", "us"),
    lower("core.plan.tasks", "count"),
    lower("core.runner.wall_ms", "ms"),
    lower("core.runner.busy_ms", "ms"),
    lower("core.runner.queue_wait_ms", "ms"),
    lower("core.runner.gather_ms", "ms"),
    lower("core.runner.commit_ms", "ms"),
    lower("core.runner.self_ms", "ms"),
    higher("core.runner.worker_occupancy", "ratio"),
    lower("core.runner.max_reorder_depth", "count"),
    higher("core.runner.null_sink_rows_per_s", "1/s"),
    higher("core.runner.speedup_t2", "ratio"),
    lower("core.runner.shard_cost_ratio", "ratio"),
    lower("core.runner.shard_wall_ms", "ms"),
    lower("structure.busy_ms", "ms"),
    lower("structure.rows", "count"),
    higher("structure.rmat.edges_per_s", "1/s"),
    higher("structure.barabasi_albert.edges_per_s", "1/s"),
    higher("structure.lfr.edges_per_s", "1/s"),
    higher("structure.one_to_many.edges_per_s", "1/s"),
    lower("matching.busy_ms", "ms"),
    lower("matching.rows", "count"),
    higher("matching.sbm_part.edges_per_s", "1/s"),
    lower("matching.ks", "ks"),
    lower("matching.l1", "l1"),
    higher("matching.ks_random", "ks"),
    lower("props.busy_ms", "ms"),
    lower("props.values", "count"),
    higher("props.values_per_s", "1/s"),
    higher("props.dictionary.values_per_s", "1/s"),
    higher("props.first_names.values_per_s", "1/s"),
    higher("props.sentence_about.values_per_s", "1/s"),
    higher("props.numeric.values_per_s", "1/s"),
    higher("props.date.values_per_s", "1/s"),
    lower("core.sink.csv.busy_ms", "ms"),
    higher("core.sink.csv.mb_per_s", "MB/s"),
    lower("core.sink.jsonl.busy_ms", "ms"),
    higher("core.sink.jsonl.mb_per_s", "MB/s"),
    lower("core.sink.calls", "count"),
    lower("core.sink.bytes", "bytes"),
    higher("tables.export.csv_mb_per_s", "MB/s"),
    higher("tables.csr.edges_per_s", "1/s"),
    lower("temporal.sink.busy_ms", "ms"),
    lower("temporal.finish_ms", "ms"),
    lower("temporal.ops", "count"),
    higher("temporal.ops_per_s", "1/s"),
    lower("workload.curate_ms", "ms"),
    lower("workload.queries", "count"),
    lower("workload.templates", "count"),
    lower("engine.reader.ms", "ms"),
    higher("engine.reader.mb_per_s", "MB/s"),
    higher("engine.reader.rows_per_s", "1/s"),
    lower("engine.store.build_ms", "ms"),
    higher("engine.store.elements_per_s", "1/s"),
    lower("engine.store.bytes_per_element", "bytes"),
    lower("engine.exec.point_lookup.ns_per_op", "ns"),
    lower("engine.exec.as_of_lookup.ns_per_op", "ns"),
    lower("engine.exec.property_scan.ns_per_op", "ns"),
    lower("engine.exec.expand_1hop.ns_per_op", "ns"),
    lower("engine.exec.expand_2hop.ns_per_op", "ns"),
    lower("engine.exec.expand_window.ns_per_op", "ns"),
    lower("engine.exec.window_agg.ns_per_op", "ns"),
    lower("engine.exec.community_agg.ns_per_op", "ns"),
    lower("engine.exec.path_2.ns_per_op", "ns"),
    higher("engine.exec.ops_per_s", "1/s"),
    lower("engine.exec.rows_per_op", "count"),
    lower("engine.exec.round_p99_us", "us"),
    lower("engine.exec.out_of_band", "count"),
    lower("server.register_ms", "ms"),
    lower("server.ttfb_ms", "ms"),
    higher("server.full_pull.mb_per_s", "MB/s"),
    higher("server.shard_pull.mb_per_s", "MB/s"),
    higher("server.ops_pull.mb_per_s", "MB/s"),
    lower("server.shard_wall_ms", "ms"),
    lower("server.overhead_ratio", "ratio"),
    higher("server.cache_hits", "count"),
    lower("trace.overhead_ratio", "ratio"),
    lower("trace.wall_ms", "ms"),
    lower("share.schema", "%"),
    lower("share.lint", "%"),
    lower("share.core.plan", "%"),
    lower("share.core.runner", "%"),
    lower("share.structure", "%"),
    lower("share.matching", "%"),
    lower("share.props", "%"),
    lower("share.core.sink", "%"),
    lower("share.temporal", "%"),
    lower("share.engine.reader", "%"),
    lower("share.engine.store", "%"),
    lower("share.workload", "%"),
    lower("share.engine.exec", "%"),
    lower("share.server", "%"),
    lower("share.bench", "%"),
];

/// The `--list` text: one name per line with its kind, unit, direction and
/// bound, then ` | ` and what it is. `extra` marks end-to-end metrics
/// `BENCHMARK.json` does not list.
pub fn list_text() -> String {
    let mut out = String::new();
    for w in &WORKLOADS {
        out.push_str(&format!("workload {} | {}\n", w.name, w.why));
    }
    for m in &END_TO_END {
        let kind = if m.everywhere { "end_to_end" } else { "extra" };
        out.push_str(&format!(
            "{kind} {} {} {} {} | {}\n",
            m.name,
            m.unit,
            m.better.keyword(),
            m.bound,
            m.what
        ));
    }
    for m in PER_LAYER {
        out.push_str(&format!(
            "per_layer {} {} {}\n",
            m.name,
            m.unit,
            m.better.keyword()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasynth::telemetry::json::Json;
    use std::collections::BTreeSet;

    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_fit_the_contract_and_are_unique() {
        let mut seen = BTreeSet::new();
        for w in &WORKLOADS {
            assert!(name_ok(w.name), "{}", w.name);
            assert!(
                w.why.len() <= 200 && !w.why.contains('\n'),
                "{}: why is {} chars",
                w.name,
                w.why.len()
            );
            assert!(seen.insert(w.name), "duplicate {}", w.name);
        }
        for m in &END_TO_END {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!((0.0..=0.25).contains(&m.bound));
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        assert!(PER_LAYER.len() <= 128);
        for m in PER_LAYER {
            assert!(name_ok(m.name) && unit_ok(m.unit), "{}", m.name);
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for layer in WALL_LAYERS {
            assert!(
                PER_LAYER.iter().any(|m| m.name == format!("share.{layer}")),
                "{layer}"
            );
        }
        for kind in QUERY_KINDS {
            assert!(
                PER_LAYER
                    .iter()
                    .any(|m| m.name == format!("engine.exec.{kind}.ns_per_op")),
                "{kind}"
            );
        }
    }

    /// `--list` and `BENCHMARK.json` name the same workloads and metrics,
    /// with the same units, directions and bounds.
    #[test]
    fn list_equals_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc =
            Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root"))
                .unwrap();
        let list = |key: &str| {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("{key} is a list"))
        };
        let text =
            |entry: &Json, key: &str| entry.get(key).and_then(Json::as_str).expect(key).to_owned();
        let mut from_json = BTreeSet::new();
        for w in list("workloads") {
            let name = text(w, "name");
            let def = WORKLOADS
                .iter()
                .find(|d| d.name == name)
                .expect("known workload");
            assert_eq!(text(w, "why"), def.why);
            from_json.insert(format!("workload {name}"));
        }
        for m in list("end_to_end") {
            let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
            from_json.insert(format!(
                "end_to_end {} {} {} {bound}",
                text(m, "name"),
                text(m, "unit"),
                text(m, "better")
            ));
        }
        for m in list("per_layer") {
            from_json.insert(format!(
                "per_layer {} {} {}",
                text(m, "name"),
                text(m, "unit"),
                text(m, "better")
            ));
        }
        let listed: BTreeSet<String> = list_text()
            .lines()
            .filter(|l| !l.starts_with("extra "))
            .map(|l| l.split(" | ").next().expect("a first field").to_owned())
            .collect();
        assert_eq!(listed, from_json);
        assert_eq!(list("paths").len(), 1);
    }
}
