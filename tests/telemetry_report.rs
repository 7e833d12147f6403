//! The telemetry contract of [`Session::run_into`]: the [`RunReport`]'s
//! row/byte/hash/config fields are a pure function of `(schema, seed,
//! shard)` — byte-identical across thread counts — while its metered
//! byte counts must agree with the files actually written, and sharded
//! runs' windowed per-task row counts must sum to the full run's.

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use datasynth::prelude::*;

/// Chunkable + sequential structures, matching, and endpoint-dependent
/// edge properties — every task kind and shard mode in one schema.
const SCHEMA: &str = r#"
graph telemix {
  node Account [count = 900] {
    country: text = dictionary("countries");
    balance: double = normal(1000, 250);
    opened: date = date_between("2012-01-01", "2020-12-31");
  }
  edge transfers: Account -- Account {
    structure = rmat(edge_factor = 4);
    amount: double = uniform_double(1, 5000);
  }
  edge refers: Account -- Account {
    structure = barabasi_albert(m = 2);
    correlate country with homophily(0.7);
    when: date = date_after(60) given (source.opened);
  }
}
"#;

/// Accepts any run shape and drops every table.
struct Discard;
impl GraphSink for Discard {}

fn report_at(threads: usize, shard: Option<(u64, u64)>) -> RunReport {
    let generator = DataSynth::from_dsl(SCHEMA)
        .unwrap()
        .with_seed(31)
        .with_threads(threads);
    let mut session = generator.session().unwrap();
    if let Some((i, k)) = shard {
        session = session.shard(i, k).unwrap();
    }
    session.run_into(&mut Discard).unwrap()
}

#[test]
fn stable_report_json_is_byte_identical_across_thread_counts() {
    let reference = report_at(1, None).to_json_stable();
    for threads in [2usize, 7] {
        assert_eq!(
            reference,
            report_at(threads, None).to_json_stable(),
            "stable report must not depend on thread count (threads={threads})"
        );
    }
    // Sharded runs carry the same guarantee.
    let sharded = report_at(1, Some((1, 3))).to_json_stable();
    assert_eq!(sharded, report_at(7, Some((1, 3))).to_json_stable());
    assert_ne!(reference, sharded, "shard config is part of the report");
}

#[test]
fn report_covers_every_plan_task() {
    let generator = DataSynth::from_dsl(SCHEMA).unwrap().with_seed(31);
    let plan: Vec<String> = generator
        .plan()
        .unwrap()
        .tasks
        .iter()
        .map(|t| t.to_string())
        .collect();
    let report = report_at(3, None);
    let reported: Vec<String> = report.tasks.iter().map(|t| t.task.clone()).collect();
    assert_eq!(plan, reported, "one report entry per plan task, in order");
    for t in &report.tasks {
        assert!(
            matches!(
                t.kind,
                "count" | "node_property" | "structure" | "match" | "edge_property"
            ),
            "unexpected task kind {:?}",
            t.kind
        );
    }
    // Structure/property tasks produce rows; the report's totals must
    // agree with the manifest it derefs to.
    assert!(report.tasks.iter().any(|t| t.rows > 0));
    assert_eq!(
        report.total_rows(),
        report.tables.values().map(|t| t.hi - t.lo).sum::<u64>()
    );
}

#[test]
fn observed_rows_match_report_and_windowed_shards_sum_to_full_run() {
    let full = report_at(1, None);
    const K: u64 = 3;

    // Per-task rows observed via on_task, per shard.
    let mut shard_rows: Vec<Vec<u64>> = Vec::new();
    for i in 0..K {
        let generator = DataSynth::from_dsl(SCHEMA).unwrap().with_seed(31);
        let mut observed: Vec<u64> = Vec::new();
        let report = {
            let session = generator
                .session()
                .unwrap()
                .shard(i, K)
                .unwrap()
                .on_task(|p| {
                    if p.phase == TaskPhase::Finished {
                        observed.push(p.rows.expect("rows delivered at Finished"));
                    }
                });
            session.run_into(&mut Discard).unwrap()
        };
        // The observer saw exactly what the report records.
        let reported: Vec<u64> = report.tasks.iter().map(|t| t.rows).collect();
        assert_eq!(observed, reported, "shard {i}: observer vs report rows");
        shard_rows.push(observed);
    }

    // Windowed tasks split the full run's rows across shards; their
    // per-shard counts must sum back to the full-run report.
    let generator = DataSynth::from_dsl(SCHEMA).unwrap().with_seed(31);
    let plan = generator.shard_plan(0, K).unwrap();
    assert!(
        plan.tasks.iter().any(|t| t.mode == ShardMode::Windowed),
        "schema must exercise windowed tasks"
    );
    for (slot, t) in plan.tasks.iter().enumerate() {
        if t.mode != ShardMode::Windowed {
            continue;
        }
        let sum: u64 = shard_rows.iter().map(|rows| rows[slot]).sum();
        assert_eq!(
            sum, full.tasks[slot].rows,
            "windowed task {} must tile the full run across {K} shards",
            t.task
        );
    }
}

/// The "N" of the thread matrix: CI re-runs the suite with
/// `DATASYNTH_TEST_THREADS=7`.
fn matrix_threads() -> usize {
    std::env::var("DATASYNTH_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7)
}

#[test]
fn observed_elapsed_is_the_reported_execute_time_at_any_thread_count() {
    // One rule on the one scheduler: `elapsed` is the task body's time —
    // not gather, commit or the sink's share of the slot — so --progress
    // rates mean the same thing at every --threads.
    for threads in [1, matrix_threads()] {
        let generator = DataSynth::from_dsl(SCHEMA)
            .unwrap()
            .with_seed(31)
            .with_threads(threads);
        let mut observed = Vec::new();
        let report = generator
            .session()
            .unwrap()
            .on_task(|p| match p.phase {
                TaskPhase::Finished => observed.push(p.elapsed.expect("elapsed at Finished")),
                _ => assert!(p.elapsed.is_none() && p.rows.is_none()),
            })
            .run_into(&mut Discard)
            .unwrap();
        let reported: Vec<_> = report.tasks.iter().map(|t| t.execute).collect();
        assert_eq!(observed, reported, "threads={threads}");
    }
}

#[test]
fn metered_sink_bytes_match_files_on_disk() {
    let dir: PathBuf =
        std::env::temp_dir().join(format!("datasynth-telemetry-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);

    let metrics = Arc::new(MetricsRegistry::new());
    let generator = DataSynth::from_dsl(SCHEMA).unwrap().with_seed(31);
    let mut sink = CsvSink::new(&dir).with_metrics(Arc::clone(&metrics));
    let report = generator
        .session()
        .unwrap()
        .with_metrics(Arc::clone(&metrics))
        .run_into(&mut sink)
        .unwrap();

    let on_disk: BTreeMap<String, u64> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "csv"))
        .map(|p| {
            let table = p.file_stem().unwrap().to_string_lossy().into_owned();
            (table, fs::metadata(&p).unwrap().len())
        })
        .collect();
    assert!(!on_disk.is_empty());
    assert_eq!(
        report.sink_bytes, on_disk,
        "metered byte counts must equal the files written"
    );
    assert_eq!(report.total_bytes(), on_disk.values().sum::<u64>());

    // The registry snapshot made it into the report, and the Prometheus
    // rendering exposes both the scheduler and sink series.
    let snapshot = report.metrics.as_ref().expect("registry snapshot");
    assert!(!snapshot.is_empty());
    let text = report.to_prometheus();
    for needle in [
        "# TYPE datasynth_run_info gauge",
        "datasynth_table_rows_total{table=\"transfers\",kind=\"edge\"}",
        "datasynth_tasks_total",
        "datasynth_sink_bytes_total{table=\"Account\"}",
        "datasynth_task_execute_micros_bucket",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in:\n{text}");
    }

    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn prometheus_exposition_writes_each_series_once() {
    // A metric family declared twice, or one `name{labels}` sample
    // written twice, makes a Prometheus parser reject the whole scrape.
    let generator = DataSynth::from_dsl(SCHEMA).unwrap().with_seed(31);
    for attach in [false, true] {
        let mut session = generator.session().unwrap();
        if attach {
            session = session.with_metrics(Arc::new(MetricsRegistry::new()));
        }
        let text = session.run_into(&mut Discard).unwrap().to_prometheus();
        let mut seen = std::collections::BTreeSet::new();
        for line in text.lines() {
            // `# TYPE <name> <kind>` is keyed by name, a sample by
            // everything before its value.
            let key = match line.strip_prefix("# TYPE ") {
                Some(family) => family.split(' ').next().unwrap(),
                None => line.rsplit_once(' ').expect("sample line").0,
            };
            let fresh = seen.insert((line.starts_with('#'), key));
            assert!(fresh, "attach={attach}: {key:?} written twice in:\n{text}");
        }
        for needle in ["datasynth_workers ", "datasynth_reorder_depth_max "] {
            assert!(text.contains(needle), "attach={attach}: no {needle:?}");
        }
    }
}

#[test]
fn report_without_registry_has_no_byte_counts() {
    let report = report_at(2, None);
    assert!(report.sink_bytes.is_empty());
    assert!(report.metrics.is_none());
    assert_eq!(report.total_bytes(), 0);
    // The stable JSON still renders bytes (as zero) so its shape is
    // independent of whether a registry was attached.
    assert!(report.to_json_stable().contains("\"bytes\": 0"));
}
