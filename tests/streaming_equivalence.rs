//! Streaming-vs-in-memory equivalence: `Session::run_into` with the
//! streaming CSV/JSONL sinks must produce byte-identical directories to
//! exporting the `generate()` graph with the whole-graph exporters — the
//! guarantee that makes the sink API a pure refactor of the emission path,
//! not a new format. Plus a proptest round-trip for CSV quoting/escaping.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use proptest::prelude::*;

use datasynth::analysis::StatsSink;
use datasynth::core::{analyze, emission_schedule, Artifact};
use datasynth::prelude::*;
use datasynth::tables::export::{csv_escape, WINDOW_ROWS};
use datasynth::tables::{EdgeTable, PropertyTable};
use datasynth::temporal::TemporalSink;
use datasynth::workload::WorkloadSink;

const SCHEMA: &str = r#"
graph streaming {
  node Person [count = 600] {
    country: text = dictionary("countries");
    age: long = uniform(18, 90);
    score: double = normal(0, 1);
    premium: bool = bool(0.25);
    signup: date = date_between("2015-01-01", "2020-12-31");
  }
  node Message {
    topic: text = dictionary("topics");
    text: text = sentence_about(4, 9) given (topic);
  }
  edge knows: Person -- Person {
    structure = lfr(avg_degree = 8, max_degree = 24, mixing = 0.15);
    correlate country with homophily(0.7);
    creationDate: date = date_after(30) given (source.signup, target.signup);
  }
  edge creates: Person -> Message [one_to_many] {
    structure = one_to_many(dist = "geometric", p = 0.5);
  }
}
"#;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ds-streaming-{}-{tag}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// All files under `dir` as relative-path -> bytes.
fn snapshot(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut out = BTreeMap::new();
    let mut stack = vec![dir.to_path_buf()];
    while let Some(d) = stack.pop() {
        for entry in fs::read_dir(&d).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                stack.push(path);
            } else {
                let rel = path
                    .strip_prefix(dir)
                    .unwrap()
                    .to_string_lossy()
                    .into_owned();
                out.insert(rel, fs::read(&path).unwrap());
            }
        }
    }
    out
}

#[test]
fn streaming_sinks_match_in_memory_export_byte_for_byte() {
    let generator = DataSynth::from_dsl(SCHEMA).unwrap().with_seed(42);

    let mem_dir = fresh_dir("mem");
    let graph = generator.generate().unwrap();
    CsvExporter.export(&graph, &mem_dir).unwrap();
    JsonlExporter.export(&graph, &mem_dir).unwrap();
    let mem = snapshot(&mem_dir);
    fs::remove_dir_all(&mem_dir).unwrap();

    let stream_dir = fresh_dir("stream");
    let mut csv = CsvSink::new(&stream_dir);
    let mut jsonl = JsonlSink::new(&stream_dir);
    let mut sinks = MultiSink::new().with(&mut csv).with(&mut jsonl);
    generator.session().unwrap().run_into(&mut sinks).unwrap();
    let stream = snapshot(&stream_dir);
    fs::remove_dir_all(&stream_dir).unwrap();

    assert_eq!(
        mem.keys().collect::<Vec<_>>(),
        stream.keys().collect::<Vec<_>>(),
        "both paths must emit the same file set"
    );
    assert!(mem.len() >= 8, "4 types x 2 formats");
    for (name, bytes) in &mem {
        assert_eq!(
            bytes, &stream[name],
            "{name} differs between streaming and in-memory export"
        );
    }
}

#[test]
fn table_sink_streams_match_sink_files_and_exporter_files() {
    // One write path, three ways in: for every table and format the
    // single-table stream, the directory sink's file and the whole-graph
    // exporter's file are the same bytes — and per-shard streams tile it.
    let generator = DataSynth::from_dsl(SCHEMA).unwrap().with_seed(42);

    let export_dir = fresh_dir("table-export");
    let graph = generator.generate().unwrap();
    CsvExporter.export(&graph, &export_dir).unwrap();
    JsonlExporter.export(&graph, &export_dir).unwrap();
    let exported = snapshot(&export_dir);
    fs::remove_dir_all(&export_dir).unwrap();

    let sink_dir = fresh_dir("table-sink");
    let mut csv = CsvSink::new(&sink_dir);
    let mut jsonl = JsonlSink::new(&sink_dir);
    let mut sinks = MultiSink::new().with(&mut csv).with(&mut jsonl);
    generator.session().unwrap().run_into(&mut sinks).unwrap();
    let sunk = snapshot(&sink_dir);
    fs::remove_dir_all(&sink_dir).unwrap();

    for table in ["Person", "Message", "knows", "creates"] {
        for format in [TableFormat::Csv, TableFormat::Jsonl] {
            let stream = |shard: Option<u64>| {
                let mut session = generator.session().unwrap();
                if let Some(index) = shard {
                    session = session.shard(index, 3).unwrap();
                }
                let mut sink = TableSink::new(table, format, Vec::new());
                session.run_into(&mut sink).unwrap();
                sink.into_inner()
            };
            let file = format!("{table}.{}", format.extension());
            assert_eq!(stream(None), sunk[&file], "{file}: TableSink vs dir sink");
            assert_eq!(sunk[&file], exported[&file], "{file}: dir sink vs exporter");
            let tiled: Vec<u8> = (0..3).flat_map(|i| stream(Some(i))).collect();
            assert_eq!(tiled, sunk[&file], "{file}: shards 0/3..2/3 concatenated");
        }
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
fn parallel_streaming_matches_single_threaded_export_byte_for_byte() {
    // threads > 1 engages the task-parallel scheduler; the reorder buffer
    // must hand the sinks exactly the single-threaded event sequence, so
    // the directories match byte for byte.
    let single_dir = fresh_dir("par-t1");
    {
        let generator = DataSynth::from_dsl(SCHEMA)
            .unwrap()
            .with_seed(42)
            .with_threads(1);
        let mut csv = CsvSink::new(&single_dir);
        let mut jsonl = JsonlSink::new(&single_dir);
        let mut sinks = MultiSink::new().with(&mut csv).with(&mut jsonl);
        generator.session().unwrap().run_into(&mut sinks).unwrap();
    }
    let single = snapshot(&single_dir);
    fs::remove_dir_all(&single_dir).unwrap();

    let multi_dir = fresh_dir("par-tn");
    {
        let generator = DataSynth::from_dsl(SCHEMA)
            .unwrap()
            .with_seed(42)
            .with_threads(matrix_threads());
        let mut csv = CsvSink::new(&multi_dir);
        let mut jsonl = JsonlSink::new(&multi_dir);
        let mut sinks = MultiSink::new().with(&mut csv).with(&mut jsonl);
        generator.session().unwrap().run_into(&mut sinks).unwrap();
    }
    let multi = snapshot(&multi_dir);
    fs::remove_dir_all(&multi_dir).unwrap();

    assert_eq!(
        single.keys().collect::<Vec<_>>(),
        multi.keys().collect::<Vec<_>>()
    );
    for (name, bytes) in &single {
        assert_eq!(
            bytes,
            &multi[name],
            "{name} differs between 1 and {} threads",
            matrix_threads()
        );
    }
}

#[test]
fn observer_events_arrive_in_plan_order_even_when_parallel() {
    let generator = DataSynth::from_dsl(SCHEMA)
        .unwrap()
        .with_seed(1)
        .with_threads(matrix_threads());
    let mut events: Vec<(usize, bool)> = Vec::new();
    let mut sink = InMemorySink::new();
    generator
        .session()
        .unwrap()
        .on_task(|p| {
            events.push((p.index, matches!(p.phase, TaskPhase::Finished)));
        })
        .run_into(&mut sink)
        .unwrap();
    let total = generator.plan().unwrap().tasks.len();
    assert_eq!(events.len(), 2 * total, "two events per task");
    for i in 0..total {
        assert_eq!(events[2 * i], (i, false), "start of task {i}");
        assert_eq!(events[2 * i + 1], (i, true), "finish of task {i}");
    }
}

#[test]
fn in_memory_sink_reassembles_the_generate_graph() {
    let generator = DataSynth::from_dsl(SCHEMA).unwrap().with_seed(9);
    let graph = generator.generate().unwrap();
    let mut sink = InMemorySink::new();
    generator.session().unwrap().run_into(&mut sink).unwrap();
    let streamed = sink.into_graph();
    assert!(streamed.validate().is_empty());
    assert_eq!(graph.node_count("Person"), streamed.node_count("Person"));
    assert_eq!(graph.edges("knows"), streamed.edges("knows"));
    assert_eq!(
        graph.node_property("Person", "country"),
        streamed.node_property("Person", "country")
    );
    assert_eq!(
        graph.edge_property("knows", "creationDate"),
        streamed.edge_property("knows", "creationDate")
    );
}

#[test]
fn one_pass_feeds_export_stats_and_workload() {
    let generator = DataSynth::from_dsl(SCHEMA).unwrap().with_seed(42);
    let dir = fresh_dir("onepass");

    let mut csv = CsvSink::new(&dir);
    let mut stats = StatsSink::new();
    let mut workload = WorkloadSink::new(generator.schema())
        .with_seed(42)
        .with_count(25);
    let mut sinks = MultiSink::new()
        .with(&mut csv)
        .with(&mut stats)
        .with(&mut workload);
    generator.session().unwrap().run_into(&mut sinks).unwrap();

    // Export happened.
    assert!(dir.join("Person.csv").exists());
    assert!(dir.join("knows.csv").exists());
    // Stats accumulated for the homogeneous edge type only.
    let reports = stats.reports();
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].edge_type, "knows");
    assert!(reports[0].degree.is_some());
    assert!(reports[0].largest_component > 0);
    // Workload curated against the streamed tables.
    let wl = workload.take_workload().expect("curated at finish");
    assert_eq!(wl.queries.len(), 25);

    // And it matches the workload curated from a materialized graph —
    // the one-pass fan-out changes nothing downstream.
    let graph = generator.generate().unwrap();
    let two_pass = WorkloadGenerator::new(generator.schema(), &graph)
        .with_seed(42)
        .generate(25)
        .unwrap();
    assert_eq!(wl.queries.len(), two_pass.queries.len());
    for (a, b) in wl.queries.iter().zip(&two_pass.queries) {
        assert_eq!(a.cypher, b.cypher);
        assert_eq!(a.gremlin, b.gremlin);
    }
    fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn observer_sees_every_task_start_and_finish() {
    let generator = DataSynth::from_dsl(SCHEMA).unwrap().with_seed(1);
    let mut events: Vec<(usize, bool)> = Vec::new();
    let mut sink = InMemorySink::new();
    generator
        .session()
        .unwrap()
        .on_task(|p| {
            events.push((p.index, matches!(p.phase, TaskPhase::Finished)));
        })
        .run_into(&mut sink)
        .unwrap();
    let total = generator.plan().unwrap().tasks.len();
    assert_eq!(events.len(), 2 * total, "two events per task");
    for i in 0..total {
        assert_eq!(events[2 * i], (i, false), "start of task {i}");
        assert_eq!(events[2 * i + 1], (i, true), "finish of task {i}");
    }
}

/// One entry of the log an observer and a sink share in the tests below.
#[derive(Debug, Clone, PartialEq)]
enum Event {
    Started(usize),
    Finished(usize),
    Sink(String),
}

/// Records every per-slot sink callback into a shared log, and fails the
/// `fail_at`-th callback of the run (1-based, `begin` and `finish`
/// included) with an error naming it.
struct LogSink<'l> {
    log: &'l RefCell<Vec<Event>>,
    calls: usize,
    fail_at: usize,
    finished: bool,
}

impl<'l> LogSink<'l> {
    fn new(log: &'l RefCell<Vec<Event>>, fail_at: usize) -> Self {
        LogSink {
            log,
            calls: 0,
            fail_at,
            finished: false,
        }
    }

    fn call(&mut self, what: String) -> Result<(), SinkError> {
        self.calls += 1;
        if self.calls == self.fail_at {
            return Err(SinkError::invalid(format!(
                "callback {} ({what}) failed",
                self.calls
            )));
        }
        self.log.borrow_mut().push(Event::Sink(what));
        Ok(())
    }
}

impl GraphSink for LogSink<'_> {
    fn begin(&mut self, _: &SinkManifest) -> Result<(), SinkError> {
        self.call("begin".into())
    }
    fn table_rows(&mut self, t: &str, _: std::ops::Range<u64>, _: u64) -> Result<(), SinkError> {
        self.call(format!("rows {t}"))
    }
    fn node_count(&mut self, t: &str, _: u64) -> Result<(), SinkError> {
        self.call(format!("count {t}"))
    }
    fn node_property(&mut self, t: &str, p: &str, _: PropertyTable) -> Result<(), SinkError> {
        self.call(format!("column {t}.{p}"))
    }
    fn edges(&mut self, e: &str, _: &str, _: &str, _: EdgeTable) -> Result<(), SinkError> {
        self.call(format!("edges {e}"))
    }
    fn edge_property(&mut self, e: &str, p: &str, _: PropertyTable) -> Result<(), SinkError> {
        self.call(format!("column {e}.{p}"))
    }
    fn finish(&mut self) -> Result<(), SinkError> {
        self.finished = true;
        self.call("finish".into())
    }
}

/// Run SCHEMA at `threads` with an observer and a [`LogSink`] writing one
/// log; returns the log, the run's outcome, the callbacks the sink saw and
/// whether `finish` was among them.
fn logged_run(
    threads: usize,
    fail_at: usize,
) -> (Vec<Event>, Result<(), PipelineError>, usize, bool) {
    let log = RefCell::new(Vec::new());
    let generator = DataSynth::from_dsl(SCHEMA)
        .unwrap()
        .with_seed(1)
        .with_threads(threads);
    let mut sink = LogSink::new(&log, fail_at);
    let outcome = generator
        .session()
        .unwrap()
        .on_task(|p| {
            log.borrow_mut().push(match p.phase {
                TaskPhase::Finished => Event::Finished(p.index),
                _ => Event::Started(p.index),
            });
        })
        .run_into(&mut sink)
        .map(|_| ());
    let (calls, finished) = (sink.calls, sink.finished);
    (log.into_inner(), outcome, calls, finished)
}

#[test]
fn one_worker_runs_in_plan_order_with_live_started_events() {
    // What slot i hands the sink, derived independently of the runner: the
    // window announcement (and count) the task resolves, then every
    // artifact whose last use is slot i.
    let schema = parse_schema(SCHEMA).unwrap();
    let analysis = analyze(&schema).unwrap();
    let schedule = emission_schedule(&schema, &analysis);
    let mut expected = vec![Event::Sink("begin".into())];
    for (i, task) in analysis.plan.tasks.iter().enumerate() {
        expected.push(Event::Started(i));
        match task {
            Task::NodeCount(t) => {
                expected.push(Event::Sink(format!("rows {t}")));
                expected.push(Event::Sink(format!("count {t}")));
            }
            Task::Match(e) => expected.push(Event::Sink(format!("rows {e}"))),
            _ => {}
        }
        expected.extend(schedule[i].iter().map(|artifact| {
            Event::Sink(match artifact {
                Artifact::Edges(e) => format!("edges {e}"),
                column => format!("column {column}"),
            })
        }));
        expected.push(Event::Finished(i));
    }
    expected.push(Event::Sink("finish".into()));

    // One worker: started(i), slot i's sink events, finished(i) — the
    // plan executed in plan order, `Started` ahead of the task's output.
    let (single, outcome, _, _) = logged_run(1, usize::MAX);
    outcome.unwrap();
    assert_eq!(single, expected);

    // A pool interleaves the two streams differently (a slot's `Started`
    // can trail its execution), but each stream alone is unchanged.
    let (multi, outcome, _, _) = logged_run(matrix_threads(), usize::MAX);
    outcome.unwrap();
    let is_sink = |e: &&Event| matches!(e, Event::Sink(_));
    let sink_side = |log: &[Event]| log.iter().filter(is_sink).cloned().collect::<Vec<_>>();
    let observer_side = |log: &[Event]| {
        log.iter()
            .filter(|e| !is_sink(e))
            .cloned()
            .collect::<Vec<_>>()
    };
    assert_eq!(sink_side(&multi), sink_side(&expected));
    assert_eq!(observer_side(&multi), observer_side(&expected));
}

#[test]
fn a_failing_sink_ends_in_a_typed_error_at_any_callback_and_thread_count() {
    let (_, outcome, callbacks, finished) = logged_run(1, usize::MAX);
    outcome.unwrap();
    assert!(
        finished && callbacks > 10,
        "begin + per-slot events + finish"
    );

    for fail_at in 1..=callbacks {
        let mut errors = Vec::new();
        for threads in [1, matrix_threads()] {
            // Returning at all means the pool was closed and joined.
            let (_, outcome, calls, finished) = logged_run(threads, fail_at);
            match outcome {
                Err(PipelineError::Sink(SinkError::Invalid(msg))) => errors.push(msg),
                other => panic!("callback {fail_at} at {threads} threads: got {other:?}"),
            }
            assert_eq!(calls, fail_at, "no sink callback after the failed one");
            assert_eq!(
                finished,
                fail_at == callbacks,
                "finish only as the last call"
            );
        }
        assert!(errors[0].starts_with(&format!("callback {fail_at} (")));
        assert_eq!(errors[0], errors[1], "same failure at 1 and N threads");
    }
}

/// A writer that takes `left` more bytes and then fails like a full disk.
struct FailAfter {
    left: usize,
}

impl std::io::Write for FailAfter {
    fn write(&mut self, data: &[u8]) -> std::io::Result<usize> {
        if self.left == 0 {
            return Err(std::io::Error::other("no space left on device"));
        }
        let taken = data.len().min(self.left);
        self.left -= taken;
        Ok(taken)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// A byte offset a few bytes into the second window of `output`, whose
/// rows are lines: past the optional header and `WINDOW_ROWS` rows, with
/// more output to follow.
fn inside_second_window(output: &[u8], header: bool) -> usize {
    let lines = WINDOW_ROWS as usize + usize::from(header);
    let mut line_ends = output.iter().enumerate().filter(|(_, b)| **b == b'\n');
    let (first_window_end, _) = line_ends.nth(lines - 1).expect("two windows of rows");
    let cut = first_window_end + 10;
    assert!(cut < output.len(), "the second window must hold the cut");
    cut
}

/// A temporal schema whose `knows` table and op log both span more than
/// one window of rows.
const TEMPORAL_SCHEMA: &str = r#"
graph midtable {
  node Person [count = 300] {
    country: text = dictionary("countries");
    temporal { arrival = date_between("2015-01-01", "2017-01-01"); }
  }
  edge knows: Person -- Person {
    structure = rmat(edge_factor = 4);
    temporal {
      arrival = date_between("2015-01-01", "2017-01-01");
      lifetime = uniform(10, 200);
    }
  }
}
"#;

fn temporal_generator(threads: usize) -> DataSynth {
    DataSynth::from_dsl(TEMPORAL_SCHEMA)
        .unwrap()
        .with_seed(3)
        .with_threads(threads)
}

/// Run the temporal schema's `knows` table into `out`.
fn knows_into<W: std::io::Write>(
    threads: usize,
    format: TableFormat,
    out: W,
) -> (Result<(), PipelineError>, TableSink<W>) {
    let generator = temporal_generator(threads);
    let mut sink = TableSink::new("knows", format, out);
    let outcome = generator.session().unwrap().run_into(&mut sink).map(|_| ());
    (outcome, sink)
}

/// Run the temporal schema's op log into `out`.
fn op_log_into<W: std::io::Write>(
    threads: usize,
    format: TableFormat,
    out: W,
) -> (Result<(), PipelineError>, TemporalSink<W>) {
    let generator = temporal_generator(threads);
    let mut sink = TemporalSink::new(generator.schema(), out, format).unwrap();
    let session = generator.session().unwrap().with_ops(true);
    let outcome = session.run_into(&mut sink).map(|_| ());
    (outcome, sink)
}

/// The failing-sink matrix above fails whole callbacks; the write path
/// hands a table to its writer a window at a time, so a writer can also
/// fail *inside* a table, after earlier windows were accepted. That must
/// end the run in `SinkError::Io` with the table not counted as written.
#[test]
fn a_writer_failing_mid_table_ends_in_an_io_error_under_both_writing_sinks() {
    for format in [TableFormat::Csv, TableFormat::Jsonl] {
        let header = format == TableFormat::Csv;

        // TableSink: one table of the run into the failing writer.
        let (outcome, whole) = knows_into(1, format, Vec::new());
        outcome.unwrap();
        let cut = inside_second_window(&whole.into_inner(), header);
        for threads in [1, matrix_threads()] {
            let (outcome, sink) = knows_into(threads, format, FailAfter { left: cut });
            assert!(
                matches!(outcome, Err(PipelineError::Sink(SinkError::Io(_)))),
                "TableSink {format:?} at {threads} threads: {outcome:?}"
            );
            assert_eq!(sink.rows_written(), 0, "a torn table is not a written one");
            assert_eq!(sink.into_inner().left, 0, "the first window was accepted");
        }

        // TemporalSink: the op log, whose rows go through the same windows.
        let (outcome, whole) = op_log_into(1, format, Vec::new());
        outcome.unwrap();
        let cut = inside_second_window(&whole.into_inner(), header);
        for threads in [1, matrix_threads()] {
            let (outcome, mut sink) = op_log_into(threads, format, FailAfter { left: cut });
            assert!(
                matches!(outcome, Err(PipelineError::Sink(SinkError::Io(_)))),
                "TemporalSink {format:?} at {threads} threads: {outcome:?}"
            );
            assert!(
                sink.contributed_tables().is_empty(),
                "a torn op log contributes no $ops row"
            );
            assert_eq!(sink.into_inner().left, 0, "the first window was accepted");
        }
    }
}

/// Parse one RFC-4180 escaped field back (inverse of `csv_escape`).
fn csv_unescape(field: &str) -> String {
    if let Some(inner) = field
        .strip_prefix('"')
        .and_then(|rest| rest.strip_suffix('"'))
    {
        let mut out = String::with_capacity(inner.len());
        let mut chars = inner.chars();
        while let Some(c) = chars.next() {
            if c == '"' {
                // An escaped quote is two quotes; skip the second.
                assert_eq!(chars.next(), Some('"'), "lone quote inside quoted field");
            }
            out.push(c);
        }
        out
    } else {
        field.to_owned()
    }
}

/// Split one CSV record into raw (still-escaped) fields.
fn split_record(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut current = String::new();
    let mut in_quotes = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '"' if in_quotes => {
                current.push('"');
                if chars.peek() == Some(&'"') {
                    current.push(chars.next().unwrap());
                } else {
                    in_quotes = false;
                }
            }
            '"' => {
                in_quotes = true;
                current.push('"');
            }
            ',' if !in_quotes => fields.push(std::mem::take(&mut current)),
            c => current.push(c),
        }
    }
    fields.push(current);
    fields
}

fn arb_field() -> impl Strategy<Value = String> {
    // Bias toward the characters that exercise quoting: comma, quote,
    // newline, CR, plus plain ASCII.
    prop::collection::vec(0u8..96, 0..24).prop_map(|bytes| {
        bytes
            .into_iter()
            .map(|b| match b {
                0..=11 => ',',
                12..=23 => '"',
                24..=29 => '\n',
                30..=33 => '\r',
                b => (b' ' + (b % 64)) as char,
            })
            .collect()
    })
}

proptest! {
    /// Any field survives escape -> record-split -> unescape, even inside
    /// a multi-field record.
    #[test]
    fn csv_escape_roundtrips(a in arb_field(), b in arb_field()) {
        let record = format!("{},{}", csv_escape(&a), csv_escape(&b));
        let fields = split_record(&record);
        prop_assert_eq!(fields.len(), 2);
        prop_assert_eq!(csv_unescape(&fields[0]), a);
        prop_assert_eq!(csv_unescape(&fields[1]), b);
    }

    /// Escaping is the identity exactly when no separator is present.
    #[test]
    fn csv_escape_identity_iff_plain(s in arb_field()) {
        let escaped = csv_escape(&s);
        let plain = !s.contains([',', '"', '\n', '\r']);
        prop_assert_eq!(escaped == s, plain);
    }
}
