//! `datasynth` — command-line property graph generation.
//!
//! ```sh
//! datasynth schema.dsl --seed 42 --out ./data --format csv
//! datasynth schema.dsl --plan           # show the dependency analysis
//! datasynth schema.dsl --stats          # print structural statistics
//! datasynth schema.dsl --workload q/ --queries 100   # benchmark queries
//! datasynth schema.dsl --ops updates/                # update-stream op log
//! datasynth schema.dsl --shard 0/3 --out ./data      # one shard of three
//! datasynth --merge-manifests d/shard-0-of-3 d/shard-1-of-3 d/shard-2-of-3
//! ```
//!
//! `--shard I/K` generates only shard `I` of a `K`-way row partition:
//! concatenating the `K` shard directories' files in shard order is
//! byte-identical to the unsharded run, so the shards can be produced on
//! `K` different machines. Every `--out` run writes a `manifest.json`
//! (row windows + content hashes); `--merge-manifests` validates a shard
//! set and fuses their manifests into the single-run manifest.
//!
//! Everything runs in **one generation pass**: export (any format mix),
//! statistics and workload curation are [`GraphSink`]s fanned out behind a
//! [`MultiSink`]. The CLI itself never assembles a `PropertyGraph`; peak
//! memory is whatever the attached sinks retain — pure export streams
//! table by table, while `--stats` holds homogeneous edge tables and
//! `--workload` holds the tables curation samples until the run ends.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use datasynth::analysis::StatsSink;
use datasynth::prelude::*;
use datasynth::temporal::{ops_file_name, OpsFormat, TemporalSink};
use datasynth::workload::{QueryMix, WorkloadSink};

struct Args {
    schema_path: PathBuf,
    seed: u64,
    out: Option<PathBuf>,
    format: Format,
    threads: Option<usize>,
    shard: Option<ShardSpec>,
    merge_manifests: Vec<PathBuf>,
    list_generators: bool,
    plan_only: bool,
    progress: bool,
    report: Option<PathBuf>,
    stats: bool,
    workload: Option<PathBuf>,
    queries: Option<usize>,
    query_mix: Option<QueryMix>,
    ops: Option<PathBuf>,
    ops_format: OpsFormat,
}

#[derive(PartialEq, Clone, Copy)]
enum Format {
    Csv,
    Jsonl,
    Both,
}

const USAGE: &str = "\
usage: datasynth <schema.dsl> [options]
       datasynth lint <schema.dsl> [lint options]
       datasynth serve --addr HOST:PORT [serve options]
       datasynth bench-workload <schema.dsl> [bench options]

bench options:
  --seed N          generation seed (default 42; ignored with --from,
                    which replays the directory manifest's seed)
  --threads N       generation thread budget; timing-side only — the
                    stable half of the report is byte-identical at any
                    thread count
  --mix SPEC        kind:weight list, same kinds as --query-mix
                    (default: uniform over the kinds the schema derives)
  --queries N       query instances to curate (default 64)
  --warmup N        unmeasured full-mix rounds before timing (default 1)
  --iters N         measured full-mix rounds (default 10)
  --from DIR        load the graph from an exported --out directory
                    (CSV or JSONL + manifest.json) instead of generating
  --report FILE     bench report path (default bench_report.json);
                    '-' prints to stdout
  --metrics FILE    write the Prometheus-encoded per-template query
                    latency histograms to FILE; '-' prints to stdout

lint options:
  --format F        text | json (default text); json is deterministic and
                    byte-identical to the server's 422 lint response
  --deny warnings   treat warnings as errors (exit code 1)

serve options:
  --addr HOST:PORT  bind address (required; port 0 picks a free port)
  --threads N       generation-thread budget shared by concurrent runs
                    (default: all available cores)
  --workers N       HTTP worker threads (default 4)
  --max-graphs N    schema cache capacity (default 64, FIFO eviction)

options:
  --seed N          master seed (default 42); same seed => identical output
  --out DIR         export directory (default: no export)
  --format F        csv | jsonl | both (default csv)
  --threads N       worker threads (default: all available cores); output
                    is byte-identical at any thread count
  --shard I/K       generate only shard I of a K-way row partition
                    (0 <= I < K); with --out, files land in a
                    shard-I-of-K/ subdirectory, and concatenating all K
                    shards' files in order is byte-identical to the full
                    run. Each shard writes a manifest.json.
  --merge-manifests DIR...
                    read the manifest.json of each shard directory,
                    validate coverage/ordering, and fuse them into the
                    single-run manifest (written to --out, else printed);
                    no schema file is taken in this mode
  --list-generators print the registered structure and property generator
                    names and exit (no schema file needed)
  --plan            print the dependency-analyzed task plan and exit;
                    with --shard, also show each task's shard mode and
                    row window
  --progress        per-task start/finish lines on stderr, with row
                    counts, wall time and row throughput per task
  --report FILE     write a structured JSON run report to FILE
                    (per-task timings, per-table rows/bytes/hashes,
                    thread/shard config); '-' prints to stdout
  --stats           print structural statistics of the generated graph
  --workload DIR    derive a benchmark query workload into DIR
                    (Cypher + Gremlin per query, plus workload.json)
  --queries N       number of workload queries (default 100)
  --query-mix SPEC  kind:weight list, e.g. point:2,expand1:5,scan:1
                    (kinds: point, expand1, expand2, scan, path, agg,
                     asof, window, wagg;
                     default: uniform over the kinds the schema derives)
  --ops DIR         write the deterministic update-stream op log (the
                    dynamic-graph companion of the snapshot) to DIR;
                    requires temporal { ... } annotations in the schema.
                    With --shard, the file lands in a shard-I-of-K/
                    subdirectory and concatenating all K shards' op files
                    in order is byte-identical to the full run
  --ops-format F    csv | jsonl op-log encoding (default csv)
  --help            this text
";

/// The arguments after the (sub)command name, consumed flag by flag. All
/// four argument loops read values through it, so a missing or malformed
/// value is reported the same way everywhere: "`--flag` takes `what`".
struct Flags(std::iter::Peekable<std::iter::Skip<std::env::Args>>);

impl Flags {
    /// Everything after the first `skip` arguments (program name and, for
    /// subcommands, the subcommand).
    fn after(skip: usize) -> Self {
        Flags(std::env::args().skip(skip).peekable())
    }

    fn next(&mut self) -> Option<String> {
        self.0.next()
    }

    /// The value following `flag`, as given.
    fn value(&mut self, flag: &str, what: &str) -> Result<String, String> {
        self.next().ok_or_else(|| format!("{flag} takes {what}"))
    }

    /// The value following `flag`, parsed as a `T`.
    fn parsed<T: std::str::FromStr>(&mut self, flag: &str, what: &str) -> Result<T, String> {
        self.next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("{flag} takes {what}"))
    }
}

/// Parse `I/K` into a validated [`ShardSpec`].
fn parse_shard(spec: &str) -> Result<ShardSpec, String> {
    let (i, k) = spec
        .split_once('/')
        .ok_or_else(|| format!("--shard takes I/K (e.g. 0/3), got {spec:?}"))?;
    let index: u64 = i
        .parse()
        .map_err(|_| format!("--shard index must be an integer, got {i:?}"))?;
    let count: u64 = k
        .parse()
        .map_err(|_| format!("--shard count must be an integer, got {k:?}"))?;
    ShardSpec::new(index, count).map_err(|e| e.to_string())
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        schema_path: PathBuf::new(),
        seed: 42,
        out: None,
        format: Format::Csv,
        threads: None,
        shard: None,
        merge_manifests: Vec::new(),
        list_generators: false,
        plan_only: false,
        progress: false,
        report: None,
        stats: false,
        workload: None,
        queries: None,
        query_mix: None,
        ops: None,
        ops_format: OpsFormat::Csv,
    };
    let mut positional = Vec::new();
    let mut flags = Flags::after(1);
    while let Some(a) = flags.next() {
        match a.as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--seed" => args.seed = flags.parsed(&a, "an integer")?,
            "--out" => args.out = Some(flags.value(&a, "a directory")?.into()),
            "--format" => {
                args.format = match flags.next().as_deref() {
                    Some("csv") => Format::Csv,
                    Some("jsonl") => Format::Jsonl,
                    Some("both") => Format::Both,
                    other => return Err(format!("unknown format {other:?}")),
                };
            }
            "--threads" => args.threads = Some(flags.parsed(&a, "an integer")?),
            "--shard" => args.shard = Some(parse_shard(&flags.value(&a, "I/K (e.g. 0/3)")?)?),
            "--merge-manifests" => {
                while let Some(dir) = flags.0.next_if(|dir| !dir.starts_with('-')) {
                    args.merge_manifests.push(dir.into());
                }
                if args.merge_manifests.is_empty() {
                    return Err("--merge-manifests takes one or more shard directories".into());
                }
            }
            "--list-generators" => args.list_generators = true,
            "--plan" => args.plan_only = true,
            "--progress" => args.progress = true,
            "--report" => args.report = Some(flags.value(&a, "a file path")?.into()),
            "--stats" => args.stats = true,
            "--workload" => args.workload = Some(flags.value(&a, "a directory")?.into()),
            "--queries" => args.queries = Some(flags.parsed(&a, "an integer")?),
            "--query-mix" => {
                let spec = flags.value(&a, "a kind:weight list")?;
                args.query_mix = Some(QueryMix::parse(&spec).map_err(|e| e.to_string())?);
            }
            "--ops" => args.ops = Some(flags.value(&a, "a directory")?.into()),
            "--ops-format" => {
                let kw = flags.value(&a, "csv or jsonl")?;
                args.ops_format = OpsFormat::from_extension(&kw)
                    .ok_or_else(|| format!("unknown ops format {kw:?} (csv | jsonl)"))?;
            }
            other if !other.starts_with('-') => positional.push(PathBuf::from(other)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    let schemaless_mode = args.list_generators || !args.merge_manifests.is_empty();
    match positional.as_slice() {
        // Loudly reject a schema alongside schema-free modes rather than
        // silently skipping generation.
        [_, ..] if schemaless_mode => {
            return Err(if args.list_generators {
                "--list-generators takes no schema file".into()
            } else {
                "--merge-manifests takes no schema file, only shard directories".into()
            });
        }
        [] if schemaless_mode => {}
        [one] => args.schema_path = one.clone(),
        _ => return Err("expected exactly one schema file".into()),
    }
    if args.workload.is_none() && (args.queries.is_some() || args.query_mix.is_some()) {
        return Err("--queries / --query-mix require --workload DIR".into());
    }
    if !args.merge_manifests.is_empty() && args.shard.is_some() {
        return Err("--merge-manifests cannot be combined with --shard".into());
    }
    Ok(args)
}

/// Decorator sink: records counts and edge cardinalities for the post-run
/// summary lines, forwarding every event untouched (no clones) to the
/// wrapped sink. A decorator must forward *all* events — relying on the
/// trait's drop-by-default bodies would swallow tables downstream.
struct SummarySink<'a> {
    inner: &'a mut dyn GraphSink,
    node_counts: BTreeMap<String, u64>,
    edge_summaries: BTreeMap<String, (String, String, u64)>,
}

impl<'a> SummarySink<'a> {
    fn new(inner: &'a mut dyn GraphSink) -> Self {
        Self {
            inner,
            node_counts: BTreeMap::new(),
            edge_summaries: BTreeMap::new(),
        }
    }

    fn total_nodes(&self) -> u64 {
        self.node_counts.values().sum()
    }

    fn total_edges(&self) -> u64 {
        self.edge_summaries.values().map(|(_, _, n)| n).sum()
    }
}

impl GraphSink for SummarySink<'_> {
    fn begin(&mut self, manifest: &SinkManifest) -> Result<(), SinkError> {
        self.inner.begin(manifest)
    }

    fn table_rows(
        &mut self,
        table: &str,
        rows: std::ops::Range<u64>,
        total: u64,
    ) -> Result<(), SinkError> {
        self.inner.table_rows(table, rows, total)
    }

    fn node_count(&mut self, node_type: &str, count: u64) -> Result<(), SinkError> {
        self.node_counts.insert(node_type.to_owned(), count);
        self.inner.node_count(node_type, count)
    }

    fn node_property(
        &mut self,
        node_type: &str,
        property: &str,
        table: datasynth::tables::PropertyTable,
    ) -> Result<(), SinkError> {
        self.inner.node_property(node_type, property, table)
    }

    fn edges(
        &mut self,
        edge_type: &str,
        source: &str,
        target: &str,
        table: datasynth::tables::EdgeTable,
    ) -> Result<(), SinkError> {
        self.edge_summaries.insert(
            edge_type.to_owned(),
            (source.to_owned(), target.to_owned(), table.len()),
        );
        self.inner.edges(edge_type, source, target, table)
    }

    fn edge_property(
        &mut self,
        edge_type: &str,
        property: &str,
        table: datasynth::tables::PropertyTable,
    ) -> Result<(), SinkError> {
        self.inner.edge_property(edge_type, property, table)
    }

    fn finish(&mut self) -> Result<(), SinkError> {
        self.inner.finish()
    }

    fn contributed_tables(&mut self) -> Vec<(String, datasynth::core::TableRows)> {
        self.inner.contributed_tables()
    }
}

/// Registry introspection behind `--list-generators`: the names any
/// schema handed to this binary can resolve.
fn list_generators() {
    println!("structure generators (structure = name(...)):");
    for name in StructureRegistry::builtin().names() {
        println!("  {name}");
    }
    println!("property generators (property: type = name(...)):");
    for name in PropertyRegistry::builtin().names() {
        println!("  {name}");
    }
}

/// `--merge-manifests`: load every shard directory's manifest, fuse them,
/// and write (or print) the resulting single-run manifest.
fn merge_manifests(dirs: &[PathBuf], out: Option<&PathBuf>) -> Result<(), String> {
    let manifests: Vec<SinkManifest> = dirs
        .iter()
        .map(|d| SinkManifest::load(d).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;
    let merged = SinkManifest::merge(&manifests).map_err(|e| e.to_string())?;
    eprintln!(
        "merged {} shard manifests of {} (seed {}): {} tables, content hash {:016x}",
        manifests.len(),
        merged.graph_name,
        merged.seed,
        merged.tables.len(),
        merged.content_hash()
    );
    for (name, rows) in &merged.tables {
        eprintln!(
            "  {name}: {} rows, hash {:016x}",
            rows.total, rows.content_hash
        );
        // Per-shard coverage of this table, in shard order: which global
        // row window each input manifest contributed.
        let mut coverage = String::new();
        for m in &manifests {
            if let Some(r) = m.tables.get(name) {
                coverage.push_str(&format!(" {}:[{}..{})", m.shard.index, r.lo, r.hi));
            }
        }
        eprintln!("    shard coverage:{coverage}");
    }
    match out {
        Some(dir) => {
            merged
                .save(dir)
                .map_err(|e| format!("cannot write merged manifest: {e}"))?;
            eprintln!("merged manifest -> {}", dir.join(MANIFEST_FILE).display());
        }
        None => print!("{}", merged.to_json()),
    }
    Ok(())
}

/// Read the schema file at `path`, build the command's `T` from its text
/// with `parse` (each command words parse errors its own way), and put the
/// schema through the lint gate every generating command applies: error
/// diagnostics abort before any row is generated, warnings and notes
/// (DS008 when a schema derives no executable workload, ...) go to stderr.
/// `datasynth lint` gives the same report standalone (and as JSON).
fn load_linted<T>(
    path: &Path,
    parse: impl FnOnce(&str) -> Result<T, String>,
    schema_of: impl FnOnce(&T) -> &Schema,
) -> Result<T, String> {
    let src = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let parsed = parse(&src)?;
    let report = datasynth::lint::lint(schema_of(&parsed));
    if !report.is_clean() {
        let origin = path.display().to_string();
        let text = datasynth::lint::render_text(&report, Some(&origin), Some(&src));
        if report.has_errors() {
            return Err(format!("schema rejected by lint:\n{text}"));
        }
        eprint!("{text}");
    }
    Ok(parsed)
}

fn run(args: &Args) -> Result<(), String> {
    if args.list_generators {
        list_generators();
        return Ok(());
    }
    if !args.merge_manifests.is_empty() {
        return merge_manifests(&args.merge_manifests, args.out.as_ref());
    }
    let from_dsl = |src: &str| DataSynth::from_dsl(src).map_err(|e| e.to_string());
    let mut generator =
        load_linted(&args.schema_path, from_dsl, DataSynth::schema)?.with_seed(args.seed);
    if let Some(t) = args.threads {
        generator = generator.with_threads(t);
    }

    if args.plan_only {
        match args.shard {
            None => {
                println!("execution plan for {}:", args.schema_path.display());
                for (i, task) in generator
                    .plan()
                    .map_err(|e| e.to_string())?
                    .tasks
                    .iter()
                    .enumerate()
                {
                    println!("  {i:>3}. {task}");
                }
            }
            Some(spec) => {
                println!(
                    "execution plan for {}, shard {spec}:",
                    args.schema_path.display()
                );
                let plan = generator
                    .shard_plan(spec.index, spec.count)
                    .map_err(|e| e.to_string())?;
                for (i, t) in plan.tasks.iter().enumerate() {
                    match (t.mode, &t.rows) {
                        (ShardMode::Scalar, _) => println!("  {i:>3}. {} [scalar]", t.task),
                        (ShardMode::Recompute, Some(rows)) => println!(
                            "  {i:>3}. {} [recompute, emit rows {}..{}]",
                            t.task, rows.start, rows.end
                        ),
                        (ShardMode::Recompute, None) => println!(
                            "  {i:>3}. {} [recompute, rows resolved at run time]",
                            t.task
                        ),
                        (ShardMode::Windowed, Some(rows)) => println!(
                            "  {i:>3}. {} [windowed, rows {}..{}]",
                            t.task, rows.start, rows.end
                        ),
                        (ShardMode::Windowed, None) => {
                            println!("  {i:>3}. {} [windowed, rows resolved at run time]", t.task)
                        }
                    }
                }
            }
        }
        return Ok(());
    }

    // A sharded run nests its files under shard-I-of-K/ so K shards can
    // target the same --out without clobbering each other.
    let out_dir: Option<PathBuf> = args.out.as_ref().map(|dir| match args.shard {
        Some(spec) => dir.join(format!("shard-{}-of-{}", spec.index, spec.count)),
        None => dir.clone(),
    });

    // --report attaches one shared registry to the scheduler and every
    // file sink; without it no registry exists and nothing is recorded.
    let metrics = args
        .report
        .as_ref()
        .map(|_| Arc::new(MetricsRegistry::new()));

    // One generation pass: every consumer is a sink behind the fan-out.
    let mut csv_sink = out_dir.as_ref().and_then(|dir| {
        (args.format == Format::Csv || args.format == Format::Both).then(|| {
            let sink = CsvSink::new(dir);
            match &metrics {
                Some(m) => sink.with_metrics(Arc::clone(m)),
                None => sink,
            }
        })
    });
    let mut jsonl_sink = out_dir.as_ref().and_then(|dir| {
        (args.format == Format::Jsonl || args.format == Format::Both).then(|| {
            let sink = JsonlSink::new(dir);
            match &metrics {
                Some(m) => sink.with_metrics(Arc::clone(m)),
                None => sink,
            }
        })
    });
    // The op log mirrors --out's sharding layout so K shard runs can
    // target the same --ops directory.
    let ops_dir: Option<PathBuf> = args.ops.as_ref().map(|dir| match args.shard {
        Some(spec) => dir.join(format!("shard-{}-of-{}", spec.index, spec.count)),
        None => dir.clone(),
    });
    let mut temporal_sink = match &ops_dir {
        Some(dir) => {
            std::fs::create_dir_all(dir)
                .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
            let path = dir.join(ops_file_name(args.ops_format));
            let file = std::fs::File::create(&path)
                .map_err(|e| format!("cannot create {}: {e}", path.display()))?;
            let sink = TemporalSink::new(
                generator.schema(),
                std::io::BufWriter::new(file),
                args.ops_format,
            )
            .map_err(|e| e.to_string())?;
            Some(match &metrics {
                Some(m) => sink.with_metrics(Arc::clone(m)),
                None => sink,
            })
        }
        None => None,
    };
    let mut stats_sink = args.stats.then(StatsSink::new);
    let mut workload_sink = args.workload.as_ref().map(|_| {
        WorkloadSink::new(generator.schema())
            .with_seed(args.seed)
            .with_mix(args.query_mix.clone().unwrap_or_default())
            .with_count(args.queries.unwrap_or(100))
    });

    if let Some(dir) = &out_dir {
        // The sinks also create the directory; doing it here first turns a
        // permissions/path problem into one clear CLI error instead of a
        // per-format export failure.
        std::fs::create_dir_all(dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
    }

    let mut sinks = MultiSink::new();
    if let Some(s) = csv_sink.as_mut() {
        sinks.push(s);
    }
    if let Some(s) = jsonl_sink.as_mut() {
        sinks.push(s);
    }
    if let Some(s) = stats_sink.as_mut() {
        sinks.push(s);
    }
    if let Some(s) = workload_sink.as_mut() {
        sinks.push(s);
    }
    if let Some(s) = temporal_sink.as_mut() {
        sinks.push(s);
    }

    let mut session = generator.session().map_err(|e| e.to_string())?;
    if args.ops.is_some() {
        session = session.with_ops(true);
    }
    if let Some(spec) = args.shard {
        session = session
            .shard(spec.index, spec.count)
            .map_err(|e| e.to_string())?;
    }
    if let Some(m) = &metrics {
        session = session.with_metrics(Arc::clone(m));
    }
    if args.progress {
        let run_started = std::time::Instant::now();
        session = session.on_task(move |p| match p.phase {
            TaskPhase::Started => {
                eprintln!(
                    "[{:>3}/{}] {:>8.1}s {} ...",
                    p.index + 1,
                    p.total,
                    run_started.elapsed().as_secs_f64(),
                    p.task
                );
            }
            TaskPhase::Finished => {
                let rows = p.rows.unwrap_or(0);
                let elapsed = p.elapsed.unwrap_or_default();
                let rate = if elapsed.as_secs_f64() > 0.0 {
                    rows as f64 / elapsed.as_secs_f64()
                } else {
                    0.0
                };
                eprintln!(
                    "[{:>3}/{}] {:>8.1}s {} done: {rows} rows in {:.1} ms ({rate:.0} rows/s)",
                    p.index + 1,
                    p.total,
                    run_started.elapsed().as_secs_f64(),
                    p.task,
                    elapsed.as_secs_f64() * 1e3
                );
            }
            _ => {}
        });
    }

    let started = std::time::Instant::now();
    let mut summary = SummarySink::new(&mut sinks);
    let report = session.run_into(&mut summary).map_err(|e| e.to_string())?;
    match args.shard {
        None => eprintln!(
            "generated {} nodes, {} edges in {:.2}s (seed {})",
            summary.total_nodes(),
            summary.total_edges(),
            started.elapsed().as_secs_f64(),
            args.seed
        ),
        Some(spec) => eprintln!(
            "shard {spec}: emitted {} edge rows (of {} total nodes) in {:.2}s (seed {})",
            summary.total_edges(),
            summary.total_nodes(),
            started.elapsed().as_secs_f64(),
            args.seed
        ),
    }

    for (name, count) in &summary.node_counts {
        println!("node {name}: {count} instances");
    }
    for (name, (source, target, count)) in &summary.edge_summaries {
        match args.shard {
            None => println!("edge {name}: {count} edges ({source} -> {target})"),
            Some(_) => println!("edge {name}: {count} edge rows in shard ({source} -> {target})"),
        }
    }

    if let Some(dir) = &out_dir {
        report
            .save(dir)
            .map_err(|e| format!("cannot write manifest: {e}"))?;
    }

    if let Some(path) = &args.report {
        let json = report.to_json();
        if path.as_os_str() == "-" {
            print!("{json}");
        } else {
            std::fs::write(path, &json)
                .map_err(|e| format!("cannot write report {}: {e}", path.display()))?;
            eprintln!("run report -> {}", path.display());
        }
    }

    if let Some(stats) = &stats_sink {
        println!("\nstructural statistics:");
        for r in stats.reports() {
            if let Some(s) = &r.degree {
                println!(
                    "  {}: degree min {} max {} mean {:.2} var {:.1}",
                    r.edge_type, s.min, s.max, s.mean, s.variance
                );
            }
            println!(
                "  {}: largest component {} / {} ({:.1}%)",
                r.edge_type,
                r.largest_component,
                r.nodes,
                100.0 * r.largest_component as f64 / r.nodes as f64
            );
            if let Some(a) = r.assortativity {
                println!("  {}: degree assortativity {a:.3}", r.edge_type);
            }
        }
    }

    if let Some(dir) = &out_dir {
        eprintln!("exported to {}", dir.display());
    }

    if let (Some(dir), Some(rows)) = (&ops_dir, report.tables.get("$ops")) {
        eprintln!(
            "op log: {} ops (window {}..{} of {}) -> {}",
            rows.hi - rows.lo,
            rows.lo,
            rows.hi,
            rows.total,
            dir.join(ops_file_name(args.ops_format)).display()
        );
    }

    if let (Some(dir), Some(sink)) = (&args.workload, workload_sink.as_mut()) {
        let workload = sink
            .take_workload()
            .expect("workload curated when the run finishes");
        workload
            .write_to(dir)
            .map_err(|e| format!("workload export: {e}"))?;
        eprintln!(
            "workload: {} queries over {} templates ({} kinds) -> {}",
            workload.queries.len(),
            workload.templates.len(),
            workload.instantiated_kinds().len(),
            dir.display()
        );
    }
    Ok(())
}

/// `datasynth lint`: run static analysis over a schema file and exit
/// 0 (clean / advisory only) or 1 (errors, or warnings under
/// `--deny warnings`). `--format json` prints the same canonical JSON
/// the server returns in its 422 lint response.
fn run_lint() -> Result<ExitCode, String> {
    use datasynth::lint::{lint, render_text};

    let mut path: Option<PathBuf> = None;
    let mut deny_warnings = false;
    let mut json = false;
    let mut flags = Flags::after(2);
    while let Some(a) = flags.next() {
        match a.as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--deny" => match flags.next().as_deref() {
                Some("warnings") => deny_warnings = true,
                other => return Err(format!("--deny takes `warnings`, got {other:?}")),
            },
            "--format" => {
                json = match flags.next().as_deref() {
                    Some("text") => false,
                    Some("json") => true,
                    other => return Err(format!("unknown lint format {other:?} (text | json)")),
                };
            }
            other if !other.starts_with('-') => {
                if path.replace(PathBuf::from(other)).is_some() {
                    return Err("lint takes exactly one schema file".into());
                }
            }
            other => return Err(format!("unknown lint flag {other:?}")),
        }
    }
    let path = path.ok_or("lint takes a schema file")?;
    let src = std::fs::read_to_string(&path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let schema = parse_schema(&src).map_err(|e| format!("{}:{e}", path.display()))?;
    let report = lint(&schema);
    if json {
        println!("{}", report.to_json());
    } else {
        print!(
            "{}",
            render_text(&report, Some(&path.display().to_string()), Some(&src))
        );
    }
    Ok(if report.fails(deny_warnings) {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

/// `datasynth bench-workload`: generate (or read back) a graph, load it
/// into the embedded engine, execute the derived query mix, and write a
/// bench report. The report's stable half (result counts, cardinality
/// bands, store sizes) is deterministic per schema + seed; timings live
/// under separate `timing` keys so CI can diff the rest.
fn run_bench_workload() -> Result<ExitCode, String> {
    use datasynth::engine::Bench;

    let mut path: Option<PathBuf> = None;
    let mut seed: u64 = 42;
    let mut threads: Option<usize> = None;
    let mut mix: Option<QueryMix> = None;
    let mut queries: Option<usize> = None;
    let mut warmup: Option<u32> = None;
    let mut iters: Option<u32> = None;
    let mut from: Option<PathBuf> = None;
    let mut report_path = PathBuf::from("bench_report.json");
    let mut metrics_path: Option<PathBuf> = None;
    let mut flags = Flags::after(2);
    while let Some(a) = flags.next() {
        match a.as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--seed" => seed = flags.parsed(&a, "an integer")?,
            "--threads" => threads = Some(flags.parsed(&a, "an integer")?),
            "--mix" => {
                let spec = flags.value(&a, "a kind:weight list")?;
                mix = Some(QueryMix::parse(&spec).map_err(|e| e.to_string())?);
            }
            "--queries" => queries = Some(flags.parsed(&a, "an integer")?),
            "--warmup" => warmup = Some(flags.parsed(&a, "an integer")?),
            "--iters" => iters = Some(flags.parsed(&a, "an integer")?),
            "--from" => from = Some(flags.value(&a, "a directory")?.into()),
            "--report" => report_path = flags.value(&a, "a file path")?.into(),
            "--metrics" => metrics_path = Some(flags.value(&a, "a file path")?.into()),
            other if !other.starts_with('-') => {
                if path.replace(PathBuf::from(other)).is_some() {
                    return Err("bench-workload takes exactly one schema file".into());
                }
            }
            other => return Err(format!("unknown bench-workload flag {other:?}")),
        }
    }
    let path = path.ok_or("bench-workload takes a schema file")?;
    let parse = |src: &str| parse_schema(src).map_err(|e| format!("{}:{e}", path.display()));
    let schema = load_linted(&path, parse, |schema| schema)?;

    let metrics = Arc::new(MetricsRegistry::new());
    let mut bench = Bench::new(&schema)
        .with_seed(seed)
        .with_metrics(Arc::clone(&metrics));
    if let Some(t) = threads {
        bench = bench.with_threads(t);
    }
    if let Some(m) = mix {
        bench = bench.with_mix(m);
    }
    if let Some(q) = queries {
        bench = bench.with_queries(q);
    }
    if let Some(w) = warmup {
        bench = bench.with_warmup(w);
    }
    if let Some(i) = iters {
        bench = bench.with_iters(i);
    }
    if let Some(d) = &from {
        bench = bench.from_dir(d);
    }
    let report = bench.run().map_err(|e| e.to_string())?;

    eprintln!(
        "loaded {} ({} nodes, {} edges, ~{} KiB store) in {:.1} ms + {:.1} ms index build (seed {})",
        report.graph,
        report.nodes,
        report.edges,
        report.memory_bytes / 1024,
        report.load_micros as f64 / 1e3,
        report.store_build_micros as f64 / 1e3,
        report.seed
    );
    eprintln!(
        "executed {} queries x {} rounds ({} warmup) over {} templates:",
        report.query_count,
        report.iters,
        report.warmup,
        report.templates.len()
    );
    for t in &report.templates {
        eprintln!(
            "  {:<28} {:>8.0} ops/s  p50 {:>6}us p95 {:>6}us p99 {:>6}us  \
             rows {} (expected {}), {}/{} in band",
            t.id,
            t.ops_per_sec,
            t.p50_micros,
            t.p95_micros,
            t.p99_micros,
            t.rows,
            t.expected_rows,
            t.in_band,
            t.queries
        );
    }

    if report_path.as_os_str() == "-" {
        print!("{}", report.to_json());
    } else {
        report
            .save(&report_path)
            .map_err(|e| format!("cannot write report {}: {e}", report_path.display()))?;
        eprintln!("bench report -> {}", report_path.display());
    }
    if let Some(p) = &metrics_path {
        let prom = metrics.snapshot().to_prometheus();
        if p.as_os_str() == "-" {
            print!("{prom}");
        } else {
            std::fs::write(p, &prom)
                .map_err(|e| format!("cannot write metrics {}: {e}", p.display()))?;
            eprintln!("query metrics -> {}", p.display());
        }
    }

    Ok(if report.all_in_band() {
        ExitCode::SUCCESS
    } else {
        eprintln!("error: executed row counts fell outside the curated cardinality bands");
        ExitCode::FAILURE
    })
}

/// `datasynth serve`: bring up the HTTP service and block forever.
fn run_serve() -> Result<(), String> {
    use datasynth::server::{Server, ServerConfig};
    let mut addr: Option<String> = None;
    let mut threads: Option<usize> = None;
    let mut workers: Option<usize> = None;
    let mut max_graphs: Option<usize> = None;
    let mut flags = Flags::after(2);
    while let Some(a) = flags.next() {
        match a.as_str() {
            "--help" | "-h" => return Err(String::new()),
            "--addr" => addr = Some(flags.value(&a, "HOST:PORT")?),
            "--threads" => threads = Some(flags.parsed(&a, "an integer")?),
            "--workers" => workers = Some(flags.parsed(&a, "an integer")?),
            "--max-graphs" => max_graphs = Some(flags.parsed(&a, "an integer")?),
            other => return Err(format!("unknown serve flag {other:?}")),
        }
    }
    let mut config = ServerConfig::new(addr.ok_or("serve requires --addr HOST:PORT")?);
    if let Some(t) = threads {
        config.gen_threads = t;
    }
    if let Some(w) = workers {
        config.workers = w;
    }
    if let Some(n) = max_graphs {
        config.max_graphs = n;
    }
    let workers = config.workers;
    let gen_threads = config.gen_threads;
    let handle = Server::start(config).map_err(|e| format!("cannot start server: {e}"))?;
    // The CI smoke job and scripts wait for this exact line to know the
    // listener is up (and, with port 0, which port it got).
    println!(
        "datasynth-server listening on http://{} ({workers} workers, {gen_threads} generation threads)",
        handle.addr()
    );
    handle.join();
    Ok(())
}

/// Turn a command's outcome into the process exit code. An argument
/// error prints the usage text and exits 2 — or 0 when the "error" is the
/// empty message `--help` produces.
fn exit_with(outcome: Result<ExitCode, String>) -> ExitCode {
    match outcome {
        Ok(code) => code,
        Err(msg) => {
            let code = if msg.is_empty() {
                ExitCode::SUCCESS
            } else {
                eprintln!("error: {msg}\n");
                ExitCode::from(2)
            };
            eprint!("{USAGE}");
            code
        }
    }
}

fn main() -> ExitCode {
    exit_with(match std::env::args().nth(1).as_deref() {
        Some("lint") => run_lint(),
        Some("bench-workload") => run_bench_workload(),
        Some("serve") => run_serve().map(|()| ExitCode::SUCCESS),
        // Generation: only argument errors print the usage text; a failed
        // run reports its error and exits 1.
        _ => parse_args().map(|args| match run(&args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(msg) => {
                eprintln!("error: {msg}");
                ExitCode::FAILURE
            }
        }),
    })
}
