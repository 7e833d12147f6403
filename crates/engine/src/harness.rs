//! The end-to-end bench harness: generate (or read back) a graph, load
//! it into a [`GraphStore`], derive and curate the workload, execute the
//! query mix, and report per-template throughput and latency.
//!
//! The report follows the [`RunReport`](datasynth_core::RunReport) JSON
//! idiom: one renderer with a `timings` switch, so
//! [`BenchReport::to_json_stable`] — everything except wall-clock-derived
//! fields — is byte-identical across machines, thread counts and reruns
//! of the same seed, and CI can diff it.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use datasynth_core::DataSynth;
use datasynth_schema::Schema;
use datasynth_telemetry::{Histogram, MetricsRegistry};
use datasynth_workload::{QueryMix, Workload, WorkloadGenerator};

use crate::error::EngineError;
use crate::exec::Executor;
use crate::reader::read_graph_dir;
use crate::sink::StoreSink;
use crate::store::GraphStore;

/// Metric family recording per-execution query latency, labelled by
/// template id.
pub const QUERY_MICROS_METRIC: &str = "datasynth_engine_query_micros";

/// Configures one bench run over a schema.
pub struct Bench<'a> {
    schema: &'a Schema,
    seed: u64,
    threads: usize,
    mix: QueryMix,
    queries: usize,
    warmup: u32,
    iters: u32,
    source_dir: Option<PathBuf>,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl<'a> Bench<'a> {
    /// A bench over `schema` with defaults: seed 42, 1 thread, uniform
    /// mix, 64 queries, 1 warmup round, 10 measured rounds.
    pub fn new(schema: &'a Schema) -> Self {
        Bench {
            schema,
            seed: 42,
            threads: 1,
            mix: QueryMix::uniform(),
            queries: 64,
            warmup: 1,
            iters: 10,
            source_dir: None,
            metrics: None,
        }
    }

    /// Generation seed (ignored with [`from_dir`](Self::from_dir), which
    /// uses the directory manifest's seed).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Generation thread budget. Affects wall-clock only — the generated
    /// graph, and therefore the whole stable report, is thread-count
    /// independent.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Query mix over template kinds.
    pub fn with_mix(mut self, mix: QueryMix) -> Self {
        self.mix = mix;
        self
    }

    /// Total query instances to curate.
    pub fn with_queries(mut self, queries: usize) -> Self {
        self.queries = queries;
        self
    }

    /// Unmeasured full-mix rounds before timing starts.
    pub fn with_warmup(mut self, warmup: u32) -> Self {
        self.warmup = warmup;
        self
    }

    /// Measured full-mix rounds.
    pub fn with_iters(mut self, iters: u32) -> Self {
        self.iters = iters.max(1);
        self
    }

    /// Load the graph from an exported `--out` directory (CSV or JSONL,
    /// with its `manifest.json`) instead of generating it. The schema
    /// must be the one the directory was generated from.
    pub fn from_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.source_dir = Some(dir.into());
        self
    }

    /// Record per-query latency into `metrics` as
    /// [`QUERY_MICROS_METRIC`]`{template}` histograms (and pass the
    /// registry to the generation session).
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Self {
        self.metrics = Some(metrics);
        self
    }

    /// Run the bench: load, curate, warm up, measure, report.
    pub fn run(self) -> Result<BenchReport, EngineError> {
        let load_started = Instant::now();
        let (graph, seed) = match &self.source_dir {
            Some(dir) => {
                let (graph, manifest) = read_graph_dir(dir)?;
                (graph, manifest.seed)
            }
            None => {
                let synth = DataSynth::new(self.schema.clone())
                    .map_err(|e| EngineError::Pipeline(e.to_string()))?
                    .with_seed(self.seed)
                    .with_threads(self.threads);
                let mut sink = StoreSink::new();
                let mut session = synth
                    .session()
                    .map_err(|e| EngineError::Pipeline(e.to_string()))?;
                if let Some(m) = &self.metrics {
                    session = session.with_metrics(m.clone());
                }
                session
                    .run_into(&mut sink)
                    .map_err(|e| EngineError::Pipeline(e.to_string()))?;
                (sink.into_graph(), self.seed)
            }
        };
        let load_micros = micros_since(load_started);

        let build_started = Instant::now();
        let store = GraphStore::build(self.schema, seed, graph)?;
        let store_build_micros = micros_since(build_started);

        let workload = WorkloadGenerator::new(self.schema, store.graph())
            .with_seed(seed)
            .with_mix(self.mix)
            .generate(self.queries)?;

        let exec = Executor::new(&store);
        for _ in 0..self.warmup {
            for q in &workload.queries {
                exec.execute(&q.plan)?;
            }
        }

        let mut templates = accumulators(&workload);
        if let Some(m) = &self.metrics {
            for acc in &mut templates {
                acc.metric =
                    Some(m.histogram_with(QUERY_MICROS_METRIC, Some(("template", &acc.id))));
            }
        }
        // One untimed correctness pass: result rows are deterministic, so
        // they are counted once and checked against each binding's band.
        for q in &workload.queries {
            let acc = templates
                .iter_mut()
                .find(|a| a.id == q.template_id())
                .expect("accumulator exists for every instantiated template");
            let rows = exec.execute(&q.plan)?.rows;
            let b = q.binding();
            acc.queries += 1;
            acc.rows += rows;
            acc.expected_rows += b.expected_rows;
            acc.band = (acc.band.0.min(b.band.0), acc.band.1.max(b.band.1));
            if b.band.0 <= rows && rows <= b.band.1 {
                acc.in_band += 1;
            }
        }
        // Measured rounds.
        for _ in 0..self.iters {
            for q in &workload.queries {
                let acc = templates
                    .iter_mut()
                    .find(|a| a.id == q.template_id())
                    .expect("accumulator exists for every instantiated template");
                let started = Instant::now();
                exec.execute(&q.plan)?;
                acc.record(started.elapsed());
            }
        }

        Ok(BenchReport {
            graph: workload.schema_name.clone(),
            seed,
            query_count: workload.queries.len() as u64,
            warmup: self.warmup,
            iters: self.iters,
            nodes: store.total_nodes(),
            edges: store.total_edges(),
            memory_bytes: store.memory_bytes(),
            threads: self.threads,
            load_micros,
            store_build_micros,
            templates: templates.into_iter().map(TemplateAcc::finish).collect(),
        })
    }
}

fn micros_since(t: Instant) -> u64 {
    u64::try_from(t.elapsed().as_micros()).unwrap_or(u64::MAX)
}

struct TemplateAcc {
    id: String,
    kind: &'static str,
    selectivity: &'static str,
    queries: u64,
    executions: u64,
    rows: u64,
    expected_rows: u64,
    in_band: u64,
    band: (u64, u64),
    /// Measured execute time. Nanoseconds, converted once in `finish`:
    /// most templates run in under a microsecond, so a sum of per-execution
    /// microseconds would be zero.
    nanos: u64,
    hist: Histogram,
    metric: Option<Arc<Histogram>>,
}

impl TemplateAcc {
    /// Account one timed execution.
    fn record(&mut self, elapsed: Duration) {
        self.executions += 1;
        self.nanos = self
            .nanos
            .saturating_add(u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX));
        let micros = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        self.hist.record(micros);
        if let Some(h) = &self.metric {
            h.record(micros);
        }
    }

    fn finish(self) -> TemplateBench {
        TemplateBench {
            id: self.id,
            kind: self.kind,
            selectivity: self.selectivity,
            queries: self.queries,
            executions: self.executions,
            rows: self.rows,
            expected_rows: self.expected_rows,
            in_band: self.in_band,
            band: self.band,
            total_micros: self.nanos / 1000,
            ops_per_sec: if self.nanos == 0 {
                0.0
            } else {
                self.executions as f64 * 1e9 / self.nanos as f64
            },
            p50_micros: histogram_percentile(&self.hist, 0.50),
            p95_micros: histogram_percentile(&self.hist, 0.95),
            p99_micros: histogram_percentile(&self.hist, 0.99),
        }
    }
}

fn accumulators(workload: &Workload) -> Vec<TemplateAcc> {
    workload
        .templates
        .iter()
        .filter(|t| workload.queries.iter().any(|q| q.template_id() == t.id))
        .map(|t| TemplateAcc {
            id: t.id.clone(),
            kind: t.kind.keyword(),
            selectivity: t.selectivity.keyword(),
            queries: 0,
            executions: 0,
            rows: 0,
            expected_rows: 0,
            in_band: 0,
            band: (u64::MAX, 0),
            nanos: 0,
            hist: Histogram::new(),
            metric: None,
        })
        .collect()
}

/// The smallest bucket upper bound at or past quantile `q` — the
/// power-of-two resolution the telemetry [`Histogram`] stores.
fn histogram_percentile(h: &Histogram, q: f64) -> u64 {
    let count = h.count();
    if count == 0 {
        return 0;
    }
    let rank = ((q * count as f64).ceil() as u64).clamp(1, count);
    let mut acc = 0u64;
    for (i, c) in h.bucket_counts().iter().enumerate() {
        acc += c;
        if acc >= rank {
            return Histogram::upper_bound(i).unwrap_or(u64::MAX);
        }
    }
    u64::MAX
}

/// Per-template bench results.
#[derive(Debug, Clone, PartialEq)]
pub struct TemplateBench {
    /// Template id (`kind:discriminator`).
    pub id: String,
    /// Template kind keyword.
    pub kind: &'static str,
    /// Selectivity class keyword.
    pub selectivity: &'static str,
    /// Distinct query instances executed.
    pub queries: u64,
    /// Timed executions (`queries * iters`).
    pub executions: u64,
    /// Total result rows over one pass (deterministic).
    pub rows: u64,
    /// Total curated `expected_rows` over the same pass.
    pub expected_rows: u64,
    /// Instances whose executed row count fell inside the curated band.
    pub in_band: u64,
    /// Union of the instances' cardinality bands.
    pub band: (u64, u64),
    /// Total measured execute time.
    pub total_micros: u64,
    /// Executions per second over the measured rounds.
    pub ops_per_sec: f64,
    /// Latency percentiles (histogram bucket upper bounds).
    pub p50_micros: u64,
    /// 95th percentile.
    pub p95_micros: u64,
    /// 99th percentile.
    pub p99_micros: u64,
}

/// The full bench report; see module docs for the stable/timing split.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchReport {
    /// Graph (schema) name.
    pub graph: String,
    /// Seed the graph and workload were generated under.
    pub seed: u64,
    /// Query instances executed per round.
    pub query_count: u64,
    /// Warmup rounds.
    pub warmup: u32,
    /// Measured rounds.
    pub iters: u32,
    /// Store size: total nodes.
    pub nodes: u64,
    /// Store size: total edges.
    pub edges: u64,
    /// Deterministic store footprint estimate.
    pub memory_bytes: u64,
    /// Generation thread budget (timing-side: the stable report is
    /// identical across thread counts).
    pub threads: usize,
    /// Graph generation / directory read time.
    pub load_micros: u64,
    /// Store (index + `_ts`) build time.
    pub store_build_micros: u64,
    /// Per-template results.
    pub templates: Vec<TemplateBench>,
}

impl BenchReport {
    /// Whether every instance of every template executed inside its
    /// curated cardinality band.
    pub fn all_in_band(&self) -> bool {
        self.templates.iter().all(|t| t.in_band == t.queries)
    }

    /// Full JSON, timings included.
    pub fn to_json(&self) -> String {
        self.render_json(true)
    }

    /// Deterministic JSON: no wall-clock-derived fields. Byte-identical
    /// for reruns of the same schema + seed at any thread count.
    pub fn to_json_stable(&self) -> String {
        self.render_json(false)
    }

    fn render_json(&self, timings: bool) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str(&format!(
            "  \"graph\": \"{}\",\n",
            datasynth_telemetry::json::escape(&self.graph)
        ));
        s.push_str(&format!("  \"seed\": {},\n", self.seed));
        s.push_str(&format!("  \"query_count\": {},\n", self.query_count));
        s.push_str(&format!("  \"warmup\": {},\n", self.warmup));
        s.push_str(&format!("  \"iters\": {},\n", self.iters));
        s.push_str(&format!(
            "  \"store\": {{\"nodes\": {}, \"edges\": {}, \"memory_bytes\": {}}},\n",
            self.nodes, self.edges, self.memory_bytes
        ));
        s.push_str(&format!("  \"all_in_band\": {},\n", self.all_in_band()));
        s.push_str("  \"templates\": [\n");
        for (i, t) in self.templates.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"id\": \"{}\", \"kind\": \"{}\", \"selectivity\": \"{}\", \
                 \"queries\": {}, \"executions\": {}, \"rows\": {}, \
                 \"expected_rows\": {}, \"in_band\": {}, \"band\": [{}, {}]",
                datasynth_telemetry::json::escape(&t.id),
                t.kind,
                t.selectivity,
                t.queries,
                t.executions,
                t.rows,
                t.expected_rows,
                t.in_band,
                t.band.0,
                t.band.1,
            ));
            if timings {
                s.push_str(&format!(
                    ", \"timing\": {{\"total_micros\": {}, \"ops_per_sec\": {:.1}, \
                     \"p50_micros\": {}, \"p95_micros\": {}, \"p99_micros\": {}}}",
                    t.total_micros, t.ops_per_sec, t.p50_micros, t.p95_micros, t.p99_micros
                ));
            }
            s.push_str(if i + 1 < self.templates.len() {
                "},\n"
            } else {
                "}\n"
            });
        }
        s.push_str("  ]");
        if timings {
            s.push_str(&format!(
                ",\n  \"timing\": {{\"threads\": {}, \"load_micros\": {}, \
                 \"store_build_micros\": {}}}\n",
                self.threads, self.load_micros, self.store_build_micros
            ));
        } else {
            s.push('\n');
        }
        s.push_str("}\n");
        s
    }

    /// Write [`to_json`](Self::to_json) to `path`.
    pub fn save(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_json())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasynth_schema::parse_schema;

    const DSL: &str = r#"graph bench {
        node Person [count = 80] {
            country: text = categorical("ES": 0.4, "FR": 0.4, "DE": 0.2);
            age: long = uniform(18, 90);
        }
        edge knows: Person -> Person { structure = erdos_renyi(p = 0.05); }
    }"#;

    #[test]
    fn a_sub_microsecond_template_reports_a_rate() {
        let schema = parse_schema(DSL).unwrap();
        let graph = DataSynth::new(schema.clone())
            .unwrap()
            .with_seed(7)
            .generate()
            .unwrap();
        let workload = WorkloadGenerator::new(&schema, &graph)
            .with_seed(7)
            .generate(8)
            .unwrap();
        let mut acc = accumulators(&workload).remove(0);
        for _ in 0..1000 {
            acc.record(Duration::from_nanos(400));
        }
        let bench = acc.finish();
        assert_eq!(bench.executions, 1000);
        assert_eq!(bench.total_micros, 400);
        assert_eq!(bench.ops_per_sec, 2.5e6);
    }

    #[test]
    fn bench_runs_and_counts_stay_in_band() {
        let schema = parse_schema(DSL).unwrap();
        let report = Bench::new(&schema)
            .with_seed(7)
            .with_queries(24)
            .with_warmup(1)
            .with_iters(2)
            .run()
            .unwrap();
        assert_eq!(report.query_count, 24);
        assert!(!report.templates.is_empty());
        assert!(report.all_in_band(), "{}", report.to_json());
        for t in &report.templates {
            assert_eq!(t.executions, t.queries * 2);
            assert_eq!(
                t.rows, t.expected_rows,
                "exact curation must predict executed rows: {t:?}"
            );
        }
    }

    #[test]
    fn stable_json_is_thread_count_independent() {
        let schema = parse_schema(DSL).unwrap();
        let run = |threads| {
            Bench::new(&schema)
                .with_seed(7)
                .with_threads(threads)
                .with_queries(16)
                .with_iters(1)
                .run()
                .unwrap()
        };
        let a = run(1);
        let b = run(3);
        assert_eq!(a.to_json_stable(), b.to_json_stable());
        assert!(a.to_json().contains("\"timing\""));
        assert!(!a.to_json_stable().contains("\"timing\""));
        assert!(!a.to_json_stable().contains("micros"));
    }

    #[test]
    fn metrics_histograms_are_recorded_per_template() {
        let schema = parse_schema(DSL).unwrap();
        let metrics = Arc::new(MetricsRegistry::new());
        let report = Bench::new(&schema)
            .with_queries(8)
            .with_iters(1)
            .with_metrics(metrics.clone())
            .run()
            .unwrap();
        let snap = metrics.snapshot();
        let prom = snap.to_prometheus();
        assert!(
            prom.contains(QUERY_MICROS_METRIC),
            "expected {QUERY_MICROS_METRIC} in:\n{prom}"
        );
        assert!(report.templates.iter().all(|t| t.executions > 0));
    }

    #[test]
    fn percentiles_walk_the_buckets() {
        let h = Histogram::new();
        for v in [1u64, 2, 3, 100] {
            h.record(v);
        }
        assert!(histogram_percentile(&h, 0.5) <= 4);
        assert!(histogram_percentile(&h, 0.99) >= 100);
        assert_eq!(histogram_percentile(&Histogram::new(), 0.5), 0);
    }
}
