//! End-to-end pipeline throughput: the running example per generated
//! element, plus property-generation scaling with thread count.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use datasynth_core::{DataSynth, GraphSink, SinkError};
use datasynth_tables::{EdgeTable, PropertyTable};

/// Measures the pure generation path: consumes the stream, keeps nothing.
#[derive(Default)]
struct NullSink {
    tables: u64,
}

impl GraphSink for NullSink {
    fn node_property(&mut self, _: &str, _: &str, t: PropertyTable) -> Result<(), SinkError> {
        black_box(&t);
        self.tables += 1;
        Ok(())
    }
    fn edges(&mut self, _: &str, _: &str, _: &str, t: EdgeTable) -> Result<(), SinkError> {
        black_box(&t);
        self.tables += 1;
        Ok(())
    }
    fn edge_property(&mut self, _: &str, _: &str, t: PropertyTable) -> Result<(), SinkError> {
        black_box(&t);
        self.tables += 1;
        Ok(())
    }
}

const SCHEMA: &str = r#"
graph social {
  node Person [count = 5000] {
    country: text = dictionary("countries");
    sex: text = categorical("M": 0.5, "F": 0.5);
    name: text = first_names() given (country, sex);
    creationDate: date = date_between("2010-01-01", "2013-01-01");
  }
  node Message {
    topic: text = dictionary("topics");
    text: text = sentence_about(5, 12) given (topic);
  }
  edge knows: Person -- Person {
    structure = lfr(avg_degree = 10, max_degree = 30);
    correlate country with homophily(0.8);
    creationDate: date = date_after(30) given (source.creationDate, target.creationDate);
  }
  edge creates: Person -> Message [one_to_many] {
    structure = one_to_many(dist = "geometric", p = 0.4);
  }
}
"#;

const PROPS_ONLY: &str = r#"
graph wide {
  node Row [count = 50000] {
    a: text = dictionary("countries");
    s: text = categorical("M": 1, "F": 1);
    b: long = uniform(0, 1000000);
    c: double = normal(0, 1);
    d: text = first_names() given (a, s);
    e: date = date_between("2000-01-01", "2020-12-31");
  }
}
"#;

fn bench_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);

    group.bench_function("running_example_5k_persons", |b| {
        let gen = DataSynth::from_dsl(SCHEMA).unwrap().with_seed(7);
        b.iter(|| black_box(gen.generate().unwrap()))
    });

    // Same pipeline, streamed into a discarding sink: the gap to the
    // benchmark above is the cost of materializing the PropertyGraph.
    group.bench_function("running_example_streamed_null_sink", |b| {
        let gen = DataSynth::from_dsl(SCHEMA).unwrap().with_seed(7);
        b.iter(|| {
            let mut sink = NullSink::default();
            gen.session().unwrap().run_into(&mut sink).unwrap();
            black_box(sink.tables)
        })
    });

    group.throughput(Throughput::Elements(50_000 * 5));
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("property_gen_250k_values", threads),
            &threads,
            |b, &t| {
                let gen = DataSynth::from_dsl(PROPS_ONLY)
                    .unwrap()
                    .with_seed(7)
                    .with_threads(t);
                b.iter(|| black_box(gen.generate().unwrap()))
            },
        );
    }
    group.finish();
}

/// The whole pipeline — chunkable structure (rmat), sequential structure
/// (barabasi_albert), matching, properties — at 1 thread vs all cores.
/// The threads=N row over threads=1 is the task-scheduler + counter-stream
/// speedup on a multi-core runner (identical bytes either way).
const STRUCTURE_HEAVY: &str = r#"
graph ledger {
  node Account [count = 20000] {
    country: text = dictionary("countries");
    balance: double = normal(1000, 250);
    opened: date = date_between("2012-01-01", "2020-12-31");
  }
  edge transfers: Account -- Account {
    structure = rmat(edge_factor = 16);
    amount: double = uniform_double(1, 5000);
  }
  edge refers: Account -- Account {
    structure = barabasi_albert(m = 2);
  }
}
"#;

fn bench_parallel_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_threads");
    group.sample_size(10);
    // 20k nodes x 3 props + (16 + 2) x 20k edges + 320k edge props.
    group.throughput(Throughput::Elements(20_000 * 3 + 18 * 20_000 + 320_000));
    // Fixed thread counts, not `default_threads()`: every machine
    // prints the same rows, so runs compare like with like
    // (oversubscribed rows document scheduler overhead on small
    // machines rather than being dropped).
    for threads in [1usize, 2, 4, 8] {
        group.bench_with_input(
            BenchmarkId::new("structure_heavy_20k_accounts", threads),
            &threads,
            |b, &t| {
                let gen = DataSynth::from_dsl(STRUCTURE_HEAVY)
                    .unwrap()
                    .with_seed(7)
                    .with_threads(t);
                b.iter(|| {
                    let mut sink = NullSink::default();
                    gen.session().unwrap().run_into(&mut sink).unwrap();
                    black_box(sink.tables)
                })
            },
        );
    }
    group.finish();
}

/// Scale-out efficiency of `Session::shard(i, k)`: one full run vs the
/// wall time of a *single* shard at k = 1, 2, 4. A shard pays the full
/// recompute cost of raw structures and matching (they are global), so
/// per-shard time shrinks sublinearly in k — the gap between `full` and
/// `shard_0_of_k` documents the recompute overhead of the non-chunkable
/// tasks (barabasi_albert here) against the windowed savings on property
/// generation, relabeling and export-facing slicing.
fn bench_sharded_pipeline(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline_shards");
    group.sample_size(10);
    group.throughput(Throughput::Elements(20_000 * 3 + 18 * 20_000 + 320_000));

    group.bench_function("full_run", |b| {
        let gen = DataSynth::from_dsl(STRUCTURE_HEAVY).unwrap().with_seed(7);
        b.iter(|| {
            let mut sink = NullSink::default();
            gen.session().unwrap().run_into(&mut sink).unwrap();
            black_box(sink.tables)
        })
    });

    for k in [1u64, 2, 4] {
        group.bench_with_input(BenchmarkId::new("shard_0_of_k", k), &k, |b, &k| {
            let gen = DataSynth::from_dsl(STRUCTURE_HEAVY).unwrap().with_seed(7);
            b.iter(|| {
                let mut sink = NullSink::default();
                gen.session()
                    .unwrap()
                    .shard(0, k)
                    .unwrap()
                    .run_into(&mut sink)
                    .unwrap();
                black_box(sink.tables)
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_pipeline,
    bench_parallel_pipeline,
    bench_sharded_pipeline
);
criterion_main!(benches);
