//! The two sinks the benchmark brings: a counting null sink, and a decorator
//! that times every callback of the sink it wraps. Both sit outside the
//! crates; a run cannot tell a `TimedSink` from the sink inside it.

use std::ops::Range;
use std::time::{Duration, Instant};

use datasynth::core::{GraphSink, SinkError, SinkManifest, TableRows};
use datasynth::tables::{Column, EdgeTable, PropertyTable};

/// Drops every table after counting it: generation with no serialisation.
#[derive(Debug, Default)]
pub struct NullSink {
    pub calls: u64,
    /// Table rows delivered (one per node or edge, not per column).
    pub rows: u64,
    /// In-memory column bytes delivered: 8 per id or number, the UTF-8
    /// length per text.
    pub bytes: u64,
}

fn column_bytes(table: &PropertyTable) -> u64 {
    match table.column() {
        Column::Bools(v) => v.len() as u64,
        Column::Longs(v) | Column::Dates(v) => 8 * v.len() as u64,
        Column::Doubles(v) => 8 * v.len() as u64,
        Column::Texts(v) => v.iter().map(|s| s.len() as u64).sum(),
    }
}

impl GraphSink for NullSink {
    fn node_count(&mut self, _node_type: &str, count: u64) -> Result<(), SinkError> {
        self.calls += 1;
        self.rows += count;
        Ok(())
    }

    fn node_property(
        &mut self,
        _node_type: &str,
        _property: &str,
        table: PropertyTable,
    ) -> Result<(), SinkError> {
        self.calls += 1;
        self.bytes += column_bytes(&table);
        Ok(())
    }

    fn edges(
        &mut self,
        _edge_type: &str,
        _source: &str,
        _target: &str,
        table: EdgeTable,
    ) -> Result<(), SinkError> {
        self.calls += 1;
        self.rows += table.len();
        self.bytes += 16 * table.len();
        Ok(())
    }

    fn edge_property(
        &mut self,
        _edge_type: &str,
        _property: &str,
        table: PropertyTable,
    ) -> Result<(), SinkError> {
        self.calls += 1;
        self.bytes += column_bytes(&table);
        Ok(())
    }
}

/// One timed sink callback.
#[derive(Debug, Clone)]
pub struct SinkCall {
    pub callback: &'static str,
    pub table: String,
    pub start: Instant,
    pub elapsed: Duration,
    pub rows: u64,
}

/// Forwards every callback to `inner` and records how long each took.
pub struct TimedSink<'a> {
    inner: &'a mut dyn GraphSink,
    pub calls: Vec<SinkCall>,
}

impl<'a> TimedSink<'a> {
    pub fn new(inner: &'a mut dyn GraphSink) -> Self {
        TimedSink {
            inner,
            calls: Vec::new(),
        }
    }

    /// Time spent inside the wrapped sink.
    pub fn busy(&self) -> Duration {
        self.calls.iter().map(|c| c.elapsed).sum()
    }

    fn timed<T>(
        &mut self,
        callback: &'static str,
        table: &str,
        rows: u64,
        f: impl FnOnce(&mut dyn GraphSink) -> T,
    ) -> T {
        let start = Instant::now();
        let out = f(self.inner);
        self.calls.push(SinkCall {
            callback,
            table: table.to_owned(),
            start,
            elapsed: start.elapsed(),
            rows,
        });
        out
    }
}

impl GraphSink for TimedSink<'_> {
    fn begin(&mut self, manifest: &SinkManifest) -> Result<(), SinkError> {
        self.timed("begin", "", 0, |s| s.begin(manifest))
    }

    fn table_rows(&mut self, table: &str, rows: Range<u64>, total: u64) -> Result<(), SinkError> {
        self.timed("table_rows", table, 0, |s| s.table_rows(table, rows, total))
    }

    fn node_count(&mut self, node_type: &str, count: u64) -> Result<(), SinkError> {
        self.timed("node_count", node_type, count, |s| {
            s.node_count(node_type, count)
        })
    }

    fn node_property(
        &mut self,
        node_type: &str,
        property: &str,
        table: PropertyTable,
    ) -> Result<(), SinkError> {
        let rows = table.len();
        self.timed(
            "node_property",
            &format!("{node_type}.{property}"),
            rows,
            |s| s.node_property(node_type, property, table),
        )
    }

    fn edges(
        &mut self,
        edge_type: &str,
        source: &str,
        target: &str,
        table: EdgeTable,
    ) -> Result<(), SinkError> {
        let rows = table.len();
        self.timed("edges", edge_type, rows, |s| {
            s.edges(edge_type, source, target, table)
        })
    }

    fn edge_property(
        &mut self,
        edge_type: &str,
        property: &str,
        table: PropertyTable,
    ) -> Result<(), SinkError> {
        let rows = table.len();
        self.timed(
            "edge_property",
            &format!("{edge_type}.{property}"),
            rows,
            |s| s.edge_property(edge_type, property, table),
        )
    }

    fn finish(&mut self) -> Result<(), SinkError> {
        self.timed("finish", "", 0, |s| s.finish())
    }

    fn contributed_tables(&mut self) -> Vec<(String, TableRows)> {
        self.inner.contributed_tables()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use datasynth::core::{CsvSink, DataSynth};

    const SCHEMA: &str = r#"
graph tiny {
  node Person [count = 300] {
    country: text = dictionary("countries");
    age: long = uniform(18, 90);
  }
  edge knows: Person -- Person [many_to_many] {
    structure = erdos_renyi(p = 0.02);
    correlate country with homophily(0.8);
    weight: long = uniform(1, 9);
  }
}"#;

    fn files(dir: &std::path::Path) -> Vec<(String, Vec<u8>)> {
        let mut out: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .map(|p| {
                (
                    p.file_name().unwrap().to_string_lossy().into_owned(),
                    std::fs::read(&p).unwrap(),
                )
            })
            .collect();
        out.sort();
        out
    }

    #[test]
    fn timed_sink_is_transparent() {
        let base = std::env::temp_dir().join(format!(
            "datasynth-benchmark-timedsink-{}",
            std::process::id()
        ));
        let (plain_dir, timed_dir) = (base.join("plain"), base.join("timed"));
        let synth = DataSynth::from_dsl(SCHEMA)
            .unwrap()
            .with_seed(7)
            .with_threads(2);

        let mut plain = CsvSink::new(&plain_dir);
        let plain_report = synth.session().unwrap().run_into(&mut plain).unwrap();

        let mut inner = CsvSink::new(&timed_dir);
        let mut timed = TimedSink::new(&mut inner);
        let timed_report = synth.session().unwrap().run_into(&mut timed).unwrap();

        assert_eq!(plain_report.content_hash(), timed_report.content_hash());
        assert_eq!(plain_report.manifest, timed_report.manifest);
        let (a, b) = (files(&plain_dir), files(&timed_dir));
        assert!(a.iter().any(|(name, _)| name == "knows.csv"));
        assert_eq!(a, b, "files differ with the decorator in place");
        // begin + finish + one callback per count, column and edge table at least.
        assert!(timed.calls.len() >= 7, "{} callbacks", timed.calls.len());
        assert!(timed
            .calls
            .iter()
            .any(|c| c.callback == "edges" && c.rows > 0));
        std::fs::remove_dir_all(&base).unwrap();
    }

    #[test]
    fn null_sink_counts_rows_and_column_bytes() {
        let synth = DataSynth::from_dsl(SCHEMA)
            .unwrap()
            .with_seed(7)
            .with_threads(1);
        let mut sink = NullSink::default();
        let report = synth.session().unwrap().run_into(&mut sink).unwrap();
        assert_eq!(sink.rows, report.total_rows());
        let edges = report.tables["knows"].total;
        // ids + age column + weight column, before the country text.
        assert!(sink.bytes > 16 * edges + 8 * 300 + 8 * edges);
    }
}
