//! Untimed passes over a workload's schema: the matching-quality check, and
//! the traced pass's standalone kernel calls at the workload's size.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use datasynth::core::{build_jpd, structure_params_of, InMemorySink};
use datasynth::matching::evaluate::{compare_jpds, empirical_jpd};
use datasynth::matching::{sbm_part, MatchInput};
use datasynth::prng::SplitMix64;
use datasynth::schema::Schema;
use datasynth::structure::StructureRegistry;
use datasynth::tables::export::{CsvExporter, Exporter};
use datasynth::tables::{Csr, PropertyGraph};

use super::generate::Prepared;
use super::{dir_bytes, fresh_dir, Checks, Result, Samples, MB};
use crate::sinks::NullSink;

/// The whole graph generated in memory, once, for the checks and kernels
/// that need to look at it; kept with the run's manifest content hash.
#[derive(Default)]
pub struct InMemory(Option<(PropertyGraph, u64)>);

impl InMemory {
    pub fn get(&mut self, prepared: &Prepared, threads: usize) -> Result<&(PropertyGraph, u64)> {
        if self.0.is_none() {
            let mut sink = InMemorySink::new();
            let report = prepared
                .session()?
                .with_threads(threads)
                .run_into(&mut sink)?;
            self.0 = Some((sink.into_graph(), report.content_hash()));
        }
        Ok(self.0.as_ref().expect("just filled"))
    }
}

/// Group index per node of `node_type.property`, and the group sizes.
fn labels_of(
    graph: &PropertyGraph,
    node_type: &str,
    property: &str,
) -> Result<(Vec<u32>, Vec<u64>)> {
    let column = graph
        .node_property(node_type, property)
        .ok_or_else(|| format!("no column {node_type}.{property}"))?;
    let frequencies = column.value_frequencies();
    let index: BTreeMap<String, u32> = frequencies
        .iter()
        .enumerate()
        .map(|(i, (v, _))| (v.render(), i as u32))
        .collect();
    let labels = column.iter().map(|v| index[&v.render()]).collect();
    Ok((labels, frequencies.iter().map(|(_, c)| *c).collect()))
}

/// Distance between the requested `P(X,Y)` and the one observed on the
/// schema's correlated edge, beside the same distance for a random
/// assignment of the same labels. Checks that matching beats the latter.
pub fn match_quality(
    schema: &Schema,
    graph: &PropertyGraph,
    seed: u64,
    checks: &mut Checks,
    out: &mut Samples,
) -> Result<()> {
    let correlated = schema
        .edges
        .iter()
        .find_map(|e| Some((e, e.correlation.as_ref()?)));
    let Some((edge, correlation)) = correlated else {
        return Ok(());
    };
    let edges = graph
        .edges(&edge.name)
        .ok_or("correlated edge table missing")?;
    let (mut labels, group_sizes) = labels_of(graph, &edge.source, &correlation.property)?;
    let requested = build_jpd(&correlation.jpd, &group_sizes)?;
    let k = group_sizes.len();
    let matched = compare_jpds(&requested, &empirical_jpd(&labels, edges, k));
    SplitMix64::new(seed ^ 0x6b73_5f72_616e_646f).shuffle(&mut labels);
    let random = compare_jpds(&requested, &empirical_jpd(&labels, edges, k));
    out.set("match_ks", matched.ks);
    out.set("matching.ks", matched.ks);
    out.set("matching.l1", matched.l1);
    out.set("matching.ks_random", random.ks);
    checks.check(matched.ks < random.ks, || {
        format!(
            "match_ks {} is not below the random assignment's {}",
            matched.ks, random.ks
        )
    });
    Ok(())
}

/// Run each edge's structure generator alone, then `Csr::undirected` and
/// `sbm_part` on the correlated edge's raw structure.
pub fn structure_kernels(
    schema: &Schema,
    graph: &PropertyGraph,
    seed: u64,
    out: &mut Samples,
) -> Result<()> {
    let registry = StructureRegistry::builtin();
    for edge in &schema.edges {
        let Some(spec) = &edge.structure else {
            continue;
        };
        let n = graph
            .node_count(&edge.source)
            .ok_or("source type missing")?;
        let generator = registry.build(&spec.name, &structure_params_of(spec)?)?;
        let started = Instant::now();
        let raw = generator.run(n, &mut SplitMix64::new(seed));
        let elapsed = started.elapsed().as_secs_f64();
        if ["rmat", "barabasi_albert", "lfr", "one_to_many"].contains(&generator.name()) {
            out.rate(
                &format!("structure.{}.edges_per_s", generator.name()),
                raw.len() as f64,
                elapsed,
            );
        }

        let Some(correlation) = &edge.correlation else {
            continue;
        };
        let started = Instant::now();
        let csr = Csr::undirected(&raw, n);
        out.rate(
            "tables.csr.edges_per_s",
            raw.len() as f64,
            started.elapsed().as_secs_f64(),
        );

        let (_, group_sizes) = labels_of(graph, &edge.source, &correlation.property)?;
        let jpd = build_jpd(&correlation.jpd, &group_sizes)?;
        let mut order: Vec<u64> = (0..n).collect();
        SplitMix64::new(seed).shuffle(&mut order);
        let input = MatchInput {
            group_sizes: &group_sizes,
            jpd: &jpd,
            csr: &csr,
            num_edges: raw.len(),
        };
        let started = Instant::now();
        let matched = sbm_part(&input, &order);
        out.rate(
            "matching.sbm_part.edges_per_s",
            raw.len() as f64,
            started.elapsed().as_secs_f64(),
        );
        std::hint::black_box(matched);
    }
    Ok(())
}

/// `CsvExporter` replaying an in-memory graph: the second CSV write path.
pub fn export_replay(graph: &PropertyGraph, dir: &Path, out: &mut Samples) -> Result<()> {
    fresh_dir(dir)?;
    let started = Instant::now();
    CsvExporter.export(graph, dir)?;
    let elapsed = started.elapsed().as_secs_f64();
    out.rate(
        "tables.export.csv_mb_per_s",
        dir_bytes(dir)? as f64 / MB,
        elapsed,
    );
    std::fs::remove_dir_all(dir)?;
    Ok(())
}

/// The runner with no serialisation behind it, at one thread and at two.
pub fn null_sink_scaling(prepared: &Prepared, nproc: usize, out: &mut Samples) -> Result<()> {
    let mut walls = Vec::new();
    for threads in [1, 2.min(nproc)] {
        let mut sink = NullSink::default();
        let report = prepared
            .session()?
            .with_threads(threads)
            .run_into(&mut sink)?;
        walls.push((report.wall.as_secs_f64(), sink.rows));
    }
    let (t1, rows) = walls[0];
    out.rate("core.runner.null_sink_rows_per_s", rows as f64, t1);
    out.rate("core.runner.speedup_t2", t1, walls[1].0);
    Ok(())
}
