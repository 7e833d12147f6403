//! A user-defined structure generator, registered through the public API
//! and driven end-to-end: schema (builder *and* DSL frontends), custom
//! `ring_lattice` generator, generation, CSV export. No edits inside
//! `crates/structure` or `crates/props` — the open registries carry the
//! extension.
//!
//! ```sh
//! cargo run --release --example custom_generator
//! ```

use datasynth::prelude::*;
use datasynth::schema::builder::{long, text};
use datasynth::tables::EdgeTable;

/// A k-regular ring lattice: node `i` links to its `k/2` clockwise
/// neighbours (the Watts–Strogatz substrate with no rewiring). Nothing in
/// the datasynth crates knows this type; it only has to implement
/// [`StructureGenerator`].
struct RingLattice {
    k: u64,
}

impl StructureGenerator for RingLattice {
    fn name(&self) -> &'static str {
        "ring_lattice"
    }

    fn run(&self, n: u64, _rng: &mut datasynth::prng::SplitMix64) -> EdgeTable {
        let half = self.k / 2;
        let mut et = EdgeTable::with_capacity("ring_lattice", (n * half) as usize);
        if n > 1 {
            for i in 0..n {
                for j in 1..=half {
                    et.push(i, (i + j) % n);
                }
            }
        }
        et
    }

    // The sizing pair: n nodes make n * k/2 edges, and back.
    fn expected_edges(&self, n: u64) -> u64 {
        n * (self.k / 2)
    }

    fn num_nodes_for_edges(&self, num_edges: u64) -> u64 {
        num_edges / (self.k / 2).max(1)
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            scalable: true,
            ..Capabilities::default()
        }
    }
}

/// Constructor closure the registry calls for `ring_lattice(...)` specs.
fn build_ring(params: &Params) -> Result<BoxedStructureGenerator, BuildError> {
    let r = params.reader("ring_lattice");
    let k = r.u64_or("k", 2);
    if k < 2 || k % 2 == 1 {
        return Err(r.bad("k", "must be even and >= 2"));
    }
    Ok(Box::new(RingLattice { k }))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Frontend 1: a programmatic schema referencing the custom name.
    let schema = Schema::build("ring_demo")
        .node("Server", |n| {
            n.count(500)
                .property("id", long().counter())
                .property("region", text().dictionary("countries"))
        })
        .edge("links", "Server", "Server", |e| {
            e.structure("ring_lattice", |s| s.num("k", 4.0))
        })
        .finish()?;

    let generator = DataSynth::new(schema)?
        .with_seed(7)
        .register_structure("ring_lattice", build_ring);

    let graph = generator.generate()?;
    let links = graph.edges("links").expect("generated");
    println!(
        "generated {} servers, {} ring edges",
        graph.node_count("Server").unwrap(),
        links.len()
    );
    assert_eq!(links.len(), 1000, "500 nodes x k/2 = 2 edges each");

    // Export streams through the same session API as any builtin.
    let out = std::env::temp_dir().join("datasynth-custom-generator");
    let mut sink = CsvSink::new(&out);
    generator.session()?.run_into(&mut sink)?;
    println!("exported CSV tables to {}", out.display());

    // Frontend 2: the DSL resolves the same registered name — user
    // generators are first-class in `structure = ...` clauses too.
    let dsl = r#"graph ring_dsl {
      node Peer [count = 64] { id: long = counter(); }
      edge ring: Peer -- Peer [many_to_many] { structure = ring_lattice(k = 6); }
    }"#;
    let from_dsl = DataSynth::from_dsl(dsl)?
        .with_seed(7)
        .register_structure("ring_lattice", build_ring)
        .generate()?;
    println!(
        "DSL frontend: {} peers, {} ring edges",
        from_dsl.node_count("Peer").unwrap(),
        from_dsl.edges("ring").unwrap().len()
    );
    assert_eq!(from_dsl.edges("ring").unwrap().len(), 64 * 3);

    // Bad parameters surface through the registry's uniform errors.
    let err = DataSynth::from_dsl(
        "graph g { node A [count = 4] { id: long = counter(); } \
         edge e: A -- A { structure = ring_lattice(k = 3); } }",
    )?
    .register_structure("ring_lattice", build_ring)
    .generate()
    .unwrap_err();
    println!("odd k rejected as expected: {err}");
    Ok(())
}
