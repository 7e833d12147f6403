//! Integration: the scale-factor requirement — all the ways the paper says
//! a graph's size can be specified (§2 Scale Factor, §4.2 sizing walk-through).

use datasynth::prelude::*;

#[test]
fn node_count_drives_everything() {
    let src = r#"graph g {
        node A [count = 1234] { x: long = counter(); }
        edge e: A -- A { structure = lfr(avg_degree = 6, max_degree = 20, min_community = 5, max_community = 40); }
    }"#;
    let g = DataSynth::from_dsl(src).unwrap().generate().unwrap();
    assert_eq!(g.node_count("A"), Some(1234));
    let m = g.edges("e").unwrap().len() as f64;
    assert!((m - 1234.0 * 3.0).abs() / m < 0.25, "m = {m}");
}

#[test]
fn edge_count_sizes_the_source_via_get_num_nodes() {
    // The paper: "the user could be interested in specifying the scale of
    // the graph in terms of the number of edges ... DataSynth would use the
    // getNumNodes method".
    let src = r#"graph g {
        node A { x: long = counter(); }
        edge e: A -- A [count = 32768] { structure = rmat(edge_factor = 8); }
    }"#;
    let g = DataSynth::from_dsl(src).unwrap().generate().unwrap();
    assert_eq!(g.node_count("A"), Some(4096));
    assert_eq!(g.edges("e").unwrap().len(), 32768);
}

#[test]
fn one_to_many_chain_infers_downstream_counts() {
    // Person -> Message is the paper's worked example: Message count comes
    // from the size of the creates structure.
    let src = r#"graph g {
        node Person [count = 700] { x: long = counter(); }
        node Message { y: long = counter(); }
        node Reaction { z: long = counter(); }
        edge creates: Person -> Message [one_to_many] {
            structure = one_to_many(dist = "constant", k = 3);
        }
        edge reacts: Message -> Reaction [one_to_many] {
            structure = one_to_many(dist = "constant", k = 2);
        }
    }"#;
    let g = DataSynth::from_dsl(src).unwrap().generate().unwrap();
    assert_eq!(g.node_count("Message"), Some(2100));
    assert_eq!(g.node_count("Reaction"), Some(4200), "two-hop inference");
    // Every Message has exactly one creator; every Reaction one Message.
    let creates = g.edges("creates").unwrap();
    assert_eq!(creates.in_degrees(2100), vec![1u32; 2100]);
}

#[test]
fn underdetermined_schemas_fail_with_guidance() {
    let src = r#"graph g { node A { x: long = counter(); } }"#;
    let err = DataSynth::from_dsl(src).unwrap().generate().unwrap_err();
    let msg = err.to_string();
    assert!(msg.contains("cannot determine"), "{msg}");
    assert!(msg.contains("count"), "{msg}");
}

#[test]
fn ambiguous_derivations_fail() {
    let src = r#"graph g {
        node A [count = 10] { x: long = counter(); }
        node B { y: long = counter(); }
        edge e1: A -> B [one_to_many] { structure = one_to_many(dist = "constant", k = 1); }
        edge e2: A -> B [one_to_many] { structure = one_to_many(dist = "constant", k = 2); }
    }"#;
    let err = DataSynth::from_dsl(src).unwrap().generate().unwrap_err();
    assert!(err.to_string().contains("derivable from both"), "{err}");
}

#[test]
fn explicit_count_wins_over_derivation() {
    let src = r#"graph g {
        node A [count = 10] { x: long = counter(); }
        node B [count = 100] { y: long = counter(); }
        edge e: A -> B [one_to_many] { structure = one_to_many(dist = "constant", k = 2); }
    }"#;
    let g = DataSynth::from_dsl(src).unwrap().generate().unwrap();
    // B keeps its declared count; edge heads (20 of them) fit inside it.
    assert_eq!(g.node_count("B"), Some(100));
    assert_eq!(g.edges("e").unwrap().len(), 20);
    assert!(g.validate().is_empty());
}

#[test]
fn plan_is_inspectable_and_ordered() {
    let src = r#"graph g {
        node Person [count = 50] { c: text = dictionary("countries"); }
        node Message { t: text = dictionary("topics"); }
        edge creates: Person -> Message [one_to_many] {
            structure = one_to_many(dist = "constant", k = 1);
        }
    }"#;
    let plan = DataSynth::from_dsl(src).unwrap().plan().unwrap();
    let pos = |needle: &str| {
        plan.tasks
            .iter()
            .position(|t| t.to_string() == needle)
            .unwrap_or_else(|| panic!("missing task {needle}"))
    };
    assert!(pos("count(Person)") < pos("structure(creates)"));
    assert!(pos("structure(creates)") < pos("count(Message)"));
    assert!(pos("count(Message)") < pos("property(Message.t)"));
}

fn matrix_threads() -> usize {
    std::env::var("DATASYNTH_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7)
}

/// Records which tables the run told the sink anything about.
#[derive(Default)]
struct TouchedTables(Vec<String>);

impl GraphSink for TouchedTables {
    fn table_rows(
        &mut self,
        table: &str,
        _rows: std::ops::Range<u64>,
        _total: u64,
    ) -> Result<(), SinkError> {
        self.0.push(table.to_owned());
        Ok(())
    }

    fn edges(
        &mut self,
        edge_type: &str,
        _source: &str,
        _target: &str,
        _table: datasynth::tables::EdgeTable,
    ) -> Result<(), SinkError> {
        self.0.push(edge_type.to_owned());
        Ok(())
    }
}

#[test]
fn out_of_range_structure_ids_are_a_sizing_error_not_a_worker_panic() {
    /// A generator that is off by one: it emits node id `n`.
    struct OneTooMany;
    impl StructureGenerator for OneTooMany {
        fn name(&self) -> &'static str {
            "one_too_many"
        }
        fn run(&self, n: u64, _rng: &mut SplitMix64) -> datasynth::tables::EdgeTable {
            datasynth::tables::EdgeTable::from_pairs("one_too_many", [(0, n)])
        }
        fn num_nodes_for_edges(&self, num_edges: u64) -> u64 {
            num_edges
        }
        fn capabilities(&self) -> Capabilities {
            Capabilities::default()
        }
    }

    // sbm emits groups x group_size = 400 ids whatever the node count is;
    // the library has no lint gate in front of it.
    let cases = [
        ("sbm(groups = 4, group_size = 100)", "tail id"),
        ("one_too_many()", "head id 50"),
    ];
    for (structure, offender) in cases {
        let src = format!(
            "graph g {{
                node A [count = 50] {{ x: long = counter(); }}
                edge e: A -- A {{ structure = {structure}; }}
            }}"
        );
        for threads in [1, matrix_threads()] {
            let generator = DataSynth::from_dsl(&src)
                .unwrap()
                .register_structure("one_too_many", |_: &Params| Ok(Box::new(OneTooMany) as _))
                .with_threads(threads);
            let mut sink = TouchedTables::default();
            let err = generator
                .session()
                .unwrap()
                .run_into(&mut sink)
                .expect_err("ids outside the node table must not run");
            // A typed error, not `WorkerPanic`: nothing panicked, so
            // nothing was printed to stderr either.
            assert!(matches!(err, PipelineError::Sizing(_)), "{err:?}");
            let msg = err.to_string();
            for needle in ["edge \"e\"", offender, "A only has 50 instances"] {
                assert!(msg.contains(needle), "{structure}: {msg}");
            }
            assert!(!sink.0.contains(&"e".to_owned()), "{:?}", sink.0);
        }
    }
}
