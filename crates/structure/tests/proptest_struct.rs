//! Property-based tests over the structure generators' invariants.

use proptest::prelude::*;

use datasynth_prng::{CounterStream, SplitMix64};
use datasynth_structure::{
    build_generator, configuration_model, even_out_degree_sum, BarabasiAlbert, ConfigModelOptions,
    DegreeDist, LfrGenerator, LfrParams, Params, PlantedPartition, RmatGenerator,
    StructureGenerator, WattsStrogatz,
};
use datasynth_tables::EdgeTable;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The configuration model never exceeds any node's requested degree
    /// and never emits self-loops or duplicates under default options.
    #[test]
    fn config_model_respects_degrees(
        seed: u64,
        degrees in prop::collection::vec(0u32..12, 4..120),
    ) {
        let mut d = degrees.clone();
        even_out_degree_sum(&mut d);
        let mut rng = SplitMix64::new(seed);
        let et = configuration_model(&d, ConfigModelOptions::default(), &mut rng);
        let got = et.degrees(d.len() as u64);
        for (v, (&g, &want)) in got.iter().zip(&d).enumerate() {
            prop_assert!(g <= want, "node {v}: {g} > {want}");
        }
        let mut c = et.clone();
        c.canonicalize_undirected();
        prop_assert_eq!(c.dedup(), 0);
        prop_assert!(et.iter().all(|(t, h)| t != h));
    }

    /// RMAT respects arbitrary (non power of two) node counts.
    #[test]
    fn rmat_endpoints_in_range(seed: u64, n in 2u64..3_000) {
        let g = RmatGenerator::new(0.57, 0.19, 0.19, 4, false);
        let et = g.run(n, &mut SplitMix64::new(seed));
        prop_assert_eq!(et.len(), 4 * n);
        prop_assert!(et.iter().all(|(t, h)| t < n && h < n));
    }

    /// LFR always produces a simple graph whose planted labels are dense
    /// and whose realized mean degree tracks the requested one.
    #[test]
    fn lfr_invariants(seed: u64, mixing in 0.05f64..0.5, n in 300u64..1_200) {
        let g = LfrGenerator::new(LfrParams {
            average_degree: 8.0,
            max_degree: 24,
            mixing,
            min_community: 8,
            max_community: 48,
            ..LfrParams::default()
        });
        let (et, labels) = g.run_with_partition(n, &mut SplitMix64::new(seed));
        prop_assert_eq!(labels.len() as u64, n);
        let k = labels.iter().copied().max().unwrap() as usize + 1;
        // Labels dense: every community inhabited.
        let mut seen = vec![false; k];
        for &l in &labels {
            seen[l as usize] = true;
        }
        prop_assert!(seen.iter().all(|&s| s));
        // Simple graph.
        prop_assert!(et.iter().all(|(t, h)| t != h && t < n && h < n));
        let mut c = et.clone();
        c.canonicalize_undirected();
        prop_assert_eq!(c.dedup(), 0);
        // Mean degree in a sane band around the target.
        let mean = 2.0 * et.len() as f64 / n as f64;
        prop_assert!((5.0..11.0).contains(&mean), "mean degree {mean}");
    }

    /// Watts–Strogatz at any rewiring rate keeps the graph simple.
    #[test]
    fn ws_simple(seed: u64, beta in 0.0f64..1.0, n in 10u64..500) {
        let et = WattsStrogatz::new(4, beta).run(n, &mut SplitMix64::new(seed));
        prop_assert!(et.iter().all(|(t, h)| t != h && t < n && h < n));
        let mut c = et.clone();
        c.canonicalize_undirected();
        prop_assert_eq!(c.dedup(), 0);
    }

    /// Barabási–Albert stays connected for any m.
    #[test]
    fn ba_connected(seed: u64, m in 1u64..6, n in 10u64..600) {
        let et = BarabasiAlbert::new(m).unwrap().run(n, &mut SplitMix64::new(seed));
        prop_assert_eq!(datasynth_analysis::largest_component_size(&et, n), n);
    }

    /// For every chunkable generator, concatenating `run_range` over an
    /// arbitrary partition of the slot space (then `finalize`) reproduces
    /// `run` byte-for-byte — the invariant behind thread-count-independent
    /// structure generation.
    #[test]
    fn run_range_concatenation_equals_whole_run(
        seed: u64,
        n in 50u64..1_500,
        step in 1u64..40,
    ) {
        let generators: Vec<(&str, Params)> = vec![
            ("erdos_renyi", Params::new().with_num("p", 0.01)),
            ("rmat", Params::new().with_num("edge_factor", 4.0)),
            ("rmat", Params::new().with_num("edge_factor", 2.0).with_num("simplify", 1.0)),
            ("sbm", Params::new().with_num("groups", 3.0).with_num("group_size", 120.0)),
        ];
        for (name, params) in generators {
            let g = build_generator(name, &params).unwrap();
            prop_assert!(g.chunkable(), "{name} should be chunkable");
            let whole = g.run(n, &mut SplitMix64::new(seed));
            // Same key derivation as run(): the rng's first draw.
            let stream = CounterStream::new(SplitMix64::new(seed).next_u64());
            let slots = g.num_slots(n);
            let mut parts = EdgeTable::new(g.name());
            let mut at = 0;
            while at < slots {
                let next = (at + step).min(slots);
                parts.extend_from(&g.run_range(n, at..next, &stream));
                at = next;
            }
            prop_assert_eq!(&whole, &g.finalize(parts), "{} differs under partition", name);
        }
    }

    /// Non-chunkable generators keep the sequential contract and say so.
    #[test]
    fn sequential_generators_report_not_chunkable(m in 1u64..4) {
        for name in ["barabasi_albert", "watts_strogatz", "lfr", "bter", "darwini"] {
            let g = build_generator(name, &Params::new().with_num("m", m as f64)).unwrap();
            prop_assert!(!g.chunkable(), "{name} must not claim chunkability");
        }
    }

    /// `num_nodes_for_edges` inverts `run` to within 30% for every
    /// registered generator that sizes from an edge count — with defaults,
    /// and for every `DegreeDist` under each of its four users — and
    /// `expected_edges` predicts `run` to within 30% for all twelve.
    #[test]
    fn sizing_roundtrip(seed: u64, target_m in 2_000u64..20_000) {
        let mut cases: Vec<(&str, Params)> = ["rmat", "lfr", "barabasi_albert", "watts_strogatz"]
            .map(|name| (name, Params::new()))
            .into();
        for &dist in DegreeDist::NAMES {
            let params = Params::new().with_text("dist", dist);
            let params = match dist {
                "constant" => params.with_num("k", 8.0),
                "uniform" => params.with_num("min", 10.0).with_num("max", 30.0),
                "zipf" => params.with_num("max", 50.0),
                "power_law" => params.with_num("min", 2.0).with_num("max", 40.0),
                _ => params,
            };
            // Attachment and the configuration model keep degree-0 draws;
            // BTER and Darwini clamp to >= 1, so they get the geometric
            // with little mass at 0.
            let (free, clamped) = if dist == "geometric" {
                let with_p = |p: f64| params.clone().with_num("p", p);
                (vec![with_p(0.1), with_p(0.4), with_p(0.8)], with_p(0.05))
            } else {
                (vec![params.clone()], params)
            };
            for name in ["one_to_many", "degree_sequence"] {
                cases.extend(free.iter().map(|params| (name, params.clone())));
            }
            for name in ["bter", "darwini"] {
                cases.push((name, clamped.clone()));
            }
        }
        let sized = cases.len();
        cases.extend([
            ("erdos_renyi", Params::new().with_num("p", 0.01)),
            ("gnm", Params::new().with_num("m", 5_000.0)),
            ("sbm", Params::new()),
            ("one_to_one", Params::new()),
        ]);
        for (i, (name, params)) in cases.iter().enumerate() {
            let g = build_generator(name, params).unwrap();
            let n = g.num_nodes_for_edges(target_m);
            let m = g.run(n, &mut SplitMix64::new(seed)).len() as f64;
            if i < sized {
                let rel = (m - target_m as f64).abs() / target_m as f64;
                prop_assert!(rel < 0.3, "{name}({params}): asked {target_m}, got {m}");
            }
            let expected = g.expected_edges(n) as f64;
            prop_assert!(
                (expected - m).abs() / m < 0.3,
                "{name}({params}): expected_edges({n}) = {expected}, run made {m}"
            );
        }
    }
}
