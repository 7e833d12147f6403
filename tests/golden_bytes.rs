//! The bytes of the write path, pinned two ways.
//!
//! **Golden digests.** `tests/golden/social_seed42.sha256` lists the
//! SHA-256 of every file `examples/social.dsl` exports at seed 42 — the
//! four tables as CSV and JSONL, `ops.csv`, `ops.jsonl` — computed at the
//! commit before the cell kernel replaced the per-cell `Value` round trip.
//! Run-vs-run equality and the manifest's *value* hash cannot see a changed
//! date or number rendering; these digests can. CI checks the same list
//! against the release binary with `sha256sum -c`.
//!
//! **Differential.** The public `csv_escape`, `json_escape`,
//! `Value::render` and `format_date` are the reference definition of a
//! cell's text; a row writer built from them (one `String` per cell, as the
//! write path used to work) must agree byte for byte with
//! `TableSlice::write` and `ops::write_ops` on arbitrary tables, edge cases
//! first.

use std::fs;
use std::path::{Path, PathBuf};

use proptest::prelude::*;

use datasynth::prelude::*;
use datasynth::tables::export::ops::{write_ops, OpRow};
use datasynth::tables::export::{
    csv_escape, json_escape, Endpoints, TableFormat, TableSlice, WINDOW_ROWS,
};
use datasynth::tables::{days_from_civil, format_date, EdgeTable, PropertyTable, Value, ValueType};
use datasynth::temporal::{ops_file_name, TemporalSink};

fn matrix_threads() -> usize {
    std::env::var("DATASYNTH_TEST_THREADS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(7)
}

// ---------------------------------------------------------------------------
// SHA-256 (FIPS 180-4), so the test reads the list `sha256sum -c` reads.
// ---------------------------------------------------------------------------

const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

fn sha256_hex(data: &[u8]) -> String {
    let mut h: [u32; 8] = [
        0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab,
        0x5be0cd19,
    ];
    let mut message = data.to_vec();
    message.push(0x80);
    while message.len() % 64 != 56 {
        message.push(0);
    }
    message.extend_from_slice(&(data.len() as u64 * 8).to_be_bytes());
    for block in message.chunks_exact(64) {
        let mut w = [0u32; 64];
        for (i, word) in block.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(word.try_into().unwrap());
        }
        for i in 16..64 {
            let s0 = w[i - 15].rotate_right(7) ^ w[i - 15].rotate_right(18) ^ (w[i - 15] >> 3);
            let s1 = w[i - 2].rotate_right(17) ^ w[i - 2].rotate_right(19) ^ (w[i - 2] >> 10);
            w[i] = w[i - 16]
                .wrapping_add(s0)
                .wrapping_add(w[i - 7])
                .wrapping_add(s1);
        }
        let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut hh] = h;
        for i in 0..64 {
            let s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
            let ch = (e & f) ^ (!e & g);
            let t1 = hh
                .wrapping_add(s1)
                .wrapping_add(ch)
                .wrapping_add(K[i])
                .wrapping_add(w[i]);
            let s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
            let maj = (a & b) ^ (a & c) ^ (b & c);
            let t2 = s0.wrapping_add(maj);
            (hh, g, f, e, d, c, b, a) = (g, f, e, d.wrapping_add(t1), c, b, a, t1.wrapping_add(t2));
        }
        for (state, add) in h.iter_mut().zip([a, b, c, d, e, f, g, hh]) {
            *state = state.wrapping_add(add);
        }
    }
    h.iter().map(|word| format!("{word:08x}")).collect()
}

#[test]
fn sha256_matches_the_published_vectors() {
    assert_eq!(
        sha256_hex(b""),
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    );
    assert_eq!(
        sha256_hex(b"abc"),
        "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    );
    // Two blocks: the padding does not fit behind 56 message bytes.
    assert_eq!(
        sha256_hex(b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
        "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    );
}

// ---------------------------------------------------------------------------
// Golden digests.
// ---------------------------------------------------------------------------

/// Export `examples/social.dsl` at seed 42 the way the CLI's
/// `--format both --ops` does, plus the JSONL op log.
fn export_social(threads: usize) -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let dsl = fs::read_to_string(root.join("examples/social.dsl")).unwrap();
    let dir = std::env::temp_dir().join(format!("ds-golden-{}-t{threads}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let generator = DataSynth::from_dsl(&dsl)
        .unwrap()
        .with_seed(42)
        .with_threads(threads);
    let ops = |format| {
        let file = fs::File::create(dir.join(ops_file_name(format))).unwrap();
        TemporalSink::new(generator.schema(), file, format).unwrap()
    };
    let (mut csv, mut jsonl) = (CsvSink::new(&dir), JsonlSink::new(&dir));
    let mut ops_csv = ops(TableFormat::Csv);
    let mut sinks = MultiSink::new()
        .with(&mut csv)
        .with(&mut jsonl)
        .with(&mut ops_csv);
    let session = generator.session().unwrap().with_ops(true);
    session.run_into(&mut sinks).unwrap();
    let session = generator.session().unwrap().with_ops(true);
    session.run_into(&mut ops(TableFormat::Jsonl)).unwrap();
    dir
}

#[test]
fn social_export_matches_the_committed_digests() {
    let list = include_str!("golden/social_seed42.sha256");
    assert_eq!(list.lines().count(), 10, "4 tables x 2 formats + 2 op logs");
    for threads in [1, matrix_threads()] {
        let dir = export_social(threads);
        for line in list.lines() {
            let (digest, file) = line.split_once("  ").expect("sha256sum's two-space format");
            let bytes = fs::read(dir.join(file)).unwrap();
            assert_eq!(
                sha256_hex(&bytes),
                digest,
                "{file} at {threads} thread(s): the bytes of the write path changed"
            );
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}

// ---------------------------------------------------------------------------
// Differential: the kernel against the reference escapers.
// ---------------------------------------------------------------------------

/// A value's JSON form, from the reference functions.
fn reference_json(v: &Value) -> String {
    match v {
        Value::Null => "null".to_owned(),
        Value::Bool(_) | Value::Long(_) => v.render(),
        Value::Double(x) if x.is_finite() => v.render(),
        Value::Double(_) => "null".to_owned(),
        Value::Text(_) | Value::Date(_) => format!("\"{}\"", json_escape(&v.render())),
    }
}

/// What `TableSlice::write` must produce, one `String` per cell.
fn reference_table(
    format: TableFormat,
    header: bool,
    ids: std::ops::Range<u64>,
    endpoints: Option<Endpoints<'_>>,
    props: &[(&str, &PropertyTable)],
) -> String {
    let mut out = String::new();
    if header && format == TableFormat::Csv {
        out.push_str(if endpoints.is_some() {
            "id,tail,head"
        } else {
            "id"
        });
        for (name, _) in props {
            out.push_str(&format!(",{}", csv_escape(name)));
        }
        out.push('\n');
    }
    for id in ids.clone() {
        let row = id - ids.start;
        match format {
            TableFormat::Csv => {
                out.push_str(&id.to_string());
                if let Some(e) = endpoints {
                    let (tail, head) = e.table.edge(row);
                    out.push_str(&format!(",{tail},{head}"));
                }
                for (_, table) in props {
                    let cell = table.value(row).unwrap().render();
                    out.push_str(&format!(",{}", csv_escape(&cell)));
                }
            }
            TableFormat::Jsonl => {
                out.push_str(&format!("{{\"id\":{id}"));
                if let Some(e) = endpoints {
                    let (tail, head) = e.table.edge(row);
                    out.push_str(&format!(
                        ",\"tail\":{tail},\"head\":{head},\"source\":\"{}\",\"target\":\"{}\"",
                        json_escape(e.source),
                        json_escape(e.target)
                    ));
                }
                for (name, table) in props {
                    let cell = reference_json(&table.value(row).unwrap());
                    out.push_str(&format!(",\"{}\":{cell}", json_escape(name)));
                }
                out.push('}');
            }
        }
        out.push('\n');
    }
    out
}

/// Fail the case naming where `written` leaves `expected`, not by
/// printing two multi-thousand-row tables.
fn first_difference(written: &[u8], expected: &str) -> Option<String> {
    let expected = expected.as_bytes();
    if written == expected {
        return None;
    }
    let at = written
        .iter()
        .zip(expected)
        .take_while(|(a, b)| a == b)
        .count();
    let excerpt = |bytes: &[u8]| {
        let end = bytes.len().min(at + 40);
        String::from_utf8_lossy(&bytes[at.saturating_sub(40)..end]).into_owned()
    };
    Some(format!(
        "byte {at} of {} (expected {}): wrote {:?}, expected {:?}",
        written.len(),
        expected.len(),
        excerpt(written),
        excerpt(expected)
    ))
}

/// What `write_ops` must produce.
fn reference_ops(format: TableFormat, header: bool, ops: &[OpRow<'_>]) -> String {
    let mut out = String::new();
    if header && format == TableFormat::Csv {
        out.push_str("op,ts,kind,table,row\n");
    }
    for op in ops {
        let ts = format_date(op.ts);
        out.push_str(&match format {
            TableFormat::Csv => format!(
                "{},{ts},{},{},{}\n",
                op.op,
                csv_escape(op.kind),
                csv_escape(op.table),
                op.row
            ),
            TableFormat::Jsonl => format!(
                "{{\"op\":{},\"ts\":\"{ts}\",\"kind\":\"{}\",\"table\":\"{}\",\"row\":{}}}\n",
                op.op,
                json_escape(op.kind),
                json_escape(op.table),
                op.row
            ),
        });
    }
    out
}

/// Text over everything either escaper treats specially, plus what it
/// must leave alone: quotes, separators, line breaks, tab, other control
/// characters, backslash, DEL, and 2-, 3- and 4-byte characters.
fn arb_text() -> impl Strategy<Value = String> {
    const PALETTE: [&str; 20] = [
        "\"", ",", "\r\n", "\n", "\r", "\t", "\u{1}", "\u{1f}", "\\", "\u{7f}", "é", "漢", "😀",
        "a", "Z", " ", "0", "/", "{", ":",
    ];
    prop::collection::vec(0usize..PALETTE.len(), 0..12)
        .prop_map(|picks| picks.into_iter().map(|i| PALETTE[i]).collect())
}

fn arb_long() -> impl Strategy<Value = i64> {
    prop_oneof![
        Just(i64::MIN),
        Just(i64::MAX),
        Just(0i64),
        Just(-1i64),
        -1000i64..1000,
        any::<i64>(),
    ]
}

fn arb_double() -> impl Strategy<Value = f64> {
    prop_oneof![
        Just(f64::NAN),
        Just(f64::INFINITY),
        Just(f64::NEG_INFINITY),
        Just(-0.0f64),
        Just(1e21f64),
        Just(5e-324f64),
        Just(0.1f64),
        -1e6f64..1e6,
        any::<u64>().prop_map(f64::from_bits),
    ]
}

/// Epoch days, years below zero and above 9999 included.
fn arb_date() -> impl Strategy<Value = i64> {
    prop_oneof![
        Just(days_from_civil(-1, 12, 31)),
        Just(days_from_civil(-12345, 1, 1)),
        Just(days_from_civil(0, 2, 29)),
        Just(days_from_civil(999, 1, 1)),
        Just(days_from_civil(9999, 12, 31)),
        Just(days_from_civil(10000, 1, 1)),
        Just(days_from_civil(123_456, 7, 8)),
        -5_000_000i64..5_000_000,
    ]
}

/// One column's values: a pool the rows cycle through.
fn arb_pool() -> impl Strategy<Value = (ValueType, Vec<Value>)> {
    fn pool<T: 'static>(
        value_type: ValueType,
        of: impl Strategy<Value = T> + 'static,
        wrap: fn(T) -> Value,
    ) -> BoxedStrategy<(ValueType, Vec<Value>)> {
        let values = prop::collection::vec(of, 1..24);
        let pool = values.prop_map(move |v| (value_type, v.into_iter().map(wrap).collect()));
        Box::new(pool)
    }
    prop_oneof![
        pool(ValueType::Bool, any::<bool>(), Value::Bool),
        pool(ValueType::Long, arb_long(), Value::Long),
        pool(ValueType::Double, arb_double(), Value::Double),
        pool(ValueType::Text, arb_text(), Value::Text),
        pool(ValueType::Date, arb_date(), Value::Date),
    ]
}

/// Row counts on both sides of a window boundary.
fn arb_rows() -> impl Strategy<Value = u64> {
    prop_oneof![0u64..40, WINDOW_ROWS - 2..2 * WINDOW_ROWS + 3]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// `TableSlice::write` == the reference writer, for node and edge
    /// tables, both formats, with and without header, at any row offset.
    #[test]
    fn table_bytes_equal_the_reference(
        first_id in prop_oneof![Just(0u64), 0u64..100_000],
        rows in arb_rows(),
        columns in prop::collection::vec((arb_text(), arb_pool()), 0..5),
        edge_types in prop::option::of((arb_text(), arb_text())),
    ) {
        let tables: Vec<(String, PropertyTable)> = columns
            .into_iter()
            .map(|(name, (value_type, pool))| {
                let cells = (0..rows as usize).map(|row| pool[row % pool.len()].clone());
                let table = PropertyTable::from_values(name.as_str(), value_type, cells).unwrap();
                (name, table)
            })
            .collect();
        let props: Vec<(&str, &PropertyTable)> =
            tables.iter().map(|(name, table)| (name.as_str(), table)).collect();
        let pairs = (0..rows).map(|row| {
            let head = if row % 5 == 0 { u64::MAX } else { row % 97 };
            (row.wrapping_mul(7919) % 100_003, head)
        });
        let edges = EdgeTable::from_pairs("e", pairs);
        let endpoints = edge_types.as_ref().map(|(source, target)| Endpoints {
            source,
            target,
            table: &edges,
        });
        let ids = first_id..first_id + rows;
        let slice = TableSlice::new("t", ids.clone(), endpoints, &props).unwrap();
        for format in [TableFormat::Csv, TableFormat::Jsonl] {
            for header in [true, false] {
                let mut written = Vec::new();
                slice.write(&mut written, format, header).unwrap();
                let expected = reference_table(format, header, ids.clone(), endpoints, &props);
                let difference = first_difference(&written, &expected);
                prop_assert!(difference.is_none(), "{:?}, header {}: {:?}", format, header, difference);
            }
        }
    }

    /// `write_ops` == the reference writer, whatever the kind and table
    /// names hold.
    #[test]
    fn op_log_bytes_equal_the_reference(
        first_op in prop_oneof![Just(0u64), any::<u64>().prop_map(|op| op / 2)],
        pool in prop::collection::vec((arb_date(), arb_text(), arb_text(), any::<u64>()), 1..12),
        count in arb_rows(),
    ) {
        let ops: Vec<OpRow<'_>> = (0..count)
            .map(|i| {
                let (ts, kind, table, row) = &pool[i as usize % pool.len()];
                OpRow { op: first_op + i, ts: *ts, kind, table, row: *row }
            })
            .collect();
        let window = first_op..first_op + count;
        for format in [TableFormat::Csv, TableFormat::Jsonl] {
            for header in [true, false] {
                let mut written = Vec::new();
                let op_at = |op: u64| ops[(op - first_op) as usize].clone();
                write_ops(&mut written, format, header, window.clone(), op_at).unwrap();
                let difference = first_difference(&written, &reference_ops(format, header, &ops));
                prop_assert!(difference.is_none(), "{:?}, header {}: {:?}", format, header, difference);
            }
        }
    }
}
