//! JSON-lines syntax: one self-contained object per row. Called only by
//! [`TableSlice::write`](super::TableSlice::write), so every column is
//! known to hold exactly the row window.

use std::io::{self, Write};
use std::ops::Range;

use super::cell::{push_json_text, push_u64, Cells};
use super::{write_windows, Endpoints};

/// Write one object per global id in `rows`. The endpoint pairs and the
/// columns hold exactly those rows (their row `0` is global id
/// `rows.start`). JSONL has no header, so a shard's output is exactly its
/// row window.
pub(super) fn write_table<W: Write>(
    w: &mut W,
    rows: Range<u64>,
    endpoints: Option<Endpoints<'_>>,
    columns: &[(&str, Cells<'_>)],
) -> io::Result<()> {
    // What every row repeats is escaped once: each property's `,"name":`
    // and an edge table's `,"source":"S","target":"T"`.
    let keys: Vec<Vec<u8>> = columns
        .iter()
        .map(|(name, _)| {
            let mut key = b",\"".to_vec();
            push_json_text(&mut key, name);
            key.extend_from_slice(b"\":");
            key
        })
        .collect();
    let edges = endpoints.map(|e| {
        let mut types = b",\"source\":\"".to_vec();
        push_json_text(&mut types, e.source);
        types.extend_from_slice(b"\",\"target\":\"");
        push_json_text(&mut types, e.target);
        types.push(b'"');
        (e.table.tails(), e.table.heads(), types)
    });
    let offset = rows.start;
    write_windows(w, Vec::new(), rows, |buf, id| {
        let row = (id - offset) as usize;
        buf.extend_from_slice(b"{\"id\":");
        push_u64(buf, id);
        if let Some((tails, heads, types)) = &edges {
            buf.extend_from_slice(b",\"tail\":");
            push_u64(buf, tails[row]);
            buf.extend_from_slice(b",\"head\":");
            push_u64(buf, heads[row]);
            buf.extend_from_slice(types);
        }
        for (key, (_, cells)) in keys.iter().zip(columns) {
            buf.extend_from_slice(key);
            cells.push_json(buf, row);
        }
        buf.extend_from_slice(b"}\n");
    })
}

#[cfg(test)]
mod tests {
    use crate::export::{Exporter, JsonlExporter};
    use crate::{EdgeTable, PropertyGraph, PropertyTable, Value, ValueType};

    #[test]
    fn emits_valid_lines() {
        let mut g = PropertyGraph::new();
        g.add_node_type("T", 1);
        g.insert_node_property(
            "T",
            "label",
            PropertyTable::from_values("T.label", ValueType::Text, ["a\"b"].map(Value::from))
                .unwrap(),
        );
        g.insert_edge_table("e", "T", "T", EdgeTable::from_pairs("e", [(0u64, 0u64)]));
        let dir = std::env::temp_dir().join(format!("ds-jsonl-test-{}", std::process::id()));
        JsonlExporter.export(&g, &dir).unwrap();
        let nodes = std::fs::read_to_string(dir.join("T.jsonl")).unwrap();
        assert_eq!(nodes.trim(), r#"{"id":0,"label":"a\"b"}"#);
        let edges = std::fs::read_to_string(dir.join("e.jsonl")).unwrap();
        assert!(edges.contains("\"tail\":0"));
        assert!(edges.contains("\"source\":\"T\""));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
