//! CSV syntax: `id,<props...>` for a node table, `id,tail,head,<props...>`
//! for an edge table. Called only by [`TableSlice::write`](super::TableSlice::write),
//! so every column is known to hold exactly the row window.

use std::io::{self, Write};
use std::ops::Range;

use super::cell::{push_csv_text, push_u64, Cells};
use super::write_windows;
use crate::EdgeTable;

/// Write the header line if asked, then one record per global id in
/// `rows`. `edges` and the columns hold exactly those rows (their row `0`
/// is global id `rows.start`), so concatenating the row output of a
/// table's shards reproduces the full table's rows byte-for-byte.
pub(super) fn write_table<W: Write>(
    w: &mut W,
    write_header: bool,
    rows: Range<u64>,
    edges: Option<&EdgeTable>,
    columns: &[(&str, Cells<'_>)],
) -> io::Result<()> {
    let mut header = Vec::new();
    if write_header {
        header.extend_from_slice(if edges.is_some() {
            b"id,tail,head"
        } else {
            b"id"
        });
        for (name, _) in columns {
            header.push(b',');
            push_csv_text(&mut header, name);
        }
        header.push(b'\n');
    }
    let offset = rows.start;
    let endpoints = edges.map(|e| (e.tails(), e.heads()));
    write_windows(w, header, rows, |buf, id| {
        let row = (id - offset) as usize;
        push_u64(buf, id);
        if let Some((tails, heads)) = endpoints {
            buf.push(b',');
            push_u64(buf, tails[row]);
            buf.push(b',');
            push_u64(buf, heads[row]);
        }
        for (_, cells) in columns {
            buf.push(b',');
            cells.push_csv(buf, row);
        }
        buf.push(b'\n');
    })
}

#[cfg(test)]
mod tests {
    use crate::export::{CsvExporter, Exporter, TableFormat, TableSlice};
    use crate::{EdgeTable, PropertyGraph, PropertyTable, Value, ValueType};

    fn graph() -> PropertyGraph {
        let mut g = PropertyGraph::new();
        g.add_node_type("Person", 2);
        g.insert_node_property(
            "Person",
            "name",
            PropertyTable::from_values(
                "Person.name",
                ValueType::Text,
                ["Ann, A.", "Bob"].map(Value::from),
            )
            .unwrap(),
        );
        g.insert_edge_table(
            "knows",
            "Person",
            "Person",
            EdgeTable::from_pairs("knows", [(0u64, 1u64)]),
        );
        g.insert_edge_property(
            "knows",
            "since",
            PropertyTable::from_values("knows.since", ValueType::Date, [Value::Date(0)]).unwrap(),
        );
        g
    }

    #[test]
    fn writes_expected_files_and_rows() {
        let dir = std::env::temp_dir().join(format!("ds-csv-test-{}", std::process::id()));
        CsvExporter.export(&graph(), &dir).unwrap();
        let person = std::fs::read_to_string(dir.join("Person.csv")).unwrap();
        let mut lines = person.lines();
        assert_eq!(lines.next(), Some("id,name"));
        assert_eq!(lines.next(), Some("0,\"Ann, A.\""), "comma field quoted");
        assert_eq!(lines.next(), Some("1,Bob"));
        let knows = std::fs::read_to_string(dir.join("knows.csv")).unwrap();
        assert_eq!(
            knows.lines().collect::<Vec<_>>(),
            vec!["id,tail,head,since", "0,0,1,1970-01-01"]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn table_writers_match_exporter_output() {
        let g = graph();
        let mut buf = Vec::new();
        let props: Vec<_> = g.node_properties_of("Person").collect();
        TableSlice::new("Person", 0..2, None, &props)
            .unwrap()
            .write(&mut buf, TableFormat::Csv, true)
            .unwrap();
        let dir = std::env::temp_dir().join(format!("ds-csv-wtest-{}", std::process::id()));
        CsvExporter.export(&g, &dir).unwrap();
        let exported = std::fs::read(dir.join("Person.csv")).unwrap();
        assert_eq!(buf, exported);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
