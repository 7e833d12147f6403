//! The write path allocates per table, not per row: a counting global
//! allocator (hence a test binary of its own, with a single test) watches
//! `TableSlice::write` turn a long/double/date/text table into CSV and into
//! JSONL, and the number of allocations must not follow the row count.
//!
//! Before the cell kernel every cell cost three `String`s
//! (`PropertyTable::value` → `Value::render` → `csv_escape`), which is
//! 240 000 allocations for the larger table below.

use std::alloc::{GlobalAlloc, Layout, System};
use std::io;
use std::sync::atomic::{AtomicU64, Ordering};

use datasynth::tables::export::{TableFormat, TableSlice, WINDOW_ROWS};
use datasynth::tables::{PropertyTable, Value, ValueType};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds the
// `GlobalAlloc` contract; the counter is a statistic that guards no memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are `System.alloc`'s own.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` through `alloc`/`realloc` above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn column(name: &str, value_type: ValueType, rows: u64, cell: fn(u64) -> Value) -> PropertyTable {
    PropertyTable::from_values(name, value_type, (0..rows).map(cell)).unwrap()
}

/// Allocations (growth of the window buffer included) of one
/// `TableSlice::write` of a `rows`-row table into a writer that keeps
/// nothing.
fn allocations_to_write(rows: u64, format: TableFormat) -> u64 {
    let columns = [
        column("n", ValueType::Long, rows, |i| {
            Value::Long(i as i64 * 7919 - 40_000)
        }),
        column("x", ValueType::Double, rows, |i| {
            Value::Double(i as f64 / 7.0)
        }),
        column("d", ValueType::Date, rows, |i| {
            Value::Date(i as i64 % 20_000)
        }),
        column("t", ValueType::Text, rows, |i| {
            Value::Text(format!("text, \"{i}\"\n"))
        }),
    ];
    let props: Vec<(&str, &PropertyTable)> =
        ["n", "x", "d", "t"].into_iter().zip(&columns).collect();
    let slice = TableSlice::new("T", 0..rows, None, &props).unwrap();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    slice.write(&mut io::sink(), format, true).unwrap();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

#[test]
fn writing_a_table_allocates_per_table_not_per_row() {
    for format in [TableFormat::Csv, TableFormat::Jsonl] {
        // Both tables span more than one window, so both grow the reused
        // buffer to a full window's bytes.
        let (small, large) = (2_000, 20_000);
        assert!(small > WINDOW_ROWS);
        let few = allocations_to_write(small, format);
        let many = allocations_to_write(large, format);
        // Ten times the rows; the slack is for one more doubling of the
        // buffer, since later windows hold longer ids.
        assert!(
            many <= few + 2,
            "{format:?}: {few} allocations for {small} rows but {many} for {large}"
        );
        assert!(few < 64, "{format:?}: {few} allocations for one table");
    }
}
