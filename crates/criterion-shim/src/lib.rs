//! A minimal, dependency-free stand-in for the [`criterion`] crate.
//!
//! The build environment has no access to a crates registry, so the real
//! `criterion` cannot be vendored. This shim implements the API surface the
//! workspace's benches use — `Criterion::benchmark_group`, `bench_function`,
//! `bench_with_input`, `BenchmarkId`, `Throughput`, `black_box`, and the
//! `criterion_group!`/`criterion_main!` macros — with a simple
//! warmup-then-measure timer that prints one line per benchmark:
//!
//! ```text
//! matching_lfr20k_k16/ldg ... 12.345 ms/iter (1620.3 Kelem/s)
//! ```
//!
//! `-- --quick` caps the measurement target (~60 ms per benchmark) for
//! smoke runs. Unknown harness flags (`--bench`, filters, …) are ignored.
//!
//! No statistical analysis, persistence or HTML reports are performed —
//! these benches are a by-hand instrument for one layer; the repository's
//! performance trajectory is the `benchmark/` package's. Swap the
//! dependency back to the real crate when registry access is available.
//!
//! [`criterion`]: https://docs.rs/criterion

use std::fmt;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// Measurement target cap under `--quick` (smoke mode).
const QUICK_TARGET: Duration = Duration::from_millis(60);

static QUICK: OnceLock<bool> = OnceLock::new();

fn quick() -> bool {
    *QUICK.get_or_init(|| false)
}

/// Parse harness flags from `std::env::args`. Called by the
/// `criterion_main!`-generated `main` before any group runs; unknown
/// flags (cargo's `--bench`, name filters) are ignored. If never called
/// (a group invoked directly from a test), the defaults apply.
pub fn init_from_args() {
    let _ = QUICK.set(std::env::args().skip(1).any(|a| a == "--quick"));
}

/// How throughput is accounted per iteration.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// A benchmark identifier: function name plus an optional parameter.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    name: String,
}

impl BenchmarkId {
    /// `name/parameter` form.
    pub fn new(name: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        Self {
            name: format!("{name}/{parameter}"),
        }
    }

    /// Parameter-only form (the group provides the name).
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        Self {
            name: parameter.to_string(),
        }
    }
}

impl fmt::Display for BenchmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.name)
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        Self { name: s.into() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        Self { name: s }
    }
}

/// Passed to the closure under test; `iter` runs and times the payload.
pub struct Bencher {
    iters_done: u64,
    elapsed: Duration,
    target: Duration,
}

impl Bencher {
    fn new(target: Duration) -> Self {
        Self {
            iters_done: 0,
            elapsed: Duration::ZERO,
            target,
        }
    }

    /// Run `payload` repeatedly until the measurement target is reached.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut payload: F) {
        // One untimed warmup iteration.
        black_box(payload());
        let start = Instant::now();
        loop {
            black_box(payload());
            self.iters_done += 1;
            self.elapsed = start.elapsed();
            if self.elapsed >= self.target {
                break;
            }
        }
    }

    fn per_iter(&self) -> Duration {
        if self.iters_done == 0 {
            Duration::ZERO
        } else {
            self.elapsed / self.iters_done as u32
        }
    }
}

fn human_time(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns >= 1_000_000_000 {
        format!("{:.3} s", d.as_secs_f64())
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

fn human_rate(per_sec: f64, unit: &str) -> String {
    if per_sec >= 1e9 {
        format!("{:.1} G{unit}/s", per_sec / 1e9)
    } else if per_sec >= 1e6 {
        format!("{:.1} M{unit}/s", per_sec / 1e6)
    } else if per_sec >= 1e3 {
        format!("{:.1} K{unit}/s", per_sec / 1e3)
    } else {
        format!("{per_sec:.1} {unit}/s")
    }
}

fn report(group: Option<&str>, id: &str, b: &Bencher, throughput: Option<Throughput>) {
    let per_iter = b.per_iter();
    let label = match group {
        Some(g) => format!("{g}/{id}"),
        None => id.to_string(),
    };
    let mut line = format!("{label} ... {}/iter", human_time(per_iter));
    if let Some(t) = throughput {
        let secs = per_iter.as_secs_f64();
        if secs > 0.0 {
            let (count, unit) = match t {
                Throughput::Elements(n) => (n, "elem"),
                Throughput::Bytes(n) => (n, "B"),
            };
            line.push_str(&format!(" ({})", human_rate(count as f64 / secs, unit)));
        }
    }
    println!("{line}");
}

/// A named group of related benchmarks.
pub struct BenchmarkGroup<'c> {
    name: String,
    throughput: Option<Throughput>,
    target: Duration,
    _criterion: &'c mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Accepted for API compatibility; the shim sizes runs by wall time.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Accepted for API compatibility; `--quick` caps it further.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        let cap = if quick() {
            QUICK_TARGET
        } else {
            Duration::from_secs(2)
        };
        self.target = d.min(cap);
        self
    }

    /// Set the throughput accounting for subsequent benchmarks.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Run one benchmark.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut b = Bencher::new(self.target);
        f(&mut b);
        report(Some(&self.name), &id.name, &b, self.throughput);
        self
    }

    /// Run one benchmark parameterized by `input`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: impl Into<BenchmarkId>,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let id = id.into();
        let mut b = Bencher::new(self.target);
        f(&mut b, input);
        report(Some(&self.name), &id.name, &b, self.throughput);
        self
    }

    /// End the group (no-op beyond API compatibility).
    pub fn finish(&mut self) {}
}

/// The benchmark harness entry point.
#[derive(Debug, Default)]
pub struct Criterion {
    target: Duration,
}

impl Criterion {
    fn effective_target(&self) -> Duration {
        let target = if self.target.is_zero() {
            Duration::from_millis(300)
        } else {
            self.target
        };
        if quick() {
            target.min(QUICK_TARGET)
        } else {
            target
        }
    }

    /// Open a named benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        let target = self.effective_target();
        BenchmarkGroup {
            name: name.into(),
            throughput: None,
            target,
            _criterion: self,
        }
    }

    /// Run one stand-alone benchmark.
    pub fn bench_function<F>(&mut self, id: &str, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let mut b = Bencher::new(self.effective_target());
        f(&mut b);
        report(None, id, &b, None);
        self
    }
}

/// Declare a group-runner function calling each benchmark fn in turn.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        pub fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declare `main` running each group, honouring the harness flag
/// `--quick`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $crate::init_from_args();
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_counts_iterations() {
        let mut b = Bencher::new(Duration::from_millis(5));
        let mut n = 0u64;
        b.iter(|| n += 1);
        assert!(b.iters_done >= 1);
        assert!(n > b.iters_done, "warmup iteration must also run");
        assert!(b.per_iter() > Duration::ZERO);
    }

    #[test]
    fn ids_render() {
        assert_eq!(
            BenchmarkId::new("sbm", "Density").to_string(),
            "sbm/Density"
        );
        assert_eq!(BenchmarkId::from_parameter(4).to_string(), "4");
    }

    #[test]
    fn human_units() {
        assert_eq!(human_time(Duration::from_nanos(500)), "500 ns");
        assert_eq!(human_time(Duration::from_micros(1500)), "1.500 ms");
        assert!(human_rate(2.5e6, "elem").starts_with("2.5 M"));
    }
}
