//! Runs one workload in this process: repeated set-up, one warm-up
//! repetition, the untraced timed repetitions the end-to-end metrics come
//! from, then (traced passes) the span-recording repetitions and kernel
//! calls the per-layer metrics come from, then verification.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use crate::catalog::{END_TO_END, PER_LAYER, WALL_LAYERS};
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use crate::workloads::{self, Checks, Ctx, Rep, Result, Samples, Workload};

/// How long to measure: a fixed number of repetitions, or for a time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    Reps(usize),
    Seconds(f64),
}

pub struct Options {
    pub workload: String,
    pub seed: u64,
    pub budget: Budget,
    /// Run the traced pass as well and report per-layer metrics.
    pub traced: bool,
    pub dir: PathBuf,
}

pub struct Outcome {
    pub checks: Checks,
    pub content_hash: u64,
    pub end_to_end: BTreeMap<String, Summary>,
    /// Every catalogue entry, 0 where the layer did nothing; empty unless traced.
    pub per_layer: BTreeMap<String, Summary>,
    /// Chrome-trace document of the traced repetitions.
    pub chrome_trace: Option<String>,
    pub notes: Vec<String>,
}

/// Set-ups are repeated for a steady median: at least 5 unless they are
/// slow, and up to 64 while they are nearly free.
fn more_setups(samples: usize, spent: Duration) -> bool {
    (samples < 5 && spent < Duration::from_millis(1500))
        || (samples < 64 && spent < Duration::from_millis(300))
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Restart `VmHWM` from the current resident set, where the kernel lets a
/// process do that, so each repetition gets a peak of its own.
fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// `VmHWM` of this process in MB (1e6 bytes), where `/proc` has it.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Repeat `workload.rep` under `budget`, at least `min` times. A timed
/// budget stops when another repetition would overshoot it by more than
/// half a repetition.
fn repetitions(
    workload: &mut dyn Workload,
    tracer: &mut Tracer,
    checks: &mut Checks,
    recording: bool,
    budget: Budget,
    min: usize,
) -> Result<Vec<Rep>> {
    let started = Instant::now();
    let mut reps = Vec::new();
    let mut last = Duration::ZERO;
    loop {
        let enough = match budget {
            Budget::Reps(n) => reps.len() >= n,
            Budget::Seconds(s) => {
                reps.len() >= min && (started.elapsed() + last / 2).as_secs_f64() >= s
            }
        };
        if enough {
            return Ok(reps);
        }
        let rep_started = Instant::now();
        let own_peak = reset_peak_rss();
        tracer.start_rep(recording);
        let mut rep = workload.rep(tracer, checks)?;
        if let Some(mb) = peak_rss_mb().filter(|_| own_peak) {
            rep.metrics.set("peak_rss_mb", mb);
        }
        reps.push(rep);
        last = rep_started.elapsed();
    }
}

fn column(reps: &[Rep], name: &str) -> Vec<f64> {
    reps.iter()
        .filter_map(|r| r.metrics.0.get(name).copied())
        .collect()
}

/// Share of each layer in a traced repetition's wall, in percent, and the
/// wall in ms.
fn layer_shares(tracer: &Tracer, rep: u32) -> (Samples, f64) {
    let mut out = Samples::default();
    let layers = tracer.layer_self_ns(rep);
    let wall: f64 = layers.values().sum();
    for layer in WALL_LAYERS {
        let own = layers.get(layer).copied().unwrap_or(0.0);
        out.rate(&format!("share.{layer}"), 100.0 * own, wall);
    }
    (out, wall / 1e6)
}

/// Set the workload up, repeatedly; the last set-up is the one kept.
fn set_up(name: &str, ctx: &Ctx) -> Result<(Box<dyn Workload>, Vec<f64>)> {
    let started = Instant::now();
    let mut setup_s = Vec::new();
    loop {
        workloads::fresh_dir(&ctx.dir)?;
        let one = Instant::now();
        let workload = workloads::setup(name, ctx)?;
        setup_s.push(one.elapsed().as_secs_f64());
        if !more_setups(setup_s.len(), started.elapsed()) {
            return Ok((workload, setup_s));
        }
    }
}

/// The traced pass: repetitions with spans recorded, then the kernel calls.
/// Returns the samples of every per-layer metric it measured.
fn traced_pass(
    workload: &mut dyn Workload,
    tracer: &mut Tracer,
    checks: &mut Checks,
    budget: Budget,
    untraced: &[Rep],
) -> Result<BTreeMap<String, Vec<f64>>> {
    let mut samples: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    let first = tracer.rep() + 1;
    let traced = repetitions(workload, tracer, checks, true, budget, 1)?;
    let untraced_wall = stats::median(&column(untraced, "wall_s"));
    for (i, rep) in traced.iter().enumerate() {
        let (mut own, wall_ms) = layer_shares(tracer, first + i as u32);
        own.set("trace.wall_ms", wall_ms);
        own.rate(
            "trace.overhead_ratio",
            rep.metrics.get("wall_s"),
            untraced_wall,
        );
        for (name, value) in rep.metrics.0.iter().chain(&own.0) {
            samples.entry(name.clone()).or_default().push(*value);
        }
    }
    let rounds: Vec<f64> = untraced
        .iter()
        .flat_map(|r| r.rounds_us.iter().copied())
        .collect();
    if !rounds.is_empty() {
        samples.insert(
            "engine.exec.round_p99_us".to_owned(),
            vec![stats::percentile(&rounds, 0.99)],
        );
    }
    let mut once = Samples::default();
    workload.setup_metrics(&mut once);
    workload.kernels(&mut once)?;
    samples.extend(once.0.into_iter().map(|(name, value)| (name, vec![value])));
    Ok(samples)
}

pub fn run(options: &Options) -> Result<Outcome> {
    let ctx = Ctx {
        seed: options.seed,
        nproc: nproc(),
        dir: options.dir.clone(),
    };
    let mut notes = Vec::new();
    let (mut workload, setup_s) = set_up(&options.workload, &ctx)?;

    let mut checks = Checks::default();
    let mut tracer = Tracer::new();
    let warm_up = repetitions(
        workload.as_mut(),
        &mut tracer,
        &mut checks,
        false,
        Budget::Reps(1),
        1,
    )?;

    // A traced pass splits its time between untraced and traced repetitions.
    let (untraced_budget, traced_budget) = match options.budget {
        Budget::Seconds(s) if options.traced => {
            (Budget::Seconds(s / 2.0), Budget::Seconds(s / 2.0))
        }
        budget => (budget, Budget::Reps(1)),
    };
    let untraced = repetitions(
        workload.as_mut(),
        &mut tracer,
        &mut checks,
        false,
        untraced_budget,
        2,
    )?;
    let whole_process_peak = peak_rss_mb();
    let content_hash = untraced.last().map_or(0, |r| r.hash);
    checks.check(
        warm_up
            .iter()
            .chain(&untraced)
            .all(|r| r.hash == content_hash),
        || "content hashes differ across repetitions".to_owned(),
    );

    let mut end_to_end: BTreeMap<String, Summary> = BTreeMap::new();
    let mut put = |name: &str, samples: &[f64]| {
        if let Some(summary) = Summary::of(samples) {
            end_to_end.insert(name.to_owned(), summary);
        }
    };
    put("setup_s", &setup_s);
    for def in &END_TO_END {
        put(def.name, &column(&untraced, def.name));
    }
    if column(&untraced, "peak_rss_mb").is_empty() {
        match whole_process_peak {
            Some(mb) => {
                put("peak_rss_mb", &[mb]);
                notes.push(
                    "peak_rss_mb is the whole process's VmHWM: /proc/self/clear_refs cannot restart it here".to_owned(),
                );
            }
            None => {
                notes.push("peak_rss_mb omitted: /proc/self/status has no VmHWM here".to_owned())
            }
        }
    }

    let mut per_layer_samples = BTreeMap::new();
    let mut chrome_trace = None;
    if options.traced {
        per_layer_samples = traced_pass(
            workload.as_mut(),
            &mut tracer,
            &mut checks,
            traced_budget,
            &untraced,
        )?;
        chrome_trace = Some(tracer.chrome_json(std::process::id() as usize, &options.workload));
    }

    // Verification, with its deterministic metrics.
    let mut verified = Samples::default();
    workload.verify(content_hash, &mut checks, &mut verified)?;
    for (name, value) in verified.0 {
        if END_TO_END.iter().any(|d| d.name == name) {
            put(&name, &[value]);
        } else {
            per_layer_samples.insert(name, vec![value]);
        }
    }
    put(
        "failed_share",
        &[checks.failed as f64 / checks.attempted.max(1) as f64],
    );

    let per_layer = if options.traced {
        PER_LAYER
            .iter()
            .map(|def| {
                let samples = per_layer_samples
                    .get(def.name)
                    .map_or(&[0.0][..], Vec::as_slice);
                (
                    def.name.to_owned(),
                    Summary::of(samples).expect("at least one sample"),
                )
            })
            .collect()
    } else {
        BTreeMap::new()
    };
    Ok(Outcome {
        checks,
        content_hash,
        end_to_end,
        per_layer,
        chrome_trace,
        notes,
    })
}
