//! The repo's benchmark: six workloads over schema text -> plan -> generate
//! -> bytes on disk -> loaded store -> curated query mix, each run in a
//! process of its own. See `benchmark/README.md`.

mod catalog;
mod compare;
mod harness;
mod report;
mod sinks;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use datasynth::telemetry::json::Json;

use harness::{Budget, Options};
use workloads::Result;

const USAGE: &str = "\
usage: datasynth-benchmark [options]            run every workload, each in a child process
       datasynth-benchmark --workload NAME ...  run one workload in this process
       datasynth-benchmark --list               print every workload and metric name
       datasynth-benchmark --compare A.json B.json

options:
  --seed N        the only input besides the schema texts (default 42)
  --reps N        timed repetitions after one warm-up (default 5)
  --seconds S     measure for S seconds instead of a fixed number of repetitions
  --trace 0|1|FILE
                  0: end-to-end metrics only; 1: also the traced pass and the
                  per-layer metrics (default when running every workload);
                  FILE: as 1, and write the spans as Chrome-trace JSON to FILE
  --out FILE      write the results JSON to FILE
  --work-dir DIR  write everything else under DIR (default: a fresh directory
                  beside the executable, removed on exit)
  --keep          keep the work directory
";

#[derive(Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    reps: Option<usize>,
    seconds: Option<f64>,
    trace: Option<String>,
    out: Option<PathBuf>,
    work_dir: Option<PathBuf>,
    keep: bool,
    list: bool,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => args.seed = Some(value()?.parse()?),
            "--reps" => args.reps = Some(value()?.parse()?),
            "--seconds" => args.seconds = Some(value()?.parse()?),
            "--trace" => args.trace = Some(value()?.clone()),
            "--out" => args.out = Some(value()?.into()),
            "--work-dir" => args.work_dir = Some(value()?.into()),
            "--keep" => args.keep = true,
            "--list" => args.list = true,
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            "-h" | "--help" => return Err(USAGE.into()),
            other => return Err(format!("unknown argument {other:?}\n{USAGE}").into()),
        }
    }
    if args.reps.is_some() && args.seconds.is_some() {
        return Err("--reps and --seconds exclude each other".into());
    }
    if args.reps == Some(0) || args.seconds.is_some_and(|s| s.is_nan() || s <= 0.0) {
        return Err("--reps and --seconds must be positive".into());
    }
    Ok(args)
}

impl Args {
    fn budget(&self) -> Budget {
        match self.seconds {
            Some(s) => Budget::Seconds(s),
            None => Budget::Reps(self.reps.unwrap_or(5)),
        }
    }

    fn budget_text(&self) -> String {
        match self.budget() {
            Budget::Reps(n) => format!("1 warm-up + {n} repetitions"),
            Budget::Seconds(s) => format!("1 warm-up + {s} s of repetitions"),
        }
    }

    /// Whether the traced pass runs, and where its Chrome trace goes.
    fn trace(&self, default: bool) -> (bool, Option<PathBuf>) {
        match self.trace.as_deref() {
            None => (default, None),
            Some("0") => (false, None),
            Some("1") => (true, None),
            Some(file) => (true, Some(file.into())),
        }
    }
}

/// The directory everything is written under; removed on drop unless kept.
struct WorkDir {
    path: PathBuf,
    keep: bool,
}

impl WorkDir {
    fn new(args: &Args) -> Result<Self> {
        let path = match &args.work_dir {
            Some(dir) => dir.clone(),
            // Beside the executable: inside the build directory, which is
            // inside the checkout the PR driver confines the benchmark to.
            None => std::env::current_exe()?
                .parent()
                .ok_or("executable has no directory")?
                .join(format!("work-{}", std::process::id())),
        };
        std::fs::create_dir_all(&path)?;
        Ok(WorkDir {
            path,
            keep: args.keep,
        })
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        if !self.keep {
            let _ = std::fs::remove_dir_all(&self.path);
        }
    }
}

/// `--workload NAME`: run it here, print its metrics to standard error and
/// the driver's JSON object as the last line of standard output.
fn run_one(args: &Args, name: &str) -> Result<bool> {
    if !catalog::WORKLOADS.iter().any(|w| w.name == name) {
        return Err(format!("unknown workload {name:?}; --list names them").into());
    }
    let (traced, trace_file) = args.trace(false);
    let work = WorkDir::new(args)?;
    let outcome = harness::run(&Options {
        workload: name.to_owned(),
        seed: args.seed.unwrap_or(42),
        budget: args.budget(),
        traced,
        dir: work.path.join(name),
    })?;
    let entry = report::outcome_json(&outcome);
    match &args.out {
        Some(path) => std::fs::write(path, entry.render())?,
        None => eprint!("{}", report::text(name, &entry)),
    }
    if let (Some(path), Some(doc)) = (&trace_file, &outcome.chrome_trace) {
        std::fs::write(path, doc)?;
    }
    println!("{}", report::driver_line(&outcome, traced));
    Ok(outcome.checks.failed == 0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".to_owned(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_owned()
        })
}

fn host(args: &Args) -> Json {
    Json::Obj(
        [
            ("nproc", Json::Int(harness::nproc() as u64)),
            (
                "profile",
                Json::from(if cfg!(debug_assertions) {
                    "debug"
                } else {
                    "release"
                }),
            ),
            ("rustc", Json::from(command_line("rustc", &["--version"]))),
            (
                "commit",
                Json::from(command_line(
                    "git",
                    &["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"],
                )),
            ),
            ("seed", Json::Int(args.seed.unwrap_or(42))),
            ("budget", Json::from(args.budget_text())),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_owned(), v))
        .collect(),
    )
}

/// No `--workload`: re-execute this binary once per workload, so each has a
/// peak memory of its own, then print and write what the children measured.
fn run_all(args: &Args) -> Result<bool> {
    let (traced, trace_file) = args.trace(true);
    let work = WorkDir::new(args)?;
    let exe = std::env::current_exe()?;
    let seed = args.seed.unwrap_or(42).to_string();
    let mut entries = BTreeMap::new();
    let mut traces = Vec::new();
    let mut all_correct = true;
    for w in &catalog::WORKLOADS {
        eprintln!("-- {} ({})", w.name, args.budget_text());
        let result_path = work.path.join(format!("{}.json", w.name));
        let trace_path = work.path.join(format!("{}.trace.json", w.name));
        let mut child = Command::new(&exe);
        child.args(["--workload", w.name, "--seed", &seed, "--keep"]);
        child
            .arg("--work-dir")
            .arg(&work.path)
            .arg("--out")
            .arg(&result_path);
        match args.seconds {
            Some(s) => child.args(["--seconds", &s.to_string()]),
            None => child.args(["--reps", &args.reps.unwrap_or(5).to_string()]),
        };
        match (traced, &trace_file) {
            (false, _) => child.args(["--trace", "0"]),
            (true, None) => child.args(["--trace", "1"]),
            (true, Some(_)) => child.arg("--trace").arg(&trace_path),
        };
        // The child writes its results to `result_path`; its JSON line is not needed.
        let status = child.stdout(Stdio::null()).status()?;
        all_correct &= status.success();
        match std::fs::read_to_string(&result_path) {
            Ok(text) => {
                let entry = Json::parse(&text)?;
                print!("{}", report::text(w.name, &entry));
                entries.insert(w.name.to_owned(), entry);
            }
            Err(_) => println!(
                "== {}: FAILED, the child exited with {status} and left no result",
                w.name
            ),
        }
        if let Ok(doc) = std::fs::read_to_string(&trace_path) {
            traces.push(doc);
        }
    }
    if let Some(path) = &args.out {
        let doc = report::document(host(args), &entries);
        std::fs::write(path, doc)?;
        println!("results -> {}", path.display());
    }
    if let Some(path) = &trace_file {
        std::fs::write(path, trace::merge_chrome_json(&traces))?;
        println!(
            "trace -> {} (open in chrome://tracing or ui.perfetto.dev)",
            path.display()
        );
    }
    Ok(all_correct && entries.len() == catalog::WORKLOADS.len())
}

fn run_compare(a: &Path, b: &Path) -> Result<bool> {
    let load = |p: &Path| -> Result<Json> { Ok(Json::parse(&std::fs::read_to_string(p)?)?) };
    let (table, verdict) = compare::compare(&load(a)?, &load(b)?);
    print!("{table}");
    println!("A = {}, B = {}: {verdict:?}", a.display(), b.display());
    Ok(verdict != compare::Verdict::Regression)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let result = parse_args(&argv).and_then(|args| {
        if args.list {
            print!("{}", catalog::list_text());
            Ok(true)
        } else if let Some((a, b)) = &args.compare {
            run_compare(a, b)
        } else if let Some(name) = &args.workload {
            run_one(&args, name)
        } else {
            run_all(&args)
        }
    });
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("datasynth-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
