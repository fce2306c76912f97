//! The hyperpred benchmark: end-to-end and per-layer measurements.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload paper-figures|soak|serve-mixed --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` a workload runs untraced for about `S` seconds and the
//! last line of standard output is one JSON object carrying the end-to-end
//! metrics. With `--trace 1` the workload's inputs are replayed through
//! each layer's public functions, timed call by call, and the same JSON
//! line carries the per-layer metrics instead. A readable report goes to
//! standard error. `BENCHMARK.json` at the repository root lists every
//! metric and what it should move.

mod heap;
mod paper;
mod replay;
mod serve;
mod soak;
mod stats;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

#[global_allocator]
static ALLOC: heap::Counting = heap::Counting;

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const USAGE: &str = "usage: perfbench --workload paper-figures|soak|serve-mixed \
                     --seed N --seconds S --trace 0|1";

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
    })
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations whose output was checked.
    pub attempted: u64,
    /// Checked operations whose output was wrong.
    pub failed: u64,
    /// `(name, value, unit)` in report order.
    pub metrics: Vec<(String, f64, &'static str)>,
}

impl Outcome {
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Records one checked operation; `ok == false` counts it as failed
    /// and prints `what` so the mismatch is visible.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("perfbench: MISMATCH {}", what());
        }
    }

    fn json(&self) -> String {
        let mut metrics = String::new();
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            if i > 0 {
                metrics.push_str(", ");
            }
            write!(
                metrics,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            )
            .expect("write to String");
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed,
        )
    }
}

/// Median time of `reps` set-ups, and the last set-up's product (the one
/// the measured phase uses).
pub fn timed_setups<T>(
    reps: usize,
    mut setup: impl FnMut() -> Result<T, String>,
) -> Result<(f64, T), String> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps.max(1) {
        let t = Instant::now();
        let made = setup()?;
        times.push(t.elapsed().as_secs_f64());
        last = Some(made);
    }
    Ok((
        stats::median(&times),
        last.expect("at least one set-up ran"),
    ))
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A private scratch directory next to the executable (so inside the
/// build directory, inside the checkout), removed when dropped.
pub struct WorkDir {
    build: PathBuf,
    dir: PathBuf,
}

impl WorkDir {
    fn new(tag: &str) -> Result<WorkDir, String> {
        let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
        let build = exe
            .parent()
            .ok_or("executable has no parent directory")?
            .to_path_buf();
        let dir = build
            .join("perfbench-work")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Ok(WorkDir { build, dir })
    }

    /// A scratch path, removed with the directory.
    pub fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// A path for output kept after the run (the traced run's spans).
    pub fn kept(&self, name: &str) -> PathBuf {
        self.build.join("perfbench-trace").join(name)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn run(args: &Args) -> Result<Outcome, String> {
    let work = WorkDir::new(&args.workload)?;
    let budget = Duration::from_secs(args.seconds);
    let mut out = match (args.workload.as_str(), args.trace) {
        ("paper-figures", false) => paper::run(args.seed, budget)?,
        ("soak", false) => soak::run(args.seed, budget)?,
        ("serve-mixed", false) => serve::run(args.seed, budget, &work)?,
        ("paper-figures", true) => replay::run(&paper::cell_set(args.seed), args, &work)?,
        ("soak", true) => replay::run(&soak::cell_set(args.seed), args, &work)?,
        ("serve-mixed", true) => replay::run(&serve::cell_set(args.seed), args, &work)?,
        (other, _) => return Err(format!("unknown workload `{other}`")),
    };
    if !args.trace {
        eprintln!(
            "{}: peak resident set {:.1} MB",
            args.workload,
            peak_rss_mb().unwrap_or(f64::NAN)
        );
        out.metric("peak_heap_mb", heap::peak_mb(), "MB");
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let started = Instant::now();
    match run(&args) {
        Ok(out) => {
            if let Some((name, v, _)) = out.metrics.iter().find(|(_, v, _)| !v.is_finite()) {
                eprintln!("perfbench: metric {name} is not finite ({v})");
                return ExitCode::FAILURE;
            }
            eprintln!(
                "perfbench: {} seed {} trace {}: {} attempted, {} failed, {:.1?} total",
                args.workload,
                args.seed,
                u8::from(args.trace),
                out.attempted,
                out.failed,
                started.elapsed()
            );
            println!("{}", out.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
