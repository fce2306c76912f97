//! Parallel, fault-isolated experiment engine: runs the paper's full
//! figure matrix as a work queue of independent (workload, model,
//! experiment) cells, containing per-cell failures.
//!
//! The paper's evaluation is embarrassingly parallel — 15 workloads × 3
//! models × 4 machine configurations, each an independent compile +
//! emulate + cycle-simulate job — but a naive loop both serializes the
//! cells and repeats work across figures:
//!
//! * the same (source, model, machine) module is recompiled per figure
//!   (Figures 8 and 11 share an 8-issue/1-branch machine, and every figure
//!   compiles the 1-issue superblock baseline), and
//! * the fixed 1-issue perfect-memory baseline — the denominator of every
//!   speedup bar — is re-simulated per figure.
//!
//! This engine fixes both: a [`CompileCache`] keyed by (workload, model,
//! machine) hands out `Arc<Module>`s compiled exactly once — from a front
//! half computed once per workload and a formed half computed once per
//! (workload, model), so each key runs only the scheduler — a baseline
//! memo simulates each workload's denominator once, and a
//! `std::thread::scope` work queue spreads the remaining cells over
//! `threads` workers. Results are bit-identical to the serial
//! [`run_experiment`](crate::experiments::run_experiment) path because
//! every pass and the simulator are deterministic; the engine only
//! deduplicates and reorders work, it never changes it.
//!
//! # Fault isolation
//!
//! Every cell runs inside `std::panic::catch_unwind` with a panic-hook
//! capture of the message, location, and cell identity, so a
//! `panic!`/`unwrap` deep inside a compiler pass, the emulator, or the
//! cycle simulator costs exactly one cell, never the run. A failed or
//! panicking compile is memoized as failed in the shared cache, so cells
//! depending on the same module skip it cheaply instead of re-panicking.
//! The timing simulator's cycle-budget watchdog
//! ([`SimError::CycleLimit`](hyperpred_sim::SimError)) bounds how long any
//! one cell can hold a worker. Under [`FailurePolicy::KeepGoing`] the
//! engine finishes every healthy cell and returns partial results plus a
//! structured [`FailureReport`]; [`FailurePolicy::FailFast`] (the
//! default-compatible mode) abandons remaining cells after the first
//! failure, as the pre-isolation engine did.
//!
//! # Durability
//!
//! [`run_matrix_configured`] layers crash-safety on top of isolation via
//! a [`MatrixConfig`]:
//!
//! * a [`Store`] makes runs *resumable*: every completed cell is
//!   appended (fingerprint-keyed) to the store directory, and a
//!   later run handed the same store copies recorded stats back
//!   bit-identically instead of re-running the cell — at any thread
//!   count, since cells are independent;
//! * a [`RetryPolicy`] re-runs cells whose failure is plausibly
//!   transient (contained panics, watchdog trips) a bounded number of
//!   times, un-memoizing the compile cache's failure slots in between so
//!   a retry actually recompiles;
//! * a per-cell wall-clock *deadline* complements the cycle budget: the
//!   cycle budget bounds simulated work, the deadline bounds host time
//!   (a cell stuck outside the cycle loop still ends);
//! * a [`TriageConfig`] turns each *permanent* failure into a
//!   self-contained repro bundle (config + source + lowered IR + a
//!   delta-debugged minimal reproducer) replayable with
//!   `hyperpredc repro`.

use crate::experiments::{BenchResult, Experiment};
use crate::journal::{fnv64, model_slug, JournalEntry, RecordOutcome};
use crate::pipeline::{Degradation, Formed, FrontOutput, Model, Pipeline, PipelineError};
use crate::store::Store;
use crate::triage::{self, ReproCell, TriageConfig};
use hyperpred_emu::DecodedModule;
use hyperpred_ir::Module;
use hyperpred_lang::lower::entry_args;
use hyperpred_lang::CompileError;
use hyperpred_sched::MachineConfig;
use hyperpred_sim::{
    simulate_decoded, MemoryModel, SimConfig, SimError, SimStats, DEFAULT_CYCLE_LIMIT,
};
use hyperpred_workloads::Workload;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, Once, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// Locks `m`, tolerating poison: a panic contained in one worker must not
/// cascade into every later lock of the shared accounting structures. The
/// guarded data here (counters, append-only vectors) stays consistent
/// because each push/increment is atomic with respect to the lock.
pub(crate) fn lock_tolerant<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Wall-time and cache accounting for one engine run.
#[derive(Debug, Clone, Default)]
pub struct EngineStats {
    /// Worker threads used.
    pub threads: usize,
    /// End-to-end wall time of the matrix run.
    pub wall: Duration,
    /// Compilations served from the cache instead of rerun.
    pub compile_hits: u64,
    /// Compilations actually performed (exactly once per distinct
    /// (workload, model, machine) triple); each runs only the scheduler
    /// on a memoized formed half.
    pub compile_misses: u64,
    /// Baseline (1-issue superblock, perfect memory) simulations run —
    /// one per workload, however many figures share them.
    pub baseline_sims: u64,
    /// Times a figure reused a memoized baseline instead of re-simulating.
    pub baseline_reuses: u64,
    /// Model-cell simulations run.
    pub model_sims: u64,
    /// Model-independent front halves (frontend through the profiling
    /// run) actually computed — once per workload.
    pub front_computes: u64,
    /// Compiles (compile-cache misses) that found the front half
    /// memoized instead of re-lowering and re-profiling the workload.
    pub front_reuses: u64,
    /// Formed halves (region formation through post-optimization)
    /// actually computed — once per distinct (workload, model).
    pub form_computes: u64,
    /// Compiles that reused a memoized formed half and only scheduled it
    /// for their machine.
    pub form_reuses: u64,
    /// Cells whose stats were copied back from the run journal instead of
    /// re-run.
    pub journal_hits: u64,
    /// Cells appended to the run journal this run.
    pub journal_appends: u64,
    /// Extra cell attempts spent by the retry policy (beyond each cell's
    /// first).
    pub retries: u64,
    /// Per-cell wall times of successful cells, in completion order.
    pub cells: Vec<CellStat>,
}

impl EngineStats {
    /// Cells a serial figure-at-a-time loop would have run (each figure
    /// recompiling and re-simulating its own baseline).
    pub fn serial_equivalent_cells(&self) -> u64 {
        self.baseline_sims + self.baseline_reuses + self.model_sims
    }

    /// One-paragraph human summary for CLI output.
    pub fn summary(&self) -> String {
        let cell_wall: Duration = self.cells.iter().map(|c| c.wall).sum();
        let mut s = format!(
            "engine: {} cells in {:.2?} on {} thread(s) ({:.2?} of cell work; {:.1}x packing)\n\
             compile cache: {} misses, {} hits; baseline memo: {} simulated, {} reused\n\
             profile memo: {} front halves computed, {} reused; \
             form memo: {} formed, {} reused\n\
             serial loop would run {} cells; the engine ran {}",
            self.cells.len(),
            self.wall,
            self.threads,
            cell_wall,
            cell_wall.as_secs_f64() / self.wall.as_secs_f64().max(1e-9),
            self.compile_misses,
            self.compile_hits,
            self.baseline_sims,
            self.baseline_reuses,
            self.front_computes,
            self.front_reuses,
            self.form_computes,
            self.form_reuses,
            self.serial_equivalent_cells(),
            self.baseline_sims + self.model_sims,
        );
        if self.journal_hits > 0 || self.journal_appends > 0 {
            s.push_str(&format!(
                "\njournal: {} cell(s) reused, {} appended",
                self.journal_hits, self.journal_appends
            ));
        }
        if self.retries > 0 {
            s.push_str(&format!(
                "\nretries: {} extra cell attempt(s)",
                self.retries
            ));
        }
        s
    }
}

/// Wall time of one scheduled cell.
#[derive(Debug, Clone)]
pub struct CellStat {
    /// Workload name.
    pub workload: &'static str,
    /// Figure title, or `"baseline"` for the shared denominator cell.
    pub experiment: &'static str,
    /// Model simulated (`None` for the baseline cell).
    pub model: Option<Model>,
    /// Wall time spent on the cell (compile + simulate).
    pub wall: Duration,
}

impl fmt::Display for CellStat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.model {
            Some(m) => write!(
                f,
                "{:>9} {:<12} {:>10.1?}  {}",
                self.workload,
                m.to_string(),
                self.wall,
                self.experiment
            ),
            None => write!(
                f,
                "{:>9} {:<12} {:>10.1?}  shared denominator",
                self.workload, "baseline", self.wall
            ),
        }
    }
}

/// What the engine does after a cell fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailurePolicy {
    /// Abandon remaining cells after the first failure (the historical
    /// behavior; [`MatrixRun::into_output`] surfaces the error).
    #[default]
    FailFast,
    /// Finish every remaining cell; failed cells are reported in the
    /// [`FailureReport`] and healthy cells stay bit-identical to a clean
    /// run.
    KeepGoing,
}

/// The pipeline stage a cell failed in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailureStage {
    /// MiniC frontend, optimizer, region formation, or scheduling.
    Compile,
    /// The profiling emulation run inside compilation.
    Emulate,
    /// The timing simulation (including its cycle-budget watchdog) and
    /// result cross-checks.
    Simulate,
}

impl fmt::Display for FailureStage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            FailureStage::Compile => "compile",
            FailureStage::Emulate => "emulate",
            FailureStage::Simulate => "simulate",
        })
    }
}

/// Why a cell failed.
#[derive(Debug, Clone)]
pub enum FailurePayload {
    /// A typed pipeline error (compile, emulation, or watchdog).
    Error(PipelineError),
    /// A contained panic; the captured message plus source location.
    Panic(String),
}

impl fmt::Display for FailurePayload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FailurePayload::Error(e) => write!(f, "{e}"),
            FailurePayload::Panic(msg) => write!(f, "panic: {msg}"),
        }
    }
}

/// One failed cell: everything needed to reproduce it from the report
/// line alone.
#[derive(Debug, Clone)]
pub struct CellFailure {
    /// Workload name.
    pub workload: &'static str,
    /// Figure title, or `"baseline"` for the shared denominator cell.
    pub experiment: &'static str,
    /// Model of the failed cell (`None` for the baseline cell).
    pub model: Option<Model>,
    /// Stage the failure occurred in.
    pub stage: FailureStage,
    /// The error or captured panic.
    pub payload: FailurePayload,
    /// Wall time spent before the cell failed (across all attempts).
    pub wall: Duration,
    /// Attempts spent before the failure became permanent (1 when no
    /// retry policy is in effect).
    pub attempts: u32,
}

impl fmt::Display for CellFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let model = self
            .model
            .map_or_else(|| "baseline".to_string(), |m| m.to_string());
        let attempts = if self.attempts > 1 {
            format!(", {} attempts", self.attempts)
        } else {
            String::new()
        };
        write!(
            f,
            "{} / {} / {} [{} stage, {:.1?}{}]: {}",
            self.workload, self.experiment, model, self.stage, self.wall, attempts, self.payload
        )
    }
}

/// Structured summary of every failed cell in a run.
#[derive(Debug, Clone, Default)]
pub struct FailureReport {
    /// Failures in completion order.
    pub failures: Vec<CellFailure>,
}

impl FailureReport {
    /// True when every cell completed.
    pub fn is_empty(&self) -> bool {
        self.failures.is_empty()
    }

    /// Number of failed cells.
    pub fn len(&self) -> usize {
        self.failures.len()
    }
}

impl fmt::Display for FailureReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.failures.is_empty() {
            return writeln!(f, "failure report: all cells completed");
        }
        writeln!(f, "failure report: {} cell(s) failed", self.failures.len())?;
        for fail in &self.failures {
            writeln!(f, "  {fail}")?;
        }
        Ok(())
    }
}

/// One (experiment, workload) slot of the assembled matrix.
#[derive(Debug)]
pub enum CellOutcome {
    /// Baseline and all three model cells completed.
    Ok(BenchResult),
    /// At least one underlying cell failed; the first recorded failure
    /// for this slot.
    Failed(CellFailure),
    /// Abandoned without running after an earlier failure under
    /// [`FailurePolicy::FailFast`].
    Skipped,
}

impl CellOutcome {
    /// The completed result, if any.
    pub fn ok(&self) -> Option<&BenchResult> {
        match self {
            CellOutcome::Ok(r) => Some(r),
            _ => None,
        }
    }
}

/// A full engine run: per-slot outcomes, engine counters, and the
/// failure report.
#[derive(Debug)]
pub struct MatrixRun {
    /// Per-experiment outcomes, in the order the experiments were given;
    /// within each, per-workload outcomes in workload order.
    pub outcomes: Vec<Vec<CellOutcome>>,
    /// Engine accounting (cache hits, per-cell wall times).
    pub stats: EngineStats,
    /// Every contained failure.
    pub report: FailureReport,
    /// True when the run stopped before claiming every cell
    /// ([`MatrixConfig::cell_limit`]); resume from the journal to finish.
    pub interrupted: bool,
}

impl MatrixRun {
    /// The all-cells-succeeded view of the run: the figures, or the first
    /// recorded failure's error (what a [`FailurePolicy::FailFast`] caller
    /// wants).
    ///
    /// # Errors
    /// The first failed cell's [`PipelineError`]; a model whose result
    /// diverged from the baseline's comes back as
    /// [`PipelineError::Diverged`].
    ///
    /// # Panics
    /// Panics (like the serial path) if a cell *panicked* — the contained
    /// message is re-raised; that is a compiler bug, not an input error.
    /// Also panics if the run was interrupted before every cell ran
    /// ([`MatrixConfig::cell_limit`]).
    pub fn into_output(self) -> Result<MatrixOutput, PipelineError> {
        if let Some(first) = self.report.failures.into_iter().next() {
            match first.payload {
                FailurePayload::Error(e) => return Err(e),
                FailurePayload::Panic(msg) => panic!(
                    "matrix cell {} / {} panicked: {msg}",
                    first.workload, first.experiment
                ),
            }
        }
        let figures = self
            .outcomes
            .into_iter()
            .map(|row| {
                row.into_iter()
                    .map(|o| match o {
                        CellOutcome::Ok(r) => r,
                        CellOutcome::Failed(_) | CellOutcome::Skipped => {
                            panic!("matrix run interrupted before every cell completed")
                        }
                    })
                    .collect()
            })
            .collect();
        Ok(MatrixOutput {
            figures,
            stats: self.stats,
        })
    }
}

/// How often (and how patiently) a failing cell is re-run before its
/// failure becomes permanent. Only *plausibly transient* failures are
/// retried: contained panics and watchdog trips
/// ([`SimError::CycleLimit`] / [`SimError::Deadline`]). Typed compile
/// and emulation errors are deterministic and fail immediately.
#[derive(Debug, Clone, Copy)]
pub struct RetryPolicy {
    /// Total attempts per cell, including the first (values below 1 are
    /// treated as 1).
    pub max_attempts: u32,
    /// Sleep between attempts of the same cell.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            backoff: Duration::ZERO,
        }
    }
}

/// Full configuration of a durable engine run; the zero-cost default is
/// exactly the plain fault-isolated engine.
#[derive(Debug, Clone, Copy, Default)]
pub struct MatrixConfig<'a> {
    /// Worker threads (0 = one per available core).
    pub threads: usize,
    /// What to do after a cell fails permanently.
    pub policy: FailurePolicy,
    /// Bounded re-running of transient failures.
    pub retry: RetryPolicy,
    /// Per-cell, per-attempt wall-clock budget, enforced cooperatively by
    /// the simulator alongside its cycle budget.
    pub deadline: Option<Duration>,
    /// Durable resume store (`--resume DIR`): completed cells are put,
    /// stored cells are reused instead of re-run.
    pub journal: Option<&'a Store>,
    /// Emit a repro bundle for every permanent failure.
    pub triage: Option<&'a TriageConfig>,
    /// Stop claiming cells past this queue index (test/chaos hook: makes
    /// "killed mid-run" deterministic; the run reports `interrupted`).
    pub cell_limit: Option<usize>,
}

/// Matrix results plus the engine's own performance counters (the
/// all-cells-succeeded view; see [`MatrixRun`] for the fault-tolerant
/// one).
#[derive(Debug)]
pub struct MatrixOutput {
    /// Per-experiment results, in the order the experiments were given;
    /// within each, per-workload results in workload order.
    pub figures: Vec<Vec<BenchResult>>,
    /// Engine accounting (cache hits, per-cell wall times).
    pub stats: EngineStats,
}

// ---------------------------------------------------------------------------
// Panic containment: per-cell catch_unwind with a hook-captured message.
// ---------------------------------------------------------------------------

thread_local! {
    /// Identity of the cell this worker thread is currently running;
    /// included in captured panic messages.
    static CELL_IDENTITY: std::cell::RefCell<Option<String>> =
        const { std::cell::RefCell::new(None) };
    /// Nesting depth of [`catch_cell`] on this thread; the hook only
    /// captures (and silences) panics while it is nonzero.
    static CAPTURE_DEPTH: std::cell::Cell<u32> = const { std::cell::Cell::new(0) };
    /// Message + location captured by the hook for the most recent panic.
    static CAPTURED_PANIC: std::cell::RefCell<Option<String>> =
        const { std::cell::RefCell::new(None) };
}

static INSTALL_HOOK: Once = Once::new();

/// Renders a panic payload (the `&str`/`String` cases panics overwhelmingly
/// carry).
pub(crate) fn payload_message(payload: &(dyn std::any::Any + Send)) -> String {
    payload
        .downcast_ref::<&str>()
        .map(|s| (*s).to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "opaque panic payload".to_string())
}

/// Installs (once, process-wide) a panic hook that, while a worker is
/// inside [`catch_cell`], records the message, source location, and cell
/// identity instead of printing a backtrace; panics on all other threads
/// go to the previous hook untouched.
fn install_capture_hook() {
    INSTALL_HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if CAPTURE_DEPTH.with(std::cell::Cell::get) == 0 {
                prev(info);
                return;
            }
            let mut msg = payload_message(info.payload());
            if let Some(loc) = info.location() {
                msg.push_str(&format!(
                    " (at {}:{}:{})",
                    loc.file(),
                    loc.line(),
                    loc.column()
                ));
            }
            if let Some(cell) = CELL_IDENTITY.with(|c| c.borrow().clone()) {
                msg.push_str(&format!(" [cell {cell}]"));
            }
            CAPTURED_PANIC.with(|p| *p.borrow_mut() = Some(msg));
        }));
    });
}

/// Runs `f`, containing any panic and returning its captured message.
pub(crate) fn catch_cell<T>(f: impl FnOnce() -> T) -> Result<T, String> {
    install_capture_hook();
    CAPTURE_DEPTH.with(|d| d.set(d.get() + 1));
    let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
    CAPTURE_DEPTH.with(|d| d.set(d.get() - 1));
    r.map_err(|payload| {
        CAPTURED_PANIC
            .with(|p| p.borrow_mut().take())
            .unwrap_or_else(|| payload_message(&*payload))
    })
}

// ---------------------------------------------------------------------------
// The cell executor: matrix cells, requests and triage replays.
// ---------------------------------------------------------------------------

/// The stage a typed pipeline error belongs to.
pub(crate) fn stage_of(e: &PipelineError) -> FailureStage {
    match e {
        PipelineError::Compile(_)
        | PipelineError::Lint(_)
        | PipelineError::Sched(_)
        | PipelineError::Budget { .. } => FailureStage::Compile,
        PipelineError::Emu(_) => FailureStage::Emulate,
        PipelineError::Sim(_) | PipelineError::Diverged { .. } | PipelineError::Oracle { .. } => {
            FailureStage::Simulate
        }
    }
}

/// A failed cell phase: the stage it failed in and why.
#[derive(Debug, Clone)]
pub(crate) struct StageFailure {
    pub(crate) stage: FailureStage,
    pub(crate) payload: FailurePayload,
}

impl From<PipelineError> for StageFailure {
    fn from(e: PipelineError) -> StageFailure {
        StageFailure {
            stage: stage_of(&e),
            payload: FailurePayload::Error(e),
        }
    }
}

/// Runs one phase of a cell under [`catch_cell`]; a contained panic
/// becomes a failure of `stage`.
fn phase<T, E: Into<StageFailure>>(
    stage: FailureStage,
    f: impl FnOnce() -> Result<T, E>,
) -> Result<T, StageFailure> {
    match catch_cell(f) {
        Ok(r) => r.map_err(Into::into),
        Err(msg) => Err(StageFailure {
            stage,
            payload: FailurePayload::Panic(msg),
        }),
    }
}

/// A compiled cell: the scheduled module plus, when the compile step
/// shares one, its pre-decoded execution stream. The matrix cache decodes
/// once per (workload, model, machine) key so every simulation of the key
/// reuses the stream; a fresh compile leaves `decoded` empty and
/// [`exec_cell`] decodes for the one simulation it feeds.
#[derive(Clone)]
pub(crate) struct CompiledUnit {
    pub(crate) module: Arc<Module>,
    pub(crate) decoded: Option<Arc<DecodedModule>>,
}

/// What [`exec_cell`] simulates a compiled cell under.
pub(crate) struct CellRun<'a> {
    /// Stamped into captured panic messages while the cell runs.
    pub(crate) identity: String,
    /// Arguments to `main` (after the hidden stack pointer).
    pub(crate) args: &'a [i64],
    /// The simulated machine.
    pub(crate) machine: MachineConfig,
    /// Memory hierarchy.
    pub(crate) memory: MemoryModel,
    /// Cycle watchdog budget.
    pub(crate) max_cycles: u64,
    /// Per-attempt wall-clock budget.
    pub(crate) deadline: Option<Duration>,
    /// Bounded re-running of transient failures.
    pub(crate) retry: RetryPolicy,
    /// Honor the simulate-stage fault-injection marker.
    pub(crate) fault_injection: bool,
}

/// A permanently failed [`exec_cell`].
pub(crate) struct ExecFailure {
    /// The stage and payload of the last attempt.
    pub(crate) failure: StageFailure,
    /// Attempts spent, including the first.
    pub(crate) attempts: u32,
    /// Wall time across all attempts.
    pub(crate) wall: Duration,
    /// The module that failed, when compilation got that far. It travels
    /// only on failure, for triage to dump and minimize.
    pub(crate) module: Option<Arc<Module>>,
}

/// The compile step of a cell built from its source alone (a request or
/// a repro): [`Pipeline::front`] then [`Pipeline::finish`], or the
/// [`Pipeline::finish_degraded`] ladder when `degrade` is set.
pub(crate) fn fresh_compile(
    pipe: &Pipeline,
    source: &str,
    args: &[i64],
    model: Model,
    machine: &MachineConfig,
    degrade: bool,
) -> Result<(CompiledUnit, Degradation), StageFailure> {
    let front = pipe.front(source, args)?;
    let (module, degradation) = if degrade {
        pipe.finish_degraded(&front, model, machine)?
    } else {
        (pipe.finish(&front, model, machine)?, Degradation::default())
    };
    let unit = CompiledUnit {
        module: Arc::new(module),
        decoded: None,
    };
    Ok((unit, degradation))
}

/// Whether a failure is plausibly transient (worth a retry): contained
/// panics and watchdog trips. Typed compile/emulation errors are
/// deterministic — retrying them wastes the budget.
fn retryable(payload: &FailurePayload) -> bool {
    match payload {
        FailurePayload::Panic(_) => true,
        FailurePayload::Error(PipelineError::Sim(
            SimError::CycleLimit { .. } | SimError::Deadline { .. },
        )) => true,
        FailurePayload::Error(_) => false,
    }
}

/// Runs one cell: the `compile` step, then the simulate-stage
/// fault-injection hook, decode (unless the compile step shares a decoded
/// stream) and [`simulate_decoded`] under the cycle budget and a fresh
/// per-attempt deadline. Each phase runs under [`catch_cell`], so a
/// failure names the stage it happened in. Transient failures
/// ([`retryable`]) are re-run up to `run.retry.max_attempts` times, with
/// `on_retry` called before each re-run (the matrix forgets its memoized
/// failure there and counts the retry).
///
/// Matrix cells, [`run_request`] and triage replays all run through here.
/// On success nothing compiled outlives the call beyond what `compile`
/// itself keeps.
///
/// # Errors
/// The permanent failure, with the module that failed when compilation
/// got that far.
pub(crate) fn exec_cell<X>(
    run: &CellRun<'_>,
    mut compile: impl FnMut() -> Result<(CompiledUnit, X), StageFailure>,
    mut on_retry: impl FnMut(),
) -> Result<(SimStats, X), ExecFailure> {
    // The simulate phase: the injection hook, decode when the compile
    // step shared no stream, then the timing run.
    let simulate = |unit: &CompiledUnit| {
        if run.fault_injection {
            crate::faults::maybe_injected_sim_panic(&unit.module);
        }
        let decoded = unit
            .decoded
            .clone()
            .unwrap_or_else(|| Arc::new(DecodedModule::decode(&unit.module)));
        let sim = SimConfig {
            memory: run.memory,
            max_cycles: run.max_cycles,
            deadline: run.deadline.map(|d| Instant::now() + d),
            ..SimConfig::default()
        };
        let args = entry_args(run.args);
        simulate_decoded(&unit.module, &decoded, "main", &args, run.machine, sim).map_err(|e| {
            StageFailure {
                stage: FailureStage::Simulate,
                payload: FailurePayload::Error(e.into()),
            }
        })
    };
    let started = Instant::now();
    let outer = CELL_IDENTITY.replace(Some(run.identity.clone()));
    let mut attempts = 0u32;
    let result = loop {
        attempts += 1;
        let (failure, module) = match phase(FailureStage::Compile, &mut compile) {
            Err(f) => (f, None),
            Ok((unit, extra)) => match phase(FailureStage::Simulate, || simulate(&unit)) {
                Ok(stats) => break Ok((stats, extra)),
                Err(f) => (f, Some(unit.module)),
            },
        };
        if !retryable(&failure.payload) || attempts >= run.retry.max_attempts.max(1) {
            break Err(ExecFailure {
                failure,
                attempts,
                wall: started.elapsed(),
                module,
            });
        }
        on_retry();
        if !run.retry.backoff.is_zero() {
            std::thread::sleep(run.retry.backoff);
        }
    };
    CELL_IDENTITY.set(outer);
    result
}

// ---------------------------------------------------------------------------
// Shared compile cache with failure memoization.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CompileKey {
    workload: usize,
    model: Model,
    issue: u32,
    branches: u32,
}

/// Shared once-per-key slots; an `Err` value marks a memoized failure.
type Slots<K, T> = Mutex<HashMap<K, Arc<OnceLock<Result<T, StageFailure>>>>>;

/// Each distinct (workload, model, machine) module is compiled — and
/// decoded — exactly once; concurrent requesters block on the same
/// [`OnceLock`] rather than duplicating the work. A failed — or
/// panicking — compile is memoized as failed, so dependent cells skip it
/// instead of re-running (or re-panicking) it.
///
/// Compiles are additionally split in three, each half memoized with the
/// same discipline:
///
/// * the [`Pipeline::front`] half (including the profiling emulation run,
///   the most expensive pass for emulation-heavy workloads) depends only
///   on the workload, so it runs once per workload;
/// * the [`Pipeline::form`] half (formation, promotion, conversion,
///   post-optimization) depends only on the workload and the model, so it
///   runs once per (workload, model);
/// * each (workload, model, machine) key then clones its formed module
///   and runs only [`Pipeline::schedule`].
///
/// Across the four figures that is 3 forms and 10 schedules per workload
/// instead of 10 full back halves.
struct CompileCache {
    /// Scheduled (and decoded) modules, per (workload, model, machine).
    slots: Slots<CompileKey, CompiledUnit>,
    /// Front halves (frontend → pre-formation optimization → profiling
    /// run), per workload.
    fronts: Slots<usize, Arc<FrontOutput>>,
    /// Formed halves (region formation → post-optimization), per
    /// (workload, model).
    forms: Slots<(usize, Model), Arc<Formed>>,
    hits: AtomicU64,
    misses: AtomicU64,
    front_computes: AtomicU64,
    front_reuses: AtomicU64,
    form_computes: AtomicU64,
    form_reuses: AtomicU64,
}

/// The value memoized under `key`: `init` runs into the key's shared
/// slot unless another requester already did, and `computes` or
/// `reuses` counts which of the two happened.
fn memoized<K: Eq + std::hash::Hash, T: Clone>(
    slots: &Slots<K, T>,
    key: K,
    computes: &AtomicU64,
    reuses: &AtomicU64,
    init: impl FnOnce() -> Result<T, StageFailure>,
) -> Result<T, StageFailure> {
    let slot = Arc::clone(lock_tolerant(slots).entry(key).or_default());
    let mut fresh = false;
    let value = slot.get_or_init(|| {
        fresh = true;
        init()
    });
    if fresh { computes } else { reuses }.fetch_add(1, Ordering::Relaxed);
    value.clone()
}

/// Removes `key`'s slot if it holds a memoized failure.
fn forget_if_failed<K: Eq + std::hash::Hash, T>(slots: &Slots<K, T>, key: &K) {
    let mut slots = lock_tolerant(slots);
    if slots
        .get(key)
        .and_then(|s| s.get())
        .is_some_and(Result::is_err)
    {
        slots.remove(key);
    }
}

impl CompileCache {
    fn new() -> CompileCache {
        CompileCache {
            slots: Mutex::new(HashMap::new()),
            fronts: Mutex::new(HashMap::new()),
            forms: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            front_computes: AtomicU64::new(0),
            front_reuses: AtomicU64::new(0),
            form_computes: AtomicU64::new(0),
            form_reuses: AtomicU64::new(0),
        }
    }

    /// The front half for workload index `w`, computed once per workload.
    fn get_or_front(
        &self,
        workload: usize,
        w: &Workload,
        pipe: &Pipeline,
    ) -> Result<Arc<FrontOutput>, StageFailure> {
        memoized(
            &self.fronts,
            workload,
            &self.front_computes,
            &self.front_reuses,
            || phase(FailureStage::Compile, || pipe.front(&w.source, &w.args)).map(Arc::new),
        )
    }

    /// The formed half for `key`'s (workload, model), computed once per
    /// pair from the workload's front half.
    fn get_or_form(
        &self,
        key: CompileKey,
        front: &FrontOutput,
        pipe: &Pipeline,
    ) -> Result<Arc<Formed>, StageFailure> {
        memoized(
            &self.forms,
            (key.workload, key.model),
            &self.form_computes,
            &self.form_reuses,
            || phase(FailureStage::Compile, || pipe.form(front, key.model)).map(Arc::new),
        )
    }

    fn get_or_compile(
        &self,
        key: CompileKey,
        w: &Workload,
        pipe: &Pipeline,
    ) -> Result<CompiledUnit, StageFailure> {
        memoized(&self.slots, key, &self.misses, &self.hits, || {
            // The shared halves: the front once per workload, the formed
            // module once per (workload, model); each key runs only the
            // scheduler. A failed half (frontend error, profiling fault,
            // checkpoint failure, injected panic) is memoized once and
            // replayed to every dependent key.
            let front = self.get_or_front(key.workload, w, pipe)?;
            let formed = self.get_or_form(key, &front, pipe)?;
            // Panics inside the pipeline are contained *here* so the slot
            // is still initialized (as failed) for everyone waiting on it.
            let machine = MachineConfig::new(key.issue, key.branches);
            let module = phase(FailureStage::Compile, || {
                pipe.schedule(Formed::clone(&formed), &machine)
            })?;
            let module = Arc::new(module);
            let decoded = Some(Arc::new(DecodedModule::decode(&module)));
            Ok(CompiledUnit { module, decoded })
        })
    }

    /// Drops memoized *failures* for `key`, its (workload, model) formed
    /// half and its workload's front half, so a retry actually recompiles
    /// instead of replaying the memo. Successful slots are kept:
    /// concurrent holders of the old `Arc`s stay valid, and nothing
    /// succeeded that a retry should redo.
    fn forget_failed(&self, key: CompileKey) {
        forget_if_failed(&self.slots, &key);
        forget_if_failed(&self.forms, &(key.workload, key.model));
        forget_if_failed(&self.fronts, &key.workload);
    }

    /// The successfully compiled module for `key`, if the cache holds one.
    fn module_of(&self, key: CompileKey) -> Option<Arc<Module>> {
        let slot = Arc::clone(lock_tolerant(&self.slots).get(&key)?);
        let module = slot.get()?.as_ref().ok().map(|u| Arc::clone(&u.module));
        module
    }
}

/// Shared failure log; under [`FailurePolicy::FailFast`] the first record
/// also aborts the queue.
struct FailureLog {
    failures: Mutex<Vec<CellFailure>>,
    abort: AtomicBool,
    policy: FailurePolicy,
}

impl FailureLog {
    fn new(policy: FailurePolicy) -> FailureLog {
        FailureLog {
            failures: Mutex::new(Vec::new()),
            abort: AtomicBool::new(false),
            policy,
        }
    }

    fn record(&self, f: CellFailure) {
        lock_tolerant(&self.failures).push(f);
        if self.policy == FailurePolicy::FailFast {
            self.abort.store(true, Ordering::Release);
        }
    }

    fn aborted(&self) -> bool {
        self.abort.load(Ordering::Acquire)
    }

    fn into_failures(self) -> Vec<CellFailure> {
        self.failures
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner)
    }
}

/// One schedulable unit of work.
#[derive(Debug, Clone, Copy)]
enum Cell {
    /// Simulate workload `w`'s shared 1-issue superblock denominator.
    Baseline { w: usize },
    /// Simulate workload `w` under experiment `e`'s machine with model `m`.
    Model { e: usize, w: usize, m: usize },
}

impl Cell {
    fn workload(self) -> usize {
        match self {
            Cell::Baseline { w } | Cell::Model { w, .. } => w,
        }
    }
}

/// The machine/simulation parameters a cell runs under — the part of its
/// identity shared by fingerprinting, execution and triage.
struct CellParams {
    experiment: &'static str,
    model: Option<Model>,
    issue: u32,
    branches: u32,
    memory: MemoryModel,
    max_cycles: u64,
}

fn params_of(cell: Cell, exps: &[Experiment]) -> CellParams {
    match cell {
        // The shared denominator: 1-issue, perfect memory, whatever cycle
        // budget the figures agree on (they all use the same default).
        Cell::Baseline { .. } => CellParams {
            experiment: "baseline",
            model: None,
            issue: 1,
            branches: 1,
            memory: MemoryModel::Perfect,
            max_cycles: exps.first().map_or(DEFAULT_CYCLE_LIMIT, |e| e.max_cycles),
        },
        Cell::Model { e, m, .. } => CellParams {
            experiment: exps[e].title,
            model: Some(Model::ALL[m]),
            issue: exps[e].issue,
            branches: exps[e].branches,
            memory: exps[e].memory,
            max_cycles: exps[e].max_cycles,
        },
    }
}

fn key_of(cell: Cell, exps: &[Experiment]) -> CompileKey {
    let p = params_of(cell, exps);
    CompileKey {
        workload: cell.workload(),
        model: p.model.unwrap_or(Model::Superblock),
        issue: p.issue,
        branches: p.branches,
    }
}

/// The content address of one cell: an FNV-1a hash over a canonical
/// string of everything that determines its stats (crate version, the
/// full pipeline config, the program's name, source hash and args, the
/// experiment slot, model, and the machine/simulation parameters). Matrix
/// cells and requests share it, so the format is the key of every journal
/// and store ever written; see the [`crate::journal`] docs for why it is
/// deliberately conservative.
fn content_fingerprint(
    pipe: &Pipeline,
    name: &str,
    source: &str,
    args: &[i64],
    p: &CellParams,
) -> String {
    let canonical = format!(
        "v{}|pipe{:016x}|{}|src{:016x}|args{:?}|{}|{}|issue{}|br{}|{:?}|cycles{}",
        env!("CARGO_PKG_VERSION"),
        fnv64(format!("{pipe:?}").as_bytes()),
        name,
        fnv64(source.as_bytes()),
        args,
        p.experiment,
        model_slug(p.model),
        p.issue,
        p.branches,
        p.memory,
        p.max_cycles,
    );
    format!("{:016x}", fnv64(canonical.as_bytes()))
}

/// The journal key of a matrix cell.
fn fingerprint(cell: Cell, exps: &[Experiment], workloads: &[Workload], pipe: &Pipeline) -> String {
    let wl = &workloads[cell.workload()];
    content_fingerprint(pipe, wl.name, &wl.source, &wl.args, &params_of(cell, exps))
}

/// Fills a result slot. An identical duplicate fill (a lost race between
/// a journal prefill and a concurrent compute of the same cell) is
/// benign; a *mismatched* refill is surfaced as a typed failure — in a
/// long-running service a damaged request stream must become an error
/// report, never the historical worker-aborting `expect`.
fn fill_slot(
    slot: &OnceLock<SimStats>,
    stats: SimStats,
    workload: &str,
    model: Option<Model>,
) -> Result<(), StageFailure> {
    if let Err(rejected) = slot.set(stats) {
        match slot.get() {
            Some(held) if *held == rejected => {}
            held => {
                let detail = format!(
                    "result slot already held {held:?}; refused distinct refill {rejected:?}"
                );
                return Err(StageFailure {
                    stage: FailureStage::Simulate,
                    payload: FailurePayload::Error(PipelineError::Oracle {
                        workload: workload.to_string(),
                        model: model.unwrap_or(Model::Superblock),
                        check: "cell-slot-consistency",
                        detail,
                    }),
                });
            }
        }
    }
    Ok(())
}

/// The engine: runs every (experiment × workload × model) cell of the
/// matrix over `cfg.threads` scoped workers (0 = one per available core),
/// compiling each distinct module once and simulating each workload's
/// baseline denominator once. Every cell runs through [`exec_cell`] —
/// panic containment, the watchdog budget of [`Experiment::max_cycles`],
/// the per-attempt deadline and the retry policy — so one sick cell
/// cannot take down the run. On top, [`MatrixConfig`] layers the journal
/// (resume), triage bundles and the cell limit; with a default config it
/// is the plain fault-isolated engine under [`FailurePolicy::FailFast`].
///
/// Successful cells are bit-identical to calling
/// [`run_experiment`](crate::experiments::run_experiment) per experiment,
/// whatever other cells do.
///
/// A model whose simulated result diverges from the baseline's is a
/// compiler bug, not an input error; it is reported as a typed
/// [`PipelineError::Diverged`] cell failure under either policy (never a
/// panic), so a KeepGoing chaos run keeps every healthy cell. Callers
/// that want FailFast's first error use [`MatrixRun::into_output`].
pub fn run_matrix_configured(
    exps: &[Experiment],
    workloads: &[Workload],
    pipe: &Pipeline,
    cfg: &MatrixConfig<'_>,
) -> MatrixRun {
    let started = Instant::now();
    let threads = if cfg.threads == 0 {
        std::thread::available_parallelism().map_or(1, |n| n.get())
    } else {
        cfg.threads
    };

    // Baselines first so the slowest sims start early; then experiment-
    // major model cells, which keeps the duplicate compile keys of
    // machine-sharing figures (8 and 11) far apart in the queue.
    let mut cells: Vec<Cell> = Vec::with_capacity(workloads.len() * (1 + 3 * exps.len()));
    if !exps.is_empty() {
        for w in 0..workloads.len() {
            cells.push(Cell::Baseline { w });
        }
    }
    for e in 0..exps.len() {
        for w in 0..workloads.len() {
            for m in 0..Model::ALL.len() {
                cells.push(Cell::Model { e, w, m });
            }
        }
    }

    // Fingerprints are only needed when a journal is wired in; they are
    // precomputed here (aligned with `cells`) so workers never hash.
    let fps: Option<Vec<String>> = cfg.journal.map(|_| {
        cells
            .iter()
            .map(|&c| fingerprint(c, exps, workloads, pipe))
            .collect()
    });

    let cache = CompileCache::new();
    let log = FailureLog::new(cfg.policy);
    let next = AtomicUsize::new(0);
    let interrupted = AtomicBool::new(false);
    let journal_hits = AtomicU64::new(0);
    let journal_appends = AtomicU64::new(0);
    let prefilled_baseline = AtomicU64::new(0);
    let prefilled_model = AtomicU64::new(0);
    let retries = AtomicU64::new(0);
    let baseline: Vec<OnceLock<SimStats>> = (0..workloads.len()).map(|_| OnceLock::new()).collect();
    let model_stats: Vec<OnceLock<SimStats>> = (0..exps.len() * workloads.len() * 3)
        .map(|_| OnceLock::new())
        .collect();
    let cell_stats: Mutex<Vec<CellStat>> = Mutex::new(Vec::with_capacity(cells.len()));

    let slot_of = |cell: Cell| match cell {
        Cell::Baseline { w } => &baseline[w],
        Cell::Model { e, w, m } => &model_stats[(e * workloads.len() + w) * 3 + m],
    };

    // Writes a repro bundle for a permanently failed cell.
    let emit_triage =
        |cell: Cell, failure: &StageFailure, attempts: u32, module: Option<&Module>| {
            let Some(tcfg) = cfg.triage else { return };
            let wl = &workloads[cell.workload()];
            let p = params_of(cell, exps);
            let repro = ReproCell {
                workload: wl.name.to_string(),
                args: wl.args.clone(),
                experiment: p.experiment.to_string(),
                model: p.model,
                issue: p.issue,
                branches: p.branches,
                memory: p.memory,
                max_cycles: p.max_cycles,
                fault_injection: pipe.fault_injection,
                sabotage: pipe.sabotage,
                stage: failure.stage,
                signature: triage::signature(&failure.payload),
                fingerprint: fingerprint(cell, exps, workloads, pipe),
                attempts,
            };
            triage::emit_bundle(tcfg, &repro, &wl.source, &failure.payload, module);
        };

    // Runs one claimed cell to a filled slot or a recorded failure.
    let run_cell = |i: usize, cell: Cell| {
        let wl = &workloads[cell.workload()];
        let p = params_of(cell, exps);
        let slot = slot_of(cell);
        let record_failure = |failure: StageFailure, wall: Duration, attempts: u32| {
            log.record(CellFailure {
                workload: wl.name,
                experiment: p.experiment,
                model: p.model,
                stage: failure.stage,
                payload: failure.payload,
                wall,
                attempts,
            });
        };
        let journal = cfg.journal.zip(fps.as_deref().map(|fps| fps[i].as_str()));

        // Resume: a journaled cell's stats are copied back bit-identically;
        // nothing about it re-runs. A prefill clashing with a distinct held
        // result means the journal (or the cell schedule) is damaged:
        // report it as a failed cell, don't abort the worker.
        if let Some(stats) = journal.and_then(|(j, fp)| j.get(fp)) {
            match fill_slot(slot, stats, wl.name, p.model) {
                Ok(()) => {
                    journal_hits.fetch_add(1, Ordering::Relaxed);
                    match cell {
                        Cell::Baseline { .. } => &prefilled_baseline,
                        Cell::Model { .. } => &prefilled_model,
                    }
                    .fetch_add(1, Ordering::Relaxed);
                }
                Err(f) => record_failure(f, Duration::ZERO, 1),
            }
            return;
        }

        let key = key_of(cell, exps);
        let run = CellRun {
            identity: match p.model {
                Some(m) => format!("{} / {} / {m}", wl.name, p.experiment),
                None => format!("{} / baseline", wl.name),
            },
            args: &wl.args,
            machine: MachineConfig::new(p.issue, p.branches),
            memory: p.memory,
            max_cycles: p.max_cycles,
            deadline: cfg.deadline,
            retry: cfg.retry,
            fault_injection: pipe.fault_injection,
        };
        let t = Instant::now();
        let ran = exec_cell(
            &run,
            || Ok((cache.get_or_compile(key, wl, pipe)?, ())),
            || {
                // A memoized failure must be forgotten, or the retry
                // would just replay the memo.
                cache.forget_failed(key);
                retries.fetch_add(1, Ordering::Relaxed);
            },
        );
        let wall = t.elapsed();
        let failed = match ran {
            Ok((stats, ())) => fill_slot(slot, stats, wl.name, p.model)
                .err()
                .map(|failure| ExecFailure {
                    failure,
                    attempts: 1,
                    wall,
                    module: None,
                }),
            Err(f) => Some(f),
        };
        if let Some(f) = failed {
            emit_triage(cell, &f.failure, f.attempts, f.module.as_deref());
            record_failure(f.failure, wall, f.attempts);
            return;
        }
        lock_tolerant(&cell_stats).push(CellStat {
            workload: wl.name,
            experiment: p.experiment,
            model: p.model,
            wall,
        });
        let Some(((journal, fp), stats)) = journal.zip(slot.get()) else {
            return;
        };
        let appended = journal.put(&JournalEntry {
            fingerprint: fp,
            workload: wl.name,
            experiment: p.experiment,
            model: p.model,
            stats,
        });
        match appended {
            Ok(RecordOutcome::Appended) => {
                journal_appends.fetch_add(1, Ordering::Relaxed);
            }
            // Identical re-record (e.g. two resumed runs sharing a
            // journal): nothing to count.
            Ok(RecordOutcome::Duplicate) => {}
            // The key now serves nobody; the conflict is counted on the
            // journal and reported by drivers.
            Ok(RecordOutcome::Conflict) => eprintln!(
                "journal: fingerprint conflict on {fp} ({} / {}); key quarantined",
                wl.name, p.experiment
            ),
            // Durability degrades, the run continues (e.g. disk full).
            Err(e) => eprintln!("journal: append failed: {e}"),
        }
    };

    std::thread::scope(|scope| {
        for _ in 0..threads.min(cells.len()).max(1) {
            scope.spawn(|| loop {
                if log.aborted() {
                    return;
                }
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(cell) = cells.get(i).copied() else {
                    return;
                };
                if cfg.cell_limit.is_some_and(|limit| i >= limit) {
                    interrupted.store(true, Ordering::Release);
                    return;
                }
                run_cell(i, cell);
            });
        }
    });

    let mut failures = log.into_failures();

    // Assemble per-figure outcomes. Slots whose four cells all completed
    // become `Ok`; slots touched by a failure reference it; slots
    // abandoned by FailFast become `Skipped`.
    let mut outcomes = Vec::with_capacity(exps.len());
    for (e, exp) in exps.iter().enumerate() {
        let mut row: Vec<CellOutcome> = Vec::with_capacity(workloads.len());
        for (w, wl) in workloads.iter().enumerate() {
            let base = baseline[w].get();
            let slots: [Option<&SimStats>; 3] =
                std::array::from_fn(|m| slot_of(Cell::Model { e, w, m }).get());
            let outcome = match (base, slots[0], slots[1], slots[2]) {
                (Some(base), Some(m0), Some(m1), Some(m2)) => {
                    let models: [SimStats; 3] = [m0.clone(), m1.clone(), m2.clone()];
                    match models.iter().position(|s| s.ret != base.ret) {
                        None => CellOutcome::Ok(BenchResult {
                            name: wl.name,
                            base: base.clone(),
                            models,
                        }),
                        Some(m) => {
                            // A typed failure under either policy:
                            // FailFast surfaces it as `Err(Diverged)`
                            // through `into_output`, KeepGoing contains
                            // it to this cell.
                            let model = Model::ALL[m];
                            let failure = StageFailure {
                                stage: FailureStage::Simulate,
                                payload: FailurePayload::Error(PipelineError::Diverged {
                                    workload: wl.name.to_string(),
                                    model,
                                    got: models[m].ret,
                                    want: base.ret,
                                }),
                            };
                            // Divergence is only detectable here, after
                            // both sides ran; its bundle gets the module
                            // straight from the compile cache.
                            let cell = Cell::Model { e, w, m };
                            let module = cache.module_of(key_of(cell, exps));
                            emit_triage(cell, &failure, 1, module.as_deref());
                            let failure = CellFailure {
                                workload: wl.name,
                                experiment: exp.title,
                                model: Some(model),
                                stage: failure.stage,
                                payload: failure.payload,
                                wall: Duration::ZERO,
                                attempts: 1,
                            };
                            failures.push(failure.clone());
                            CellOutcome::Failed(failure)
                        }
                    }
                }
                _ => {
                    // Reference the first failure belonging to this slot
                    // (its own cells or the shared baseline).
                    let owned = failures.iter().find(|f| {
                        f.workload == wl.name
                            && (f.experiment == exp.title || f.experiment == "baseline")
                    });
                    match owned {
                        Some(f) => CellOutcome::Failed(f.clone()),
                        None => CellOutcome::Skipped,
                    }
                }
            };
            row.push(outcome);
        }
        outcomes.push(row);
    }

    // Journal-prefilled slots hold results too, but nothing was simulated
    // for them — they count as journal hits, not sims.
    let baseline_sims = baseline.iter().filter(|b| b.get().is_some()).count() as u64
        - prefilled_baseline.load(Ordering::Relaxed);
    let model_sims = model_stats.iter().filter(|m| m.get().is_some()).count() as u64
        - prefilled_model.load(Ordering::Relaxed);
    let stats = EngineStats {
        threads,
        wall: started.elapsed(),
        compile_hits: cache.hits.load(Ordering::Relaxed),
        compile_misses: cache.misses.load(Ordering::Relaxed),
        baseline_sims,
        baseline_reuses: (exps.len().saturating_sub(1) as u64) * baseline_sims,
        model_sims,
        front_computes: cache.front_computes.load(Ordering::Relaxed),
        front_reuses: cache.front_reuses.load(Ordering::Relaxed),
        form_computes: cache.form_computes.load(Ordering::Relaxed),
        form_reuses: cache.form_reuses.load(Ordering::Relaxed),
        journal_hits: journal_hits.load(Ordering::Relaxed),
        journal_appends: journal_appends.load(Ordering::Relaxed),
        retries: retries.load(Ordering::Relaxed),
        cells: cell_stats
            .into_inner()
            .unwrap_or_else(PoisonError::into_inner),
    };
    MatrixRun {
        outcomes,
        stats,
        report: FailureReport { failures },
        interrupted: interrupted.load(Ordering::Acquire),
    }
}

// ---------------------------------------------------------------------------
// Single-cell request path: the daemon's unit of work.
// ---------------------------------------------------------------------------

/// One self-contained compile-and-simulate request: everything a client
/// has to say to get a [`SimStats`] back. This is the daemon's unit of
/// work — unlike the matrix engine's [`Cell`], it carries its own source
/// text and machine parameters instead of indexing into a preloaded
/// workload/experiment table.
#[derive(Debug, Clone, PartialEq)]
pub struct CellRequest {
    /// Client-chosen name (reporting only; the fingerprint is the key).
    pub name: String,
    /// MiniC source text.
    pub source: String,
    /// Arguments to `main` (after the hidden stack pointer).
    pub args: Vec<i64>,
    /// Model to compile and simulate under.
    pub model: Model,
    /// Issue width of the simulated machine (1..=[`MAX_REQUEST_ISSUE`]).
    pub issue: u32,
    /// Branch slots per cycle (1..=issue).
    pub branches: u32,
    /// Memory hierarchy.
    pub memory: MemoryModel,
    /// Cycle watchdog budget (≥ 1).
    pub max_cycles: u64,
}

/// Upper bound a request may ask for as issue width / branch slots. The
/// paper's widest machine is 8-issue; 64 leaves generous sweep headroom
/// while keeping a hostile request from allocating absurd schedules.
pub const MAX_REQUEST_ISSUE: u32 = 64;

impl CellRequest {
    /// Validates the machine/simulation parameters *before* they reach
    /// code that asserts on them ([`MachineConfig::new`] panics on a zero
    /// width). A malformed request must become a typed error the service
    /// can report, never a worker abort.
    ///
    /// # Errors
    /// A [`PipelineError::Compile`] describing the first bad field.
    pub fn validate(&self) -> Result<(), PipelineError> {
        let bad = |msg: String| Err(PipelineError::Compile(CompileError::new(0, 0, msg)));
        if self.source.trim().is_empty() {
            return bad("request: empty source".to_string());
        }
        if self.issue == 0 || self.issue > MAX_REQUEST_ISSUE {
            return bad(format!(
                "request: issue width {} outside 1..={MAX_REQUEST_ISSUE}",
                self.issue
            ));
        }
        if self.branches == 0 || self.branches > self.issue {
            return bad(format!(
                "request: branch slots {} outside 1..=issue ({})",
                self.branches, self.issue
            ));
        }
        if self.max_cycles == 0 {
            return bad("request: max_cycles must be >= 1".to_string());
        }
        Ok(())
    }
}

/// How patient the request path is: bounded retries of transient
/// failures, a per-attempt wall-clock deadline, and whether the
/// budget-degradation ladder may trade optimization for completion.
#[derive(Debug, Clone, Copy)]
pub struct RequestConfig {
    /// Bounded re-running of transient failures (same semantics as the
    /// matrix engine's [`MatrixConfig::retry`]).
    pub retry: RetryPolicy,
    /// Per-attempt wall-clock budget, enforced cooperatively by the
    /// simulator alongside its cycle budget.
    pub deadline: Option<Duration>,
    /// When true, a tripped compile budget degrades the cell through
    /// [`Pipeline::finish_degraded`] instead of failing it.
    pub degrade: bool,
}

impl Default for RequestConfig {
    fn default() -> RequestConfig {
        RequestConfig {
            retry: RetryPolicy::default(),
            deadline: None,
            degrade: true,
        }
    }
}

/// A permanently failed request: the owned counterpart of
/// [`CellFailure`] (whose `&'static str` fields fit the preloaded matrix
/// tables, not client-supplied names).
#[derive(Debug, Clone)]
pub struct RequestFailure {
    /// Stage the failure occurred in.
    pub stage: FailureStage,
    /// The error or captured panic.
    pub payload: FailurePayload,
    /// Attempts spent before the failure became permanent.
    pub attempts: u32,
    /// Wall time spent across all attempts.
    pub wall: Duration,
}

impl fmt::Display for RequestFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let attempts = if self.attempts > 1 {
            format!(", {} attempts", self.attempts)
        } else {
            String::new()
        };
        write!(
            f,
            "[{} stage, {:.1?}{}]: {}",
            self.stage, self.wall, attempts, self.payload
        )
    }
}

/// The content address of a request: the matrix cells' canonical
/// fingerprint (see the [`crate::journal`] docs), with the experiment
/// slot naming the service namespace *and* the degradation policy — a
/// degraded and a strict compile of the same source may legitimately
/// produce different stats, so they must never share a key.
pub fn request_fingerprint(req: &CellRequest, pipe: &Pipeline, degrade: bool) -> String {
    let params = CellParams {
        experiment: if degrade {
            "service-degrade"
        } else {
            "service-strict"
        },
        model: Some(req.model),
        issue: req.issue,
        branches: req.branches,
        memory: req.memory,
        max_cycles: req.max_cycles,
    };
    content_fingerprint(pipe, &req.name, &req.source, &req.args, &params)
}

/// Runs one [`CellRequest`] end to end through [`exec_cell`]: parameter
/// validation, then a fresh compile (optionally down the
/// budget-degradation ladder) and simulation with per-phase panic
/// capture, bounded retries of transient failures and the cooperative
/// wall-clock deadline. A pathological input degrades or fails *this
/// request* — never the calling worker.
///
/// # Errors
/// A [`RequestFailure`] carrying the typed payload, attempt count, and
/// wall time of the permanent failure.
pub fn run_request(
    req: &CellRequest,
    pipe: &Pipeline,
    cfg: &RequestConfig,
) -> Result<(SimStats, Degradation), RequestFailure> {
    if let Err(e) = req.validate() {
        return Err(RequestFailure {
            stage: FailureStage::Compile,
            payload: FailurePayload::Error(e),
            attempts: 1,
            wall: Duration::ZERO,
        });
    }
    let run = CellRun {
        identity: format!("{} / service / {}", req.name, req.model),
        args: &req.args,
        machine: MachineConfig::new(req.issue, req.branches),
        memory: req.memory,
        max_cycles: req.max_cycles,
        deadline: cfg.deadline,
        retry: cfg.retry,
        fault_injection: pipe.fault_injection,
    };
    let compile = || {
        fresh_compile(
            pipe,
            &req.source,
            &req.args,
            req.model,
            &run.machine,
            cfg.degrade,
        )
    };
    exec_cell(&run, compile, || {}).map_err(|f| RequestFailure {
        stage: f.failure.stage,
        payload: f.failure.payload,
        attempts: f.attempts,
        wall: f.wall,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plain(threads: usize, policy: FailurePolicy) -> MatrixConfig<'static> {
        MatrixConfig {
            threads,
            policy,
            ..MatrixConfig::default()
        }
    }

    #[test]
    fn empty_matrix_is_empty() {
        let out = run_matrix_configured(
            &[],
            &[],
            &Pipeline::default(),
            &plain(2, FailurePolicy::FailFast),
        )
        .into_output()
        .expect("empty matrix runs");
        assert!(out.figures.is_empty());
        assert_eq!(out.stats.compile_hits + out.stats.compile_misses, 0);
    }

    #[test]
    fn compile_errors_propagate_not_panic() {
        let bad = Workload {
            name: "bad",
            description: "unparseable",
            source: "int main( {".to_string(),
            args: Vec::new(),
        };
        let err = run_matrix_configured(
            &[Experiment::fig8()],
            &[bad],
            &Pipeline::default(),
            &plain(2, FailurePolicy::FailFast),
        )
        .into_output();
        assert!(err.is_err(), "syntax error must surface as PipelineError");
    }

    #[test]
    fn keep_going_reports_instead_of_erroring() {
        let bad = Workload {
            name: "bad",
            description: "unparseable",
            source: "int main( {".to_string(),
            args: Vec::new(),
        };
        let good = Workload {
            name: "good",
            description: "healthy neighbor",
            source: "int main() { int i; int s; s = 0;
                     for (i = 0; i < 50; i += 1) { s += i; } return s; }"
                .to_string(),
            args: Vec::new(),
        };
        let run = run_matrix_configured(
            &[Experiment::fig8()],
            &[bad, good],
            &Pipeline::default(),
            &plain(2, FailurePolicy::KeepGoing),
        );
        assert!(!run.report.is_empty());
        assert!(run
            .report
            .failures
            .iter()
            .all(|f| f.workload == "bad" && f.stage == FailureStage::Compile));
        assert!(run.outcomes[0][0].ok().is_none(), "bad slot failed");
        assert!(run.outcomes[0][1].ok().is_some(), "good slot completed");
    }

    #[test]
    fn cell_limit_marks_run_interrupted() {
        let good = Workload {
            name: "good",
            description: "healthy",
            source: "int main() { int i; int s; s = 0;
                     for (i = 0; i < 50; i += 1) { s += i; } return s; }"
                .to_string(),
            args: Vec::new(),
        };
        let run = run_matrix_configured(
            &[Experiment::fig8()],
            &[good],
            &Pipeline::default(),
            &MatrixConfig {
                threads: 1,
                policy: FailurePolicy::KeepGoing,
                cell_limit: Some(2),
                ..MatrixConfig::default()
            },
        );
        assert!(
            run.interrupted,
            "hitting the cell limit reports interruption"
        );
        assert!(
            run.stats.cells.len() <= 2,
            "no cell past the limit may have run"
        );
    }

    /// A retry must recompile a failed form, not replay its memo; a
    /// successful form survives the same retry.
    #[test]
    fn forget_failed_drops_only_failed_form_slots() {
        let pipe = Pipeline::default();
        let front = pipe
            .front("int main() { return 3; }", &[])
            .expect("front half");
        let formed = Arc::new(pipe.form(&front, Model::Superblock).expect("formed half"));
        let cache = CompileCache::new();
        let key = |model| CompileKey {
            workload: 0,
            model,
            issue: 8,
            branches: 1,
        };
        let failed = StageFailure {
            stage: FailureStage::Compile,
            payload: FailurePayload::Panic("transient".to_string()),
        };
        for (model, memo) in [
            (Model::Superblock, Ok(formed)),
            (Model::FullPred, Err(failed)),
        ] {
            lock_tolerant(&cache.forms).insert((0, model), Arc::new(OnceLock::from(memo)));
        }
        cache.forget_failed(key(Model::FullPred));
        cache.forget_failed(key(Model::Superblock));
        let forms = lock_tolerant(&cache.forms);
        assert!(
            !forms.contains_key(&(0, Model::FullPred)),
            "failed form forgotten"
        );
        assert!(
            forms
                .get(&(0, Model::Superblock))
                .and_then(|s| s.get())
                .is_some_and(Result::is_ok),
            "successful form kept"
        );
    }

    /// Pins the canonical fingerprint of one matrix cell, its baseline
    /// and one request (strict and degraded) to the values stores and
    /// journals already hold. Only a change that means to invalidate
    /// every store and journal may update these hex strings.
    #[test]
    fn fingerprints_are_pinned() {
        let pipe = Pipeline::default();
        let exps = [Experiment::fig8()];
        let wls = [Workload {
            name: "pin",
            description: "pin",
            source: "int main(int a) { return a + 7; }".to_string(),
            args: vec![1, -2],
        }];
        let model_cell = Cell::Model { e: 0, w: 0, m: 2 };
        assert_eq!(
            fingerprint(model_cell, &exps, &wls, &pipe),
            "2cc1b476283873fe"
        );
        assert_eq!(
            fingerprint(Cell::Baseline { w: 0 }, &exps, &wls, &pipe),
            "4c044cb96bfbd1e9"
        );
        let req = CellRequest {
            name: "pin".to_string(),
            source: "int main(int a) { return a + 7; }".to_string(),
            args: vec![1, -2],
            model: Model::FullPred,
            issue: 8,
            branches: 1,
            memory: MemoryModel::Perfect,
            max_cycles: 1_000_000,
        };
        assert_eq!(request_fingerprint(&req, &pipe, false), "252481f66d2e4ec9");
        assert_eq!(request_fingerprint(&req, &pipe, true), "2328fdaf3b6d899c");
    }
}
