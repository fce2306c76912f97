//! Adversarial soak testing: generated workloads, cross-model
//! differential oracles, and journaled crash-safe resume.
//!
//! `hyperpredc soak` drives the seeded MiniC generator
//! ([`hyperpred_workloads::gen`]) through the full pipeline: every
//! generated program is compiled under all three execution models at
//! several machine widths, emulated, and simulated, and a battery of
//! end-to-end oracles is enforced per configuration. Each model is
//! formed once per program (with the [`Pipeline::form_degraded`]
//! degradation ladder, so budget-tripping pathological inputs fall back
//! instead of failing) and scheduled per width, so a program with the
//! default three widths costs 3 forms and 9 schedules, not 9 full back
//! halves. The oracles are:
//!
//! * **Differential emulation** — the pre-decoded emulator and the
//!   struct-walking [`ReferenceEmulator`] must produce bit-identical
//!   event streams (return value, event count, rolling event hash).
//! * **Cross-model architecture** — every (model, width) combination
//!   must return the baseline's result and produce the baseline's
//!   executed-store address stream. Nullified stores and the partial
//!   model's [`SAFE_ADDR`] redirects are excluded: they are
//!   predication *mechanics*, not architectural side effects.
//! * **Timing sanity** — [`SimStats`] must agree exactly with an
//!   independent [`DynStats`] trace (instructions, branches, nullified,
//!   loads, stores), return the emulator's result, respect the issue
//!   width's cycle floor, and keep misses bounded by references.
//! * **Lint checkpoints** — soak always compiles with the per-pass
//!   semantic checkers on, so every intermediate module is verified:
//!   each formed module once, and each scheduled module against its
//!   formed module's speculation snapshot.
//!
//! Failures are contained per program (panics included, via the matrix
//! engine's capture hook), normalized to a signature, and emitted as
//! repro bundles through [`crate::triage`]; `hyperpredc repro` replays
//! soak bundles through this module's [`replay_cell`], which re-runs the
//! same oracle battery — so even cross-model divergences minimize.
//!
//! Completed programs are recorded in a [`Store`] directory under a
//! config fingerprint; a killed soak resumed with the same directory
//! skips them bit-identically and re-runs only what is missing.

use crate::journal::{fnv64, JournalEntry};
use crate::matrix::{catch_cell, stage_of, FailurePayload, FailureStage};
use crate::pipeline::{Formed, FrontOutput, Model, Pipeline, PipelineError, Stage};
use crate::predoracle::{PredClaims, PredOracleSink};
use crate::store::Store;
use crate::triage::{self, ReproCell, TriageConfig};
use hyperpred_emu::decode::DCode;
use hyperpred_emu::{DynStats, Emulator, Event, ReferenceEmulator, Tee, TraceSink};
use hyperpred_ir::module::SAFE_ADDR;
use hyperpred_ir::{BlockId, FuncId, Module};
use hyperpred_lang::lower::entry_args;
use hyperpred_sched::MachineConfig;
use hyperpred_sim::{simulate, CacheConfig, MemoryModel, SimConfig, SimStats};
use hyperpred_workloads::gen::{generate, GenProgram, Profile};
use std::cell::{Ref, RefCell};
use std::io;
use std::path::PathBuf;

/// The experiment name soak stamps into journals and repro bundles.
/// [`triage::replay`] routes cells with this experiment back through
/// [`replay_cell`], so oracle failures replay under the oracle battery.
pub const SOAK_EXPERIMENT: &str = "soak";

/// Soak-run parameters.
#[derive(Debug, Clone)]
pub struct SoakConfig {
    /// Base seed; program `i` is generated from `seed + i`.
    pub seed: u64,
    /// Number of programs to generate and check.
    pub cells: usize,
    /// Generator profiles, cycled per program. Empty means all.
    pub profiles: Vec<Profile>,
    /// Machine shapes `(issue_width, branches_per_cycle)` each model is
    /// simulated at, on top of the canonical 1-issue baseline.
    pub widths: Vec<(u32, u32)>,
    /// Store directory for crash-safe resume (`None` disables journaling).
    pub journal: Option<PathBuf>,
    /// Repro-bundle emission for failures (`None` disables triage).
    pub triage: Option<TriageConfig>,
    /// Stop (reporting `interrupted`) after this many programs — the
    /// test hook for exercising resume without killing a process.
    pub cell_limit: Option<usize>,
    /// Chaos hook: sabotage the module after this pass in every compile,
    /// so the run exercises checkpoint blame and bundle emission.
    pub sabotage: Option<Stage>,
    /// Simulation watchdog budget per configuration.
    pub max_cycles: u64,
    /// Emulation fuel per run (profiling and differential runs).
    pub fuel: u64,
}

impl SoakConfig {
    /// Default battery: all profiles, three machine shapes, journaling
    /// and triage off.
    pub fn new(seed: u64, cells: usize) -> SoakConfig {
        SoakConfig {
            seed,
            cells,
            profiles: Profile::ALL.to_vec(),
            widths: vec![(1, 1), (4, 1), (8, 2)],
            journal: None,
            triage: None,
            cell_limit: None,
            sabotage: None,
            max_cycles: 2_000_000,
            fuel: 50_000_000,
        }
    }
}

/// One permanently failed program.
#[derive(Debug)]
pub struct SoakFailure {
    /// Generated workload name (`gen-<profile>-<seed>`).
    pub workload: String,
    /// Profile it was drawn from.
    pub profile: Profile,
    /// Its generator seed (regenerate with `generate(profile, seed)`).
    pub seed: u64,
    /// Normalized failure signature.
    pub signature: String,
    /// Repro bundle directory, when triage was configured and the write
    /// succeeded.
    pub bundle: Option<PathBuf>,
}

/// What a soak run did.
#[derive(Debug, Default)]
pub struct SoakReport {
    /// Programs the configuration asked for.
    pub programs: usize,
    /// Programs actually run this invocation.
    pub ran: usize,
    /// Programs skipped because the journal already had them.
    pub skipped: usize,
    /// Programs that needed the degradation ladder to finish a compile.
    pub degraded: usize,
    /// Permanent failures, in discovery order.
    pub failures: Vec<SoakFailure>,
    /// True when `cell_limit` stopped the run early.
    pub interrupted: bool,
    /// Corrupt journal records skipped at open (see [`Store::corrupt`]).
    pub journal_corrupt: usize,
}

impl SoakReport {
    /// True when every requested program ran (or was journaled) clean.
    pub fn ok(&self) -> bool {
        self.failures.is_empty() && !self.interrupted
    }
}

// ---------------------------------------------------------------------------
// Observation sink
// ---------------------------------------------------------------------------

/// FNV-1a step over one little-endian word.
fn fold(h: u64, x: u64) -> u64 {
    let mut h = h;
    for b in x.to_le_bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A sink that reduces a run to comparable observations: a rolling hash
/// of the full event stream (for the decoded-vs-reference differential),
/// the executed-store address stream (for the cross-model architectural
/// oracle), and [`DynStats`] counters (for the timing-sanity oracle).
/// Bounded memory: only store addresses are retained, never events.
struct SoakSink {
    hash: u64,
    events: u64,
    stores: Vec<u64>,
    dync: DynStats,
}

impl SoakSink {
    fn new() -> SoakSink {
        SoakSink {
            hash: 0xcbf2_9ce4_8422_2325,
            events: 0,
            stores: Vec::new(),
            dync: DynStats::new(),
        }
    }
}

impl TraceSink for SoakSink {
    fn enter_block(&mut self, func: FuncId, block: BlockId) {
        self.dync.enter_block(func, block);
        self.hash = fold(fold(self.hash, u64::from(func.0)), u64::from(block.0));
    }

    fn inst(&mut self, ev: &Event) {
        self.dync.inst(ev);
        self.events += 1;
        let mut h = fold(self.hash, ev.code as u64);
        h = fold(h, ev.index as u64);
        h = fold(
            h,
            u64::from(ev.nullified) | (ev.taken.map_or(0, |t| 2 | u64::from(t) << 2)),
        );
        h = fold(h, ev.mem_addr.map_or(u64::MAX, |a| a));
        self.hash = h;
        if matches!(ev.code, DCode::StByte | DCode::StWord)
            && !ev.nullified
            && ev.mem_addr.is_some_and(|a| a != SAFE_ADDR)
        {
            self.stores.push(ev.mem_addr.unwrap_or(0));
        }
    }
}

/// Architectural observations of one (model, machine) configuration.
struct Observed {
    ret: i64,
    stores: Vec<u64>,
}

// ---------------------------------------------------------------------------
// The per-configuration oracle battery
// ---------------------------------------------------------------------------

fn pipe_for(sabotage: Option<Stage>, fuel: u64) -> Pipeline {
    Pipeline {
        // Soak's whole point is end-to-end checking: every per-pass lint
        // checkpoint stays on even in release builds.
        checks: true,
        sabotage,
        profile_fuel: fuel,
        ..Pipeline::default()
    }
}

fn sim_for(max_cycles: u64) -> SimConfig {
    SimConfig {
        memory: MemoryModel::Caches(CacheConfig::default()),
        max_cycles,
        ..SimConfig::default()
    }
}

fn oracle(workload: &str, model: Model, check: &'static str, detail: String) -> PipelineError {
    PipelineError::Oracle {
        workload: workload.to_string(),
        model,
        check,
        detail,
    }
}

/// One program's formed modules: each model is formed at most once (down
/// the degradation ladder), on first use, and scheduled per machine.
struct Forms<'a> {
    pipe: &'a Pipeline,
    front: &'a FrontOutput,
    /// Per [`Model::index`]: the formed module and whether the ladder
    /// degraded it.
    formed: [Option<(Formed, bool)>; 3],
}

impl<'a> Forms<'a> {
    fn new(pipe: &'a Pipeline, front: &'a FrontOutput) -> Forms<'a> {
        Forms {
            pipe,
            front,
            formed: [None, None, None],
        }
    }

    /// `model` scheduled for `machine`, and whether its form degraded.
    fn compile(
        &mut self,
        model: Model,
        machine: &MachineConfig,
    ) -> Result<(Module, bool), PipelineError> {
        let slot = &mut self.formed[model.index()];
        if slot.is_none() {
            let (formed, deg) = self.pipe.form_degraded(self.front, model)?;
            *slot = Some((formed, deg.is_degraded()));
        }
        let (formed, degraded) = slot.as_ref().expect("formed above");
        Ok((self.pipe.schedule(formed.clone(), machine)?, *degraded))
    }
}

/// Compiles (from the program's memoized forms), runs the decoded and
/// reference emulators differentially, simulates, and checks every
/// single-config oracle. Returns the stats, the architectural
/// observations (for the caller's cross-model comparison), and whether
/// the ladder degraded.
#[allow(clippy::too_many_arguments)]
fn run_config(
    forms: &mut Forms<'_>,
    model: Model,
    machine: &MachineConfig,
    workload: &str,
    args: &[i64],
    fuel: u64,
    max_cycles: u64,
    module_slot: &RefCell<Option<Module>>,
) -> Result<(SimStats, Observed, bool), PipelineError> {
    // Drop any previous configuration's module first: if this compile
    // fails, triage must not dump a stale module as if it were this one.
    *module_slot.borrow_mut() = None;
    let (module, degraded) = forms.compile(model, machine)?;
    // Keep the module for triage *before* any oracle can fail; the
    // battery borrows it back from the slot.
    *module_slot.borrow_mut() = Some(module);
    let module = Ref::map(module_slot.borrow(), |m| m.as_ref().expect("just stored"));
    let eargs = entry_args(args);

    // Differential emulation: decoded vs reference, full event stream.
    // Both runs are additionally audited by the predicate-relation
    // oracle: every dynamic predicate write must satisfy the claims the
    // relation analysis makes about the final module.
    let claims = PredClaims::build(&module);
    let mut pred_sink = PredOracleSink::new(&claims);
    let mut decoded_sink = SoakSink::new();
    let out = Emulator::new(&module).with_fuel(fuel).run(
        "main",
        &eargs,
        &mut Tee::new(&mut decoded_sink, &mut pred_sink),
    );
    let mut reference_sink = SoakSink::new();
    let ref_out = ReferenceEmulator::new(&module).with_fuel(fuel).run(
        "main",
        &eargs,
        &mut Tee::new(&mut reference_sink, &mut pred_sink),
    );
    if let Some(v) = pred_sink.violation.take() {
        return Err(oracle(workload, model, "pred-relations", v));
    }
    let (out, ref_out) = match (out, ref_out) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(a), Err(b)) if format!("{a}") == format!("{b}") => return Err(a.into()),
        (a, b) => {
            return Err(oracle(
                workload,
                model,
                "decoded-vs-reference",
                format!("decoded: {a:?}, reference: {b:?}"),
            ))
        }
    };
    if out.ret != ref_out.ret
        || decoded_sink.events != reference_sink.events
        || decoded_sink.hash != reference_sink.hash
    {
        return Err(oracle(
            workload,
            model,
            "decoded-vs-reference",
            format!(
                "decoded ret {} / {} events / hash {:016x}, \
                 reference ret {} / {} events / hash {:016x}",
                out.ret,
                decoded_sink.events,
                decoded_sink.hash,
                ref_out.ret,
                reference_sink.events,
                reference_sink.hash
            ),
        ));
    }

    // Timing simulation plus sanity invariants against the trace.
    let stats = simulate(&module, "main", &eargs, *machine, sim_for(max_cycles))?;
    let d = &decoded_sink.dync;
    let fail = |check: &'static str, detail: String| Err(oracle(workload, model, check, detail));
    if stats.ret != out.ret {
        return fail(
            "sim-ret",
            format!("sim {} vs emulator {}", stats.ret, out.ret),
        );
    }
    if stats.insts != d.insts || stats.nullified != d.nullified {
        return fail(
            "trace-insts",
            format!(
                "sim {}/{} nullified vs trace {}/{}",
                stats.insts, stats.nullified, d.insts, d.nullified
            ),
        );
    }
    if stats.branches != d.branches {
        return fail(
            "trace-branches",
            format!("sim {} vs trace {}", stats.branches, d.branches),
        );
    }
    if stats.loads != d.loads || stats.stores != d.stores {
        return fail(
            "trace-memops",
            format!(
                "sim {}/{} vs trace {}/{}",
                stats.loads, stats.stores, d.loads, d.stores
            ),
        );
    }
    let floor = stats.insts.div_ceil(u64::from(machine.issue_width.max(1)));
    if stats.cycles < floor {
        return fail(
            "cycle-floor",
            format!(
                "{} cycles < {floor} ({} insts at width {})",
                stats.cycles, stats.insts, machine.issue_width
            ),
        );
    }
    if stats.mispredicts > stats.branches
        || stats.dcache_misses > stats.loads
        || stats.icache_misses > stats.insts
    {
        return fail(
            "reference-bound",
            format!(
                "mispredicts {}/{} branches, dcache {}/{} loads, icache {}/{} insts",
                stats.mispredicts,
                stats.branches,
                stats.dcache_misses,
                stats.loads,
                stats.icache_misses,
                stats.insts
            ),
        );
    }

    Ok((
        stats,
        Observed {
            ret: out.ret,
            stores: decoded_sink.stores,
        },
        degraded,
    ))
}

/// Compares one configuration's architectural observations against the
/// canonical baseline's.
fn check_against_baseline(
    workload: &str,
    model: Model,
    obs: &Observed,
    base: &Observed,
) -> Result<(), PipelineError> {
    if obs.ret != base.ret {
        return Err(PipelineError::Diverged {
            workload: workload.to_string(),
            model,
            got: obs.ret,
            want: base.ret,
        });
    }
    if obs.stores != base.stores {
        let at = obs
            .stores
            .iter()
            .zip(&base.stores)
            .position(|(a, b)| a != b);
        return Err(oracle(
            workload,
            model,
            "store-stream",
            format!(
                "{} executed stores vs baseline {} (first mismatch at {:?})",
                obs.stores.len(),
                base.stores.len(),
                at
            ),
        ));
    }
    Ok(())
}

/// The canonical baseline configuration every model/width is compared
/// against: the unpredicated superblock model on a 1-issue machine.
fn baseline_machine() -> MachineConfig {
    MachineConfig::new(1, 1)
}

// ---------------------------------------------------------------------------
// Per-program battery and the soak loop
// ---------------------------------------------------------------------------

/// Fingerprint of one generated program under one soak configuration:
/// anything that changes the battery's behavior changes the key, so a
/// journal from a different seed, width set, sabotage mode, or crate
/// version never short-circuits a cell.
fn fingerprint(cfg: &SoakConfig, prog: &GenProgram) -> String {
    // `battery` names the oracle set; bump it when a new check joins so
    // journals written before the check never short-circuit past it.
    let mut key = format!(
        "soak|crate={}|battery=predrel|profile={}|seed={}|src={:016x}|args={:?}|sabotage={}|max_cycles={}|fuel={}|widths=",
        env!("CARGO_PKG_VERSION"),
        prog.profile,
        prog.seed,
        fnv64(prog.source.as_bytes()),
        prog.args,
        cfg.sabotage.map_or("none", Stage::name),
        cfg.max_cycles,
        cfg.fuel,
    );
    for (i, b) in &cfg.widths {
        key.push_str(&format!("{i}x{b},"));
    }
    format!("{:016x}", fnv64(key.as_bytes()))
}

/// The battery outcome for one program: the last configuration's stats
/// (journaled on success), the model that produced them, and whether any
/// configuration degraded.
struct ProgramPass {
    stats: SimStats,
    model: Model,
    degraded: bool,
}

fn run_program(
    cfg: &SoakConfig,
    prog: &GenProgram,
    module_slot: &RefCell<Option<Module>>,
    current: &RefCell<(Option<Model>, u32, u32)>,
) -> Result<ProgramPass, PipelineError> {
    let pipe = pipe_for(cfg.sabotage, cfg.fuel);
    *current.borrow_mut() = (None, 1, 1);
    let front = pipe.front(&prog.source, &prog.args)?;
    let mut forms = Forms::new(&pipe, &front);

    *current.borrow_mut() = (Some(Model::Superblock), 1, 1);
    let (base_stats, base_obs, base_deg) = run_config(
        &mut forms,
        Model::Superblock,
        &baseline_machine(),
        &prog.name,
        &prog.args,
        cfg.fuel,
        cfg.max_cycles,
        module_slot,
    )?;
    let mut pass = ProgramPass {
        stats: base_stats,
        model: Model::Superblock,
        degraded: base_deg,
    };

    for &(issue, branches) in &cfg.widths {
        let machine = MachineConfig::new(issue.max(1), branches.max(1));
        for model in Model::ALL {
            if model == Model::Superblock && (issue, branches) == (1, 1) {
                continue; // this is the baseline itself
            }
            *current.borrow_mut() = (Some(model), issue, branches);
            let (stats, obs, deg) = run_config(
                &mut forms,
                model,
                &machine,
                &prog.name,
                &prog.args,
                cfg.fuel,
                cfg.max_cycles,
                module_slot,
            )?;
            check_against_baseline(&prog.name, model, &obs, &base_obs)?;
            pass = ProgramPass {
                stats,
                model,
                degraded: pass.degraded || deg,
            };
        }
    }
    Ok(pass)
}

/// Runs the soak battery over `cfg.cells` generated programs, journaling
/// completions and emitting repro bundles for failures.
///
/// # Errors
/// Fails only on journal I/O errors; program failures (including panics)
/// are contained, triaged, and reported in the [`SoakReport`].
pub fn run_soak(cfg: &SoakConfig) -> io::Result<SoakReport> {
    let journal = match &cfg.journal {
        Some(dir) => Some(Store::open(dir)?),
        None => None,
    };
    let profiles: &[Profile] = if cfg.profiles.is_empty() {
        &Profile::ALL
    } else {
        &cfg.profiles
    };
    let mut report = SoakReport {
        programs: cfg.cells,
        journal_corrupt: journal.as_ref().map_or(0, Store::corrupt),
        ..SoakReport::default()
    };

    for i in 0..cfg.cells {
        if cfg.cell_limit.is_some_and(|limit| i >= limit) {
            report.interrupted = true;
            break;
        }
        let profile = profiles[i % profiles.len()];
        let prog = generate(profile, cfg.seed.wrapping_add(i as u64));
        let fp = fingerprint(cfg, &prog);
        if journal.as_ref().is_some_and(|j| j.get(&fp).is_some()) {
            report.skipped += 1;
            continue;
        }

        // Per-program containment: a panic anywhere in the battery fails
        // this program, never the run. The slots exist because a panic
        // unwinds past the battery's return value.
        let module_slot: RefCell<Option<Module>> = RefCell::new(None);
        let current: RefCell<(Option<Model>, u32, u32)> = RefCell::new((None, 1, 1));
        let caught = catch_cell(|| run_program(cfg, &prog, &module_slot, &current));
        report.ran += 1;

        let payload = match caught {
            Ok(Ok(pass)) => {
                if pass.degraded {
                    report.degraded += 1;
                }
                if let Some(j) = &journal {
                    j.put(&JournalEntry {
                        fingerprint: &fp,
                        workload: &prog.name,
                        experiment: SOAK_EXPERIMENT,
                        model: Some(pass.model),
                        stats: &pass.stats,
                    })?;
                }
                continue;
            }
            Ok(Err(e)) => FailurePayload::Error(e),
            Err(panic_msg) => FailurePayload::Panic(panic_msg),
        };

        let (model, issue, branches) = *current.borrow();
        let stage = match &payload {
            FailurePayload::Error(e) => stage_of(e),
            FailurePayload::Panic(_) => FailureStage::Compile,
        };
        let cell = ReproCell {
            workload: prog.name.clone(),
            args: prog.args.clone(),
            experiment: SOAK_EXPERIMENT.to_string(),
            model,
            issue,
            branches,
            memory: MemoryModel::Caches(CacheConfig::default()),
            max_cycles: cfg.max_cycles,
            fault_injection: false,
            sabotage: cfg.sabotage,
            stage,
            signature: triage::signature(&payload),
            fingerprint: fp,
            attempts: 1,
        };
        let bundle = cfg.triage.as_ref().and_then(|tcfg| {
            let module = module_slot.borrow();
            triage::emit_bundle(tcfg, &cell, &prog.source, &payload, module.as_ref())
        });
        report.failures.push(SoakFailure {
            workload: prog.name.clone(),
            profile: prog.profile,
            seed: prog.seed,
            signature: cell.signature,
            bundle,
        });
    }
    if let Some(j) = &journal {
        j.sync()?;
    }
    Ok(report)
}

// ---------------------------------------------------------------------------
// Replay (for `hyperpredc repro` and the minimizers)
// ---------------------------------------------------------------------------

/// Replays one soak cell's oracle battery over `source`: the canonical
/// baseline, then the cell's own (model, machine) configuration with the
/// cross-model comparison. Returns the failure signature, or `None` when
/// everything passes. This is what [`triage::replay`] delegates soak
/// cells to, so minimization probes reproduce oracle failures too.
pub(crate) fn replay_cell(cell: &ReproCell, source: &str) -> Option<String> {
    let fuel = SoakConfig::new(0, 0).fuel;
    let module_slot: RefCell<Option<Module>> = RefCell::new(None);
    let caught = catch_cell(|| -> Result<(), PipelineError> {
        let pipe = pipe_for(cell.sabotage, fuel);
        let front = pipe.front(source, &cell.args)?;
        let mut forms = Forms::new(&pipe, &front);
        let (_, base_obs, _) = run_config(
            &mut forms,
            Model::Superblock,
            &baseline_machine(),
            &cell.workload,
            &cell.args,
            fuel,
            cell.max_cycles,
            &module_slot,
        )?;
        if let Some(model) = cell.model {
            if !(model == Model::Superblock && cell.issue <= 1 && cell.branches <= 1) {
                let machine = MachineConfig::new(cell.issue.max(1), cell.branches.max(1));
                let (_, obs, _) = run_config(
                    &mut forms,
                    model,
                    &machine,
                    &cell.workload,
                    &cell.args,
                    fuel,
                    cell.max_cycles,
                    &module_slot,
                )?;
                check_against_baseline(&cell.workload, model, &obs, &base_obs)?;
            }
        }
        Ok(())
    });
    match caught {
        Err(panic_msg) => Some(triage::signature(&FailurePayload::Panic(panic_msg))),
        Ok(Err(e)) => Some(triage::signature(&FailurePayload::Error(e))),
        Ok(Ok(())) => None,
    }
}
