//! The traced run: a workload's inputs replayed through each layer's
//! public functions, one timed call at a time.
//!
//! A workload hands over a [`CellSet`]: programs crossed with machine
//! configurations, shaped like the matrix engine's cells (a 1-issue
//! baseline per program plus every experiment × model). The replay
//!
//! 1. runs the cell set once through `run_matrix_configured`, untraced,
//!    for the engine's own counters and the reference results;
//! 2. compiles it again stage by stage with the same public calls
//!    `Pipeline::front` and `Pipeline::finish` make, in the same order,
//!    timing each call, and refuses a module that is not Debug-equal to
//!    `Pipeline::compile`'s; then decodes, emulates, reference-emulates
//!    and simulates each module, checking results against step 1;
//! 3. replays every cell as a daemon request straight into the service
//!    codec, a fresh `Store` and (for a sample) `run_request`.
//!
//! Spans are kept in memory and written as JSON lines next to the build
//! when the run ends.

use crate::{Args, Outcome, WorkDir};
use hyperpred::emu::{DecodedModule, Emulator, NullSink, Profiler, ReferenceEmulator};
use hyperpred::hyperblock::{
    form_hyperblocks, form_superblocks, promote_bounded, unroll_self_loops,
};
use hyperpred::ir::analysis::{
    check_module, check_relation_soundness, ModelClass, Snapshot, Violation,
};
use hyperpred::ir::{Cfg, FuncId, Module, RelationDb};
use hyperpred::journal::{model_slug, JournalEntry};
use hyperpred::lang::lower::entry_args;
use hyperpred::pipeline::FrontOutput;
use hyperpred::sched::{schedule_module, MachineConfig};
use hyperpred::service::{
    parse_request, parse_response, request_to_json, response_to_json, CellResponse, CellStatus,
};
use hyperpred::sim::{simulate_decoded, MemoryModel, SimConfig, SimStats};
use hyperpred::workloads::gen::GenProgram;
use hyperpred::workloads::Workload;
use hyperpred::{
    request_fingerprint, run_matrix_configured, run_request, CellRequest, Experiment,
    FailurePolicy, LintError, MatrixConfig, Model, Pipeline, PipelineError, RecordOutcome,
    RequestConfig, Stage, Store, StoreConfig,
};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// A workload's inputs in matrix shape.
pub struct CellSet {
    /// Programs (the paper minis or generated ones).
    pub programs: Vec<Workload>,
    /// Machine configurations each program runs under with all three
    /// models, besides the shared 1-issue baseline.
    pub exps: Vec<Experiment>,
    /// Pipeline settings the workload compiles with.
    pub pipe: Pipeline,
    /// Compiles go through the budget-degradation ladder, as the soak
    /// battery and the daemon's request path do.
    pub degrade: bool,
    /// Cells replayed through `run_request` (evenly spaced).
    pub request_sample: usize,
    /// The set is the paper's figures over the fifteen minis: the engine's
    /// results are checked against the golden file, and the per-mini
    /// finish times come from this replay rather than a separate probe.
    pub minis: bool,
}

/// A generated program as a matrix workload. The engine names workloads
/// by `&'static str`, so the name is leaked (a run makes at most a few
/// hundred).
pub fn generated(p: GenProgram) -> Workload {
    Workload {
        name: Box::leak(p.name.into_boxed_str()),
        description: "generated",
        source: p.source,
        args: p.args,
    }
}

/// One timed call.
struct Span {
    layer: &'static str,
    cell: usize,
    start_us: f64,
    dur_us: f64,
}

/// Time spent per layer, plus every span in order.
struct Layers {
    epoch: Instant,
    totals: BTreeMap<&'static str, f64>,
    calls: BTreeMap<&'static str, u64>,
    cells: Vec<String>,
    spans: Vec<Span>,
}

impl Layers {
    fn new() -> Layers {
        Layers {
            epoch: Instant::now(),
            totals: BTreeMap::new(),
            calls: BTreeMap::new(),
            cells: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Names the cell the next spans belong to.
    fn enter(&mut self, cell: String) {
        self.cells.push(cell);
    }

    fn time<T>(&mut self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = std::hint::black_box(f());
        let dur = t.elapsed().as_secs_f64();
        *self.totals.entry(layer).or_default() += dur;
        *self.calls.entry(layer).or_default() += 1;
        self.spans.push(Span {
            layer,
            cell: self.cells.len().saturating_sub(1),
            start_us: (t - self.epoch).as_secs_f64() * 1e6,
            dur_us: dur * 1e6,
        });
        out
    }

    /// Adds time measured outside [`Layers::time`] to `layer`.
    fn add(&mut self, layer: &'static str, secs: f64) {
        *self.totals.entry(layer).or_default() += secs;
    }

    /// Duration of the latest span, in seconds.
    fn last_s(&self) -> f64 {
        self.spans.last().map_or(0.0, |s| s.dur_us * 1e-6)
    }

    fn total(&self, layer: &str) -> f64 {
        self.totals.get(layer).copied().unwrap_or(0.0)
    }

    /// Seconds per call, or 0 for a layer never called.
    fn per_call(&self, layer: &str) -> f64 {
        match self.calls.get(layer) {
            Some(&n) if n > 0 => self.total(layer) / n as f64,
            _ => 0.0,
        }
    }

    fn write_spans(&self, path: &std::path::Path) {
        let mut text = String::with_capacity(self.spans.len() * 96);
        for s in &self.spans {
            let cell = self.cells.get(s.cell).map_or("", String::as_str);
            writeln!(
                text,
                "{{\"layer\":\"{}\",\"cell\":\"{}\",\"start_us\":{:.1},\"dur_us\":{:.1}}}",
                s.layer, cell, s.start_us, s.dur_us
            )
            .expect("write to String");
        }
        if let Some(dir) = path.parent() {
            let _ = std::fs::create_dir_all(dir);
        }
        if let Err(e) = std::fs::write(path, text) {
            eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            );
        }
    }
}

/// The per-pass checkpoint, as `Pipeline`'s checkpointer runs it:
/// structural verify, the semantic checkers for the model class, then a
/// new speculation snapshot.
fn checkpoint(
    l: &mut Layers,
    module: &Module,
    class: ModelClass,
    spec: &mut Option<Snapshot>,
    stage: Stage,
) -> Result<(), PipelineError> {
    let violations = l.time("ir.check", || match module.verify() {
        Err(e) => vec![Violation::from(e)],
        Ok(()) => check_module(module, class, spec.as_ref()),
    });
    if !violations.is_empty() {
        return Err(PipelineError::Lint(LintError {
            pass: stage,
            violations,
        }));
    }
    *spec = Some(l.time("ir.check", || Snapshot::of(module)));
    Ok(())
}

/// `Pipeline::front`, call by call.
fn mirror_front(
    l: &mut Layers,
    pipe: &Pipeline,
    w: &Workload,
) -> Result<FrontOutput, PipelineError> {
    let mut spec = None;
    let mut module = l.time("lang.frontend", || hyperpred::lang::compile(&w.source))?;
    checkpoint(l, &module, ModelClass::NoPred, &mut spec, Stage::Frontend)?;
    if pipe.inline {
        l.time("opt.inline", || {
            hyperpred::opt::inline::run_module(
                &mut module,
                &hyperpred::opt::inline::InlineConfig::default(),
            )
        });
        checkpoint(l, &module, ModelClass::NoPred, &mut spec, Stage::Inline)?;
    }
    if pipe.classic_opt {
        l.time("opt.pre", || hyperpred::opt::optimize_module(&mut module));
        checkpoint(l, &module, ModelClass::NoPred, &mut spec, Stage::OptPre)?;
    }
    let mut profile = Profiler::new();
    l.time("emu.profile", || {
        Emulator::new(&module).with_fuel(pipe.profile_fuel).run(
            "main",
            &entry_args(&w.args),
            &mut profile,
        )
    })?;
    Ok(FrontOutput { module, profile })
}

/// Applies `pass` to every function in order, stopping at the first error.
fn each<E>(
    module: &mut Module,
    mut pass: impl FnMut(&mut hyperpred::ir::Function, FuncId) -> Result<(), E>,
) -> Result<(), PipelineError>
where
    PipelineError: From<E>,
{
    for (i, f) in module.funcs.iter_mut().enumerate() {
        pass(f, FuncId(i as u32))?;
    }
    Ok(())
}

/// `Pipeline::finish`, call by call.
fn mirror_finish(
    l: &mut Layers,
    pipe: &Pipeline,
    front: &FrontOutput,
    model: Model,
    machine: &MachineConfig,
) -> Result<Module, PipelineError> {
    let mut module = front.module.clone();
    let prof = &front.profile;
    let mut spec = Some(l.time("ir.check", || Snapshot::of(&module)));
    let mut class = if model == Model::Superblock {
        ModelClass::NoPred
    } else {
        ModelClass::FullPred
    };
    let superblocks = |l: &mut Layers, module: &mut Module| {
        l.time("hyperblock.superblock", || {
            each(module, |f, fid| {
                form_superblocks(f, fid, prof, &pipe.superblock);
                Ok::<(), PipelineError>(())
            })
        })
    };
    if model != Model::Superblock {
        l.time("hyperblock.ifconvert", || {
            each(&mut module, |f, fid| {
                form_hyperblocks(f, fid, prof, &pipe.hyperblock).map(drop)
            })
        })?;
        checkpoint(l, &module, class, &mut spec, Stage::IfConvert)?;
        let violations = l.time("ir.check", || {
            let mut v = Vec::new();
            for f in &module.funcs {
                check_relation_soundness(f, &RelationDb::build(f, &Cfg::new(f)), &mut v);
            }
            v
        });
        if !violations.is_empty() {
            return Err(PipelineError::Lint(LintError {
                pass: Stage::Relations,
                violations,
            }));
        }
        if pipe.promote {
            l.time("hyperblock.promote", || {
                each(&mut module, |f, _| {
                    promote_bounded(f, pipe.promote_rounds).map(drop)
                })
            })?;
            checkpoint(l, &module, class, &mut spec, Stage::Promote)?;
        }
    }
    superblocks(l, &mut module)?;
    checkpoint(l, &module, class, &mut spec, Stage::Superblock)?;
    l.time("hyperblock.unroll", || {
        each(&mut module, |f, fid| {
            unroll_self_loops(f, fid, prof, &pipe.unroll).map(drop)
        })
    })?;
    checkpoint(l, &module, class, &mut spec, Stage::Unroll)?;
    if model == Model::CondMove {
        l.time("partial.convert", || {
            hyperpred::partial::to_partial_module(&mut module, &pipe.partial)
        });
        class = ModelClass::PartialPred;
        checkpoint(l, &module, class, &mut spec, Stage::PartialConvert)?;
    }
    if pipe.classic_opt {
        l.time("opt.post", || hyperpred::opt::optimize_module(&mut module));
        checkpoint(l, &module, class, &mut spec, Stage::OptPost)?;
    }
    l.time("sched.schedule", || schedule_module(&mut module, machine))?;
    checkpoint(l, &module, class, &mut spec, Stage::Schedule)?;
    Ok(module)
}

/// [`mirror_finish`] under `Pipeline::finish_degraded`'s ladder when
/// `degrade` is set. Returns the module and the settings that produced
/// it (the reference compile must use the same ones).
fn mirror_finish_ladder(
    l: &mut Layers,
    pipe: &Pipeline,
    degrade: bool,
    front: &FrontOutput,
    model: Model,
    machine: &MachineConfig,
) -> Result<(Module, Pipeline), PipelineError> {
    let mut p = *pipe;
    let mut disabled: Vec<Stage> = Vec::new();
    loop {
        let e = match mirror_finish(l, &p, front, model, machine) {
            Ok(m) => return Ok((m, p)),
            Err(e) => e,
        };
        let pass = match &e {
            PipelineError::Budget { pass, .. } if degrade && !disabled.contains(pass) => *pass,
            _ => return Err(e),
        };
        match pass {
            Stage::Unroll => p.unroll.factor = 1,
            Stage::Promote => p.promote = false,
            Stage::IfConvert => p.hyperblock.max_blocks = 0,
            _ => return Err(e),
        }
        disabled.push(pass);
    }
}

/// One simulated cell of a compile key.
struct SimCell {
    /// Index into the engine's per-experiment rows (`None`: baseline).
    exp: Option<usize>,
    sim: SimConfig,
}

/// A distinct compile: model plus machine, with the cells simulating it.
struct Key {
    model: Model,
    issue: u32,
    branches: u32,
    cells: Vec<SimCell>,
}

fn keys_of(exps: &[Experiment]) -> Vec<Key> {
    let base_cycles = exps
        .first()
        .map_or(hyperpred::sim::DEFAULT_CYCLE_LIMIT, |e| e.max_cycles);
    let mut keys = vec![Key {
        model: Model::Superblock,
        issue: 1,
        branches: 1,
        cells: vec![SimCell {
            exp: None,
            sim: SimConfig {
                memory: MemoryModel::Perfect,
                max_cycles: base_cycles,
                ..SimConfig::default()
            },
        }],
    }];
    for (e, exp) in exps.iter().enumerate() {
        for model in Model::ALL {
            let sim = SimConfig {
                memory: exp.memory,
                max_cycles: exp.max_cycles,
                ..SimConfig::default()
            };
            let cell = SimCell { exp: Some(e), sim };
            match keys
                .iter_mut()
                .find(|k| k.model == model && k.issue == exp.issue && k.branches == exp.branches)
            {
                Some(k) => k.cells.push(cell),
                None => keys.push(Key {
                    model,
                    issue: exp.issue,
                    branches: exp.branches,
                    cells: vec![cell],
                }),
            }
        }
    }
    keys
}

fn static_insts(m: &Module) -> u64 {
    m.funcs
        .iter()
        .flat_map(|f| f.blocks.iter())
        .map(|b| b.insts.len() as u64)
        .sum()
}

/// A replayed cell, kept for the service replay.
struct Replayed {
    req: CellRequest,
    stats: SimStats,
}

/// Totals the stage mirror produces beyond the per-layer times.
#[derive(Default)]
struct MirrorTotals {
    emu_insts: u64,
    sim_cycles: u64,
    static_insts: [u64; 3],
    /// Engine-equivalent work: what `run_matrix_configured` also does.
    work_s: f64,
    /// `Pipeline::finish` time per mini on the Fig. 8 machine.
    finish_fig8: BTreeMap<&'static str, f64>,
}

/// Stage-mirrors `set`, checking every module against
/// `Pipeline::compile` and every simulation against `expected`
/// (program index, experiment, model) when the engine produced it.
fn mirror(
    l: &mut Layers,
    set: &CellSet,
    expected: &dyn Fn(usize, Option<usize>, Model) -> Option<SimStats>,
    simulate: bool,
    out: &mut Outcome,
    totals: &mut MirrorTotals,
    replayed: &mut Vec<Replayed>,
) {
    let keys = keys_of(&set.exps);
    let pipe = &set.pipe;
    // `pipeline.front`/`finish` count what `Pipeline` itself would do, so
    // checker time is left out of them when the workload compiles without
    // checks (the mirror always runs the checkers, for `ir.check`).
    let check_share = |l: &Layers| {
        if pipe.checks {
            0.0
        } else {
            l.total("ir.check")
        }
    };
    for (wi, w) in set.programs.iter().enumerate() {
        l.enter(format!("{}|front", w.name));
        let t = Instant::now();
        let c0 = check_share(l);
        let front = mirror_front(l, pipe, w);
        let front_s = t.elapsed().as_secs_f64() - (check_share(l) - c0);
        l.add("pipeline.front", front_s);
        totals.work_s += front_s;
        let front = match front {
            Ok(f) => f,
            Err(e) => {
                out.check(false, || {
                    format!("{}: mirrored front half failed: {e}", w.name)
                });
                continue;
            }
        };
        let args = entry_args(&w.args);
        for key in &keys {
            let machine = MachineConfig::new(key.issue, key.branches);
            l.enter(format!(
                "{}|{}|{}x{}",
                w.name,
                model_slug(Some(key.model)),
                key.issue,
                key.branches
            ));
            let t = Instant::now();
            let c0 = check_share(l);
            let finished = mirror_finish_ladder(l, pipe, set.degrade, &front, key.model, &machine);
            let finish_s = t.elapsed().as_secs_f64() - (check_share(l) - c0);
            l.add("pipeline.finish", finish_s);
            totals.work_s += finish_s;
            if (key.issue, key.branches) == (8, 1) {
                *totals.finish_fig8.entry(w.name).or_default() += finish_s;
            }
            let (module, used) = match finished {
                Ok(m) => m,
                Err(e) => {
                    out.check(false, || format!("{}: mirrored finish failed: {e}", w.name));
                    continue;
                }
            };
            // The stage mirror must build exactly what the pipeline builds.
            let reference = used.compile(&w.source, &w.args, key.model, &machine);
            let same = matches!(&reference, Ok(r) if format!("{r:?}") == format!("{module:?}"));
            out.check(same, || {
                format!(
                    "{} {} {}x{}: stage mirror differs from Pipeline::compile ({})",
                    w.name,
                    model_slug(Some(key.model)),
                    key.issue,
                    key.branches,
                    reference
                        .as_ref()
                        .err()
                        .map_or("modules differ".to_string(), ToString::to_string)
                )
            });
            totals.static_insts[key.model.index()] += static_insts(&module);
            if !simulate {
                continue;
            }
            let decoded = Arc::new(l.time("emu.decode", || DecodedModule::decode(&module)));
            totals.work_s += l.last_s();
            let emulated = l.time("emu.emulate", || {
                Emulator::with_decoded(&module, Arc::clone(&decoded)).run(
                    "main",
                    &args,
                    &mut NullSink,
                )
            });
            let referenced = l.time("emu.reference", || {
                ReferenceEmulator::new(&module).run("main", &args, &mut NullSink)
            });
            match (&emulated, &referenced) {
                (Ok(a), Ok(b)) => {
                    totals.emu_insts += a.fetched;
                    out.check(a.ret == b.ret, || {
                        format!("{}: decoded returns {}, reference {}", w.name, a.ret, b.ret)
                    });
                }
                _ => out.check(false, || {
                    format!(
                        "{}: emulation failed: {emulated:?} / {referenced:?}",
                        w.name
                    )
                }),
            }
            for cell in &key.cells {
                let sim = l.time("sim.simulate", || {
                    simulate_decoded(&module, &decoded, "main", &args, machine, cell.sim)
                });
                totals.work_s += l.last_s();
                let stats = match sim {
                    Ok(s) => s,
                    Err(e) => {
                        out.check(false, || format!("{}: simulation failed: {e}", w.name));
                        continue;
                    }
                };
                totals.sim_cycles += stats.cycles;
                if let Some(want) = expected(wi, cell.exp, key.model) {
                    out.check(want == stats, || {
                        format!(
                            "{} {}: mirrored simulation differs from the engine",
                            w.name,
                            model_slug(Some(key.model))
                        )
                    });
                }
                replayed.push(Replayed {
                    req: CellRequest {
                        name: w.name.to_string(),
                        source: w.source.clone(),
                        args: w.args.clone(),
                        model: key.model,
                        issue: key.issue,
                        branches: key.branches,
                        memory: cell.sim.memory,
                        max_cycles: cell.sim.max_cycles,
                    },
                    stats,
                });
            }
        }
    }
}

/// Replays cells as daemon requests through the codec, a fresh store and
/// (every `stride`-th cell) `run_request`.
fn service_replay(
    l: &mut Layers,
    cells: &[Replayed],
    pipe: &Pipeline,
    sample: usize,
    work: &WorkDir,
    out: &mut Outcome,
) -> Result<(), String> {
    let store = Store::open_with(work.path("replay-store"), StoreConfig::default())
        .map_err(|e| format!("opening the replay store: {e}"))?;
    let stride = cells.len().div_ceil(sample.max(1)).max(1);
    let rcfg = RequestConfig::default();
    for (i, c) in cells.iter().enumerate() {
        l.enter(format!(
            "{}|{}|request",
            c.req.name,
            model_slug(Some(c.req.model))
        ));
        let json = request_to_json(&c.req);
        let parsed = l.time("core.service.parse", || parse_request(&json));
        out.check(parsed.as_ref() == Ok(&c.req), || {
            format!("{}: request did not round-trip the codec", c.req.name)
        });
        let fp = request_fingerprint(&c.req, pipe, rcfg.degrade);
        let mut stats = c.stats.clone();
        if i % stride == 0 {
            let answer = l.time("core.request.compute", || run_request(&c.req, pipe, &rcfg));
            match answer {
                Ok((s, _)) => {
                    out.check(s == c.stats, || {
                        format!("{}: run_request differs from the mirrored cell", c.req.name)
                    });
                    stats = s;
                }
                Err(e) => out.check(false, || format!("{}: run_request failed: {e}", c.req.name)),
            }
        }
        let entry = JournalEntry {
            fingerprint: &fp,
            workload: &c.req.name,
            experiment: "service-degrade",
            model: Some(c.req.model),
            stats: &stats,
        };
        let put = l.time("core.store.put", || store.put(&entry));
        // Identical cells (the same source under the same machine) share
        // a fingerprint and come back as duplicates.
        out.check(
            matches!(put, Ok(RecordOutcome::Appended | RecordOutcome::Duplicate)),
            || format!("{}: store put returned {put:?}", c.req.name),
        );
        let got = l.time("core.store.get", || store.get(&fp));
        out.check(got.as_ref() == Some(&stats), || {
            format!("{}: store get did not return the put stats", c.req.name)
        });
        let resp = CellResponse::served(CellStatus::Computed, fp, stats, false);
        let body = l.time("core.service.encode", || response_to_json(&resp));
        out.check(parse_response(&body).as_ref() == Ok(&resp), || {
            format!("{}: response did not round-trip the codec", c.req.name)
        });
    }
    Ok(())
}

/// Per-mini `finish` on the Fig. 8 machine, for workloads whose own
/// programs are not the minis.
fn minis_probe(out: &mut Outcome) -> BTreeMap<&'static str, f64> {
    let set = CellSet {
        programs: hyperpred::workloads::all(hyperpred::workloads::Scale::Full),
        exps: vec![Experiment::fig8()],
        pipe: Pipeline::default(),
        degrade: false,
        request_sample: 0,
        minis: true,
    };
    let mut l = Layers::new();
    let mut totals = MirrorTotals::default();
    let mut ignored = Vec::new();
    mirror(
        &mut l,
        &set,
        &|_, _, _| None,
        false,
        out,
        &mut totals,
        &mut ignored,
    );
    totals.finish_fig8
}

pub fn run(set: &CellSet, args: &Args, work: &WorkDir) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let threads = crate::paper::THREADS;

    // 1. The engine, untraced: its counters and the reference results.
    let t = Instant::now();
    let engine = run_matrix_configured(
        &set.exps,
        &set.programs,
        &set.pipe,
        &MatrixConfig {
            threads,
            policy: FailurePolicy::KeepGoing,
            ..MatrixConfig::default()
        },
    );
    let engine_wall = t.elapsed().as_secs_f64();
    for f in &engine.report.failures {
        out.check(false, || format!("engine cell failed: {f}"));
    }
    let cell_work: f64 = engine
        .stats
        .cells
        .iter()
        .map(|c| c.wall.as_secs_f64())
        .sum();
    let expected = |w: usize, e: Option<usize>, m: Model| -> Option<SimStats> {
        let row = &engine.outcomes[e.unwrap_or(0)];
        let r = row.get(w)?.ok()?;
        Some(match e {
            None => r.base.clone(),
            Some(_) => r.models[m.index()].clone(),
        })
    };
    let rows: Vec<Vec<Option<&hyperpred::BenchResult>>> = engine
        .outcomes
        .iter()
        .map(|row| row.iter().map(|o| o.ok()).collect())
        .collect();
    if set.minis {
        crate::paper::check_golden(&mut out, &crate::paper::dump(&set.exps, &rows));
    }

    // 2. The stage mirror.
    let mut l = Layers::new();
    let mut totals = MirrorTotals::default();
    let mut replayed = Vec::new();
    mirror(
        &mut l,
        set,
        &expected,
        true,
        &mut out,
        &mut totals,
        &mut replayed,
    );
    let finish_fig8 = if set.minis {
        std::mem::take(&mut totals.finish_fig8)
    } else {
        minis_probe(&mut out)
    };

    // 3. The service, store and request path.
    service_replay(
        &mut l,
        &replayed,
        &set.pipe,
        set.request_sample,
        work,
        &mut out,
    )?;

    // Daemon counters come from a short live session on serve-mixed only.
    let daemon = if args.workload == "serve-mixed" {
        Some(crate::serve::session(
            args.seed,
            std::time::Duration::from_secs(3),
            work,
        )?)
    } else {
        None
    };
    if let Some(s) = &daemon {
        out.attempted += s.attempted;
        out.failed += s.failed;
    }

    l.write_spans(&work.kept(&format!("{}-{}.jsonl", args.workload, args.seed)));

    let overhead = totals.work_s / cell_work - 1.0;
    eprintln!(
        "trace: engine {engine_wall:.3} s wall, {cell_work:.3} s cell work; stage mirror \
         {:.3} s of the same work; tracing overhead {:+.1}%",
        totals.work_s,
        overhead * 100.0
    );
    let mut metric = |name: &str, v: f64, unit: &'static str| out.metric(name, v, unit);
    metric("core.matrix.cell_work_s", cell_work, "s");
    metric(
        "core.matrix.packing",
        cell_work / (engine_wall * threads as f64),
        "ratio",
    );
    metric(
        "core.matrix.compile_cache_hits",
        engine.stats.compile_hits as f64,
        "count",
    );
    metric(
        "core.matrix.front_memo_reused",
        engine.stats.front_reuses as f64,
        "count",
    );
    metric(
        "speedup.condmove",
        crate::paper::speedup(&rows, Model::CondMove),
        "x",
    );
    metric(
        "speedup.fullpred",
        crate::paper::speedup(&rows, Model::FullPred),
        "x",
    );
    metric("pipeline.front_s", l.total("pipeline.front"), "s");
    metric("pipeline.finish_s", l.total("pipeline.finish"), "s");
    for w in hyperpred::workloads::all(hyperpred::workloads::Scale::Test) {
        metric(
            &format!("pipeline.finish_s.{}", w.name),
            finish_fig8.get(w.name).copied().unwrap_or(0.0),
            "s",
        );
    }
    for m in Model::ALL {
        metric(
            &format!("pipeline.static_insts.{}", model_slug(Some(m))),
            totals.static_insts[m.index()] as f64,
            "count",
        );
    }
    for (name, layer) in [
        ("lang.frontend_s", "lang.frontend"),
        ("opt.inline_s", "opt.inline"),
        ("opt.pre_s", "opt.pre"),
        ("opt.post_s", "opt.post"),
        ("hyperblock.ifconvert_s", "hyperblock.ifconvert"),
        ("hyperblock.promote_s", "hyperblock.promote"),
        ("hyperblock.superblock_s", "hyperblock.superblock"),
        ("hyperblock.unroll_s", "hyperblock.unroll"),
        ("partial.convert_s", "partial.convert"),
        ("sched.schedule_s", "sched.schedule"),
        ("ir.check_s", "ir.check"),
        ("emu.profile_s", "emu.profile"),
        ("emu.decode_s", "emu.decode"),
        ("emu.emulate_s", "emu.emulate"),
        ("emu.reference_s", "emu.reference"),
        ("sim.simulate_s", "sim.simulate"),
    ] {
        metric(name, l.total(layer), "s");
    }
    metric("emu.insts", totals.emu_insts as f64, "count");
    metric(
        "emu.insts_per_s",
        totals.emu_insts as f64 / l.total("emu.emulate"),
        "1/s",
    );
    metric("sim.cycles", totals.sim_cycles as f64, "count");
    metric(
        "sim.cycles_per_s",
        totals.sim_cycles as f64 / l.total("sim.simulate"),
        "1/s",
    );
    metric(
        "core.service.parse_us",
        l.per_call("core.service.parse") * 1e6,
        "us",
    );
    metric(
        "core.service.encode_us",
        l.per_call("core.service.encode") * 1e6,
        "us",
    );
    metric(
        "core.store.get_us",
        l.per_call("core.store.get") * 1e6,
        "us",
    );
    metric(
        "core.store.put_us",
        l.per_call("core.store.put") * 1e6,
        "us",
    );
    metric(
        "core.request.compute_ms",
        l.per_call("core.request.compute") * 1e3,
        "ms",
    );
    let d = daemon.unwrap_or_default();
    metric("daemon.hits", d.server_hits as f64, "count");
    metric("daemon.computed", d.server_computed as f64, "count");
    metric("daemon.rejected", d.server_rejected as f64, "count");
    metric("daemon.failed", d.server_failed as f64, "count");
    metric("core.client.retries", d.retries as f64, "count");
    metric("serve.hit_ratio", d.hit_ratio(), "ratio");
    metric("trace.overhead", overhead, "ratio");
    Ok(out)
}
