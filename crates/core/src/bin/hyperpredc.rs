//! `hyperpredc` — command-line driver: compile a MiniC file under any of
//! the paper's three models and run/simulate/dump it.
//!
//! ```text
//! hyperpredc run  prog.c --model full --issue 8 --branches 1 [--args 1,2,3]
//! hyperpredc sim  prog.c --model all  --issue 8 --caches
//! hyperpredc dump prog.c --model cmov
//! hyperpredc report [--threads N] [--scale test|full] [--verbose] [--keep-going]
//!                   [--resume DIR] [--retries N] [--triage DIR]
//! hyperpredc repro <bundle-dir> [--minimize]
//! hyperpredc lint <workload|all|file.c> [--model all] [--sabotage ifconvert]
//! hyperpredc analyze <workload|all|file.c> [--model full] [--scale test|full]
//!                    [--check] [--issue K] [--branches B] [--args a,b,c]
//! hyperpredc soak --seed 1 --cells 500 [--resume DIR] [--triage DIR]
//!                 [--profiles branchy,nasty] [--widths 1x1,4x1,8x2]
//!                 [--max-cells N] [--sabotage promote]
//! ```
//!
//! `report` regenerates the paper's whole figure matrix (Figures 8-11 and
//! Tables 2-3) through the parallel experiment engine, printing per-run
//! cache and wall-time counters. With `--keep-going` the engine contains
//! per-cell failures: the tables render every healthy cell, a failure
//! summary goes to stderr, and the exit code is nonzero iff any cell
//! failed. `--resume` records every completed cell in (and reuses
//! already-recorded cells from) a result-store directory, so a killed
//! run resumes where it left off; `--retries` re-runs transient failures;
//! `--triage` writes a repro bundle per permanent failure. Each of these
//! implies `--keep-going`.
//!
//! `repro` replays a triage bundle: exit 1 when the recorded failure
//! reproduces with the same signature, 0 when the cell now passes, 3 when
//! it fails differently. `--minimize` additionally delta-debugs the
//! source and writes `minimized.c` into the bundle.
//!
//! `lint` compiles with the semantic checkpoint runner forced on: after
//! every pass the IR is re-verified against the dataflow checkers
//! (def-before-use, predicate well-formedness, speculation safety, model
//! conformance), and the first offending pass is named. Exit status is
//! nonzero iff any target fails. `--sabotage <pass>` deliberately
//! corrupts the IR after the named pass — a self-test that the
//! checkpoints catch miscompiles and blame the right stage.
//!
//! `analyze` compiles each target and dumps the predicate partition
//! graph the relation analysis derives for it: per block, which
//! predicates are provably disjoint, nested (subset), known-true/false,
//! and which pairs partition their parent (Table 1 dual defines). With
//! `--check` it validates every built graph with the relation-soundness
//! checker family instead of printing — a CI canary that the analysis
//! stays closed over every workload. Exit status is nonzero iff a
//! compile or a check fails.
//!
//! `soak` generates seeded adversarial MiniC programs and runs each one
//! through the full cross-model differential oracle battery (see
//! [`hyperpred::soak`]): decoded-vs-reference emulation, cross-model
//! return values and store streams, simulator/trace consistency, and
//! per-pass lint checkpoints. `--resume DIR` records completed programs so
//! a killed soak picks up where it left off; `--triage` writes a
//! minimized repro bundle per failure; `--sabotage <pass>` is the
//! self-test hook that proves the oracles catch a miscompile. Exit
//! status is nonzero iff any program failed or the run was cut short by
//! `--max-cells`.

use hyperpred::emu::{Emulator, NullSink};
use hyperpred::lang::lower::entry_args;
use hyperpred::sched::MachineConfig;
use hyperpred::sim::{CacheConfig, MemoryModel, SimConfig};
use hyperpred::workloads::Scale;
use hyperpred::{
    branch_table, fsck, instruction_table, run_matrix_configured, speedup_table, summarize_run,
    BenchResult, Experiment, FailurePolicy, FsckOptions, MatrixConfig, RetryPolicy, Store,
    TriageConfig,
};
use hyperpred::{evaluate, speedup, Model, Pipeline, PipelineError, Stage};
use std::process::ExitCode;
use std::time::Duration;

struct Options {
    command: String,
    file: String,
    models: Vec<Model>,
    issue: u32,
    branches: u32,
    caches: bool,
    args: Vec<i64>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: hyperpredc <run|sim|dump> <file.c> \
         [--model sup|cmov|full|all] [--issue K] [--branches B] [--caches] [--args a,b,c]\n\
         \x20      hyperpredc report [--threads N] [--scale test|full] [--verbose] [--keep-going] \
         [--resume DIR] [--retries N] [--triage DIR]\n\
         \x20      hyperpredc repro <bundle-dir> [--minimize]\n\
         \x20      hyperpredc lint <workload|all|file.c> [--model sup|cmov|full|all] \
         [--scale test|full] [--sabotage <pass>] [--issue K] [--branches B] [--args a,b,c]\n\
         \x20      hyperpredc analyze <workload|all|file.c> [--model sup|cmov|full|all] \
         [--scale test|full] [--check] [--issue K] [--branches B] [--args a,b,c]\n\
         \x20      hyperpredc soak --seed S --cells N [--resume DIR] [--triage DIR] \
         [--profiles p,q] [--widths IxB,...] [--max-cells N] [--sabotage <pass>] \
         [--max-cycles N] [--fuel N]\n\
         \x20      hyperpredc bench-load [--addr HOST:PORT] [--cells N] [--batch N] \
         [--seed S] [--issue K] [--branches B] [--passes N] [--attempts N]\n\
         \x20      hyperpredc fsck <store-dir> [--repair] [--compact] [--stale-secs N]"
    );
    ExitCode::from(2)
}

/// Compiles each target with per-pass semantic checkpoints forced on and
/// reports every violation with the offending pass named.
fn lint(mut args: impl Iterator<Item = String>) -> ExitCode {
    let Some(target) = args.next().filter(|t| !t.starts_with("--")) else {
        return usage();
    };
    let mut models = Model::ALL.to_vec();
    let mut scale = Scale::Test;
    let mut sabotage = None;
    let mut issue = 8;
    let mut branches = 1;
    let mut prog_args: Vec<i64> = Vec::new();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--model" => {
                models = match args.next().as_deref() {
                    Some("sup" | "superblock") => vec![Model::Superblock],
                    Some("cmov" | "partial") => vec![Model::CondMove],
                    Some("full") => vec![Model::FullPred],
                    Some("all") => Model::ALL.to_vec(),
                    _ => return usage(),
                };
            }
            "--scale" => {
                scale = match args.next().as_deref() {
                    Some("test") => Scale::Test,
                    Some("full") => Scale::Full,
                    _ => return usage(),
                };
            }
            "--sabotage" => {
                let Some(s) = args.next().and_then(|v| v.parse::<Stage>().ok()) else {
                    return usage();
                };
                sabotage = Some(s);
            }
            "--issue" => {
                let Some(n) = args.next().and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                issue = n;
            }
            "--branches" => {
                let Some(n) = args.next().and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                branches = n;
            }
            "--args" => {
                let Some(v) = args.next() else { return usage() };
                let Ok(parsed) = v
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::parse)
                    .collect::<Result<Vec<i64>, _>>()
                else {
                    return usage();
                };
                prog_args = parsed;
            }
            _ => return usage(),
        }
    }
    // A target is a known workload name, `all` of them, or a source file.
    let targets: Vec<(String, String, Vec<i64>)> = if target == "all" {
        hyperpred::workloads::all(scale)
            .into_iter()
            .map(|w| (w.name.to_string(), w.source, w.args))
            .collect()
    } else if let Some(w) = hyperpred::workloads::by_name(&target, scale) {
        vec![(w.name.to_string(), w.source, w.args)]
    } else {
        match std::fs::read_to_string(&target) {
            Ok(source) => vec![(target.clone(), source, prog_args.clone())],
            Err(e) => {
                eprintln!("hyperpredc: `{target}` is neither a workload nor a readable file: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let pipe = Pipeline {
        checks: true,
        sabotage,
        ..Pipeline::default()
    };
    let machine = MachineConfig::new(issue, branches);
    let mut failed = 0usize;
    for (name, source, wargs) in &targets {
        for model in &models {
            match pipe.compile(source, wargs, *model, &machine) {
                Ok(_) => println!("{name} [{model}]: ok"),
                Err(PipelineError::Lint(e)) => {
                    failed += 1;
                    println!(
                        "{name} [{model}]: FAIL after pass `{}` ({} violations)",
                        e.pass,
                        e.violations.len()
                    );
                    for v in &e.violations {
                        println!("  {v}");
                    }
                }
                Err(e) => {
                    failed += 1;
                    println!("{name} [{model}]: FAIL ({e})");
                }
            }
        }
    }
    if failed > 0 {
        eprintln!(
            "hyperpredc: {failed}/{} lint targets failed",
            targets.len() * models.len()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Compiles each target and dumps (or, with `--check`, validates) the
/// predicate partition graph the relation analysis derives for it.
fn analyze(mut args: impl Iterator<Item = String>) -> ExitCode {
    use hyperpred::ir::analysis::relations::TOP;
    use hyperpred::ir::analysis::{check_relation_soundness, ForwardAnalysis};
    use hyperpred::ir::{Cfg, PredReg, RelAnalysis, RelState, RelationDb};

    let Some(target) = args.next().filter(|t| !t.starts_with("--")) else {
        return usage();
    };
    let mut models = vec![Model::FullPred];
    let mut scale = Scale::Test;
    let mut check = false;
    let mut issue = 8;
    let mut branches = 1;
    let mut prog_args: Vec<i64> = Vec::new();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--model" => {
                models = match args.next().as_deref() {
                    Some("sup" | "superblock") => vec![Model::Superblock],
                    Some("cmov" | "partial") => vec![Model::CondMove],
                    Some("full") => vec![Model::FullPred],
                    Some("all") => Model::ALL.to_vec(),
                    _ => return usage(),
                };
            }
            "--scale" => {
                scale = match args.next().as_deref() {
                    Some("test") => Scale::Test,
                    Some("full") => Scale::Full,
                    _ => return usage(),
                };
            }
            "--check" => check = true,
            "--issue" => {
                let Some(n) = args.next().and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                issue = n;
            }
            "--branches" => {
                let Some(n) = args.next().and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                branches = n;
            }
            "--args" => {
                let Some(v) = args.next() else { return usage() };
                let Ok(parsed) = v
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::parse)
                    .collect::<Result<Vec<i64>, _>>()
                else {
                    return usage();
                };
                prog_args = parsed;
            }
            _ => return usage(),
        }
    }
    let targets: Vec<(String, String, Vec<i64>)> = if target == "all" {
        hyperpred::workloads::all(scale)
            .into_iter()
            .map(|w| (w.name.to_string(), w.source, w.args))
            .collect()
    } else if let Some(w) = hyperpred::workloads::by_name(&target, scale) {
        vec![(w.name.to_string(), w.source, w.args)]
    } else {
        match std::fs::read_to_string(&target) {
            Ok(source) => vec![(target.clone(), source, prog_args.clone())],
            Err(e) => {
                eprintln!("hyperpredc: `{target}` is neither a workload nor a readable file: {e}");
                return ExitCode::FAILURE;
            }
        }
    };

    /// One line of facts for a non-vacuous relation state.
    fn fmt_state(s: &RelState) -> String {
        let mut parts: Vec<String> = Vec::new();
        let np = s.pred_count();
        for i in 0..np {
            let p = PredReg(i as u32);
            for q in s.disjoint_of(p) {
                if p.0 < q.0 {
                    parts.push(format!("{p} ⟂ {q}"));
                }
            }
            for q in s.subset_of(p) {
                parts.push(format!("{p} ⊆ {q}"));
            }
            if s.known_true(p) {
                parts.push(format!("{p} = 1"));
            }
            if s.known_false(p) {
                parts.push(format!("{p} = 0"));
            }
        }
        for &[a, b, t] in s.partitions() {
            let rhs = if t == TOP {
                "⊤".to_string()
            } else {
                PredReg(t).to_string()
            };
            parts.push(format!("p{a} ∨ p{b} ⊇ {rhs}"));
        }
        parts.join(", ")
    }

    let pipe = Pipeline::default();
    let machine = MachineConfig::new(issue, branches);
    let mut failed = 0usize;
    for (name, source, wargs) in &targets {
        for model in &models {
            let module = match pipe.compile(source, wargs, *model, &machine) {
                Ok(m) => m,
                Err(e) => {
                    failed += 1;
                    println!("{name} [{model}]: FAIL ({e})");
                    continue;
                }
            };
            let mut violations = Vec::new();
            let mut printed = 0usize;
            for f in &module.funcs {
                let cfg = Cfg::new(f);
                let db = RelationDb::build(f, &cfg);
                if check {
                    check_relation_soundness(f, &db, &mut violations);
                    continue;
                }
                // The graph at block entry, plus the state in force at
                // block exit (where dual-define partitions and nesting
                // facts derived inside a hyperblock are visible).
                let mut facts: Vec<String> = Vec::new();
                for (b, s) in db.entry.iter().enumerate() {
                    let Some(s) = s else { continue };
                    if !s.is_vacuous() {
                        facts.push(format!("  B{b} entry: {}", fmt_state(s)));
                    }
                    let mut exit = s.clone();
                    for inst in &f.blocks[b].insts {
                        RelAnalysis.transfer(inst, &mut exit);
                        if inst.ends_block() {
                            break;
                        }
                    }
                    if !exit.is_vacuous() && exit != *s {
                        facts.push(format!("  B{b} exit:  {}", fmt_state(&exit)));
                    }
                }
                if facts.is_empty() {
                    continue;
                }
                println!("{name} [{model}] {}:", f.name);
                for line in facts {
                    println!("{line}");
                    printed += 1;
                }
            }
            if check {
                if violations.is_empty() {
                    println!("{name} [{model}]: ok");
                } else {
                    failed += 1;
                    println!("{name} [{model}]: FAIL ({} violations)", violations.len());
                    for v in &violations {
                        println!("  {v}");
                    }
                }
            } else if printed == 0 {
                println!("{name} [{model}]: no predicate relations (unpredicated code)");
            }
        }
    }
    if failed > 0 {
        eprintln!(
            "hyperpredc: {failed}/{} analyze targets failed",
            targets.len() * models.len()
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Runs the paper's full experiment matrix through the parallel engine.
fn report(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut threads = 0usize;
    let mut scale = Scale::Full;
    let mut verbose = false;
    let mut keep_going = false;
    let mut resume: Option<String> = None;
    let mut retries = 1u32;
    let mut triage_dir: Option<String> = None;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--threads" => {
                let Some(n) = args.next().and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                threads = n;
            }
            "--scale" => {
                scale = match args.next().as_deref() {
                    Some("test") => Scale::Test,
                    Some("full") => Scale::Full,
                    _ => return usage(),
                };
            }
            "--verbose" => verbose = true,
            "--keep-going" => keep_going = true,
            "--resume" => {
                let Some(p) = args.next() else { return usage() };
                resume = Some(p);
            }
            "--retries" => {
                let Some(n) = args.next().and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                retries = n;
            }
            "--triage" => {
                let Some(d) = args.next() else { return usage() };
                triage_dir = Some(d);
            }
            _ => return usage(),
        }
    }
    // The durability flags only make sense when partial progress is kept.
    if resume.is_some() || triage_dir.is_some() || retries > 1 {
        keep_going = true;
    }
    let exps = [
        Experiment::fig8(),
        Experiment::fig9(),
        Experiment::fig10(),
        Experiment::fig11(),
    ];
    let journal = match resume.as_ref().map(Store::open).transpose() {
        Ok(j) => j,
        Err(e) => {
            eprintln!("hyperpredc: cannot open resume store: {e}");
            return ExitCode::FAILURE;
        }
    };
    let triage = triage_dir.map(TriageConfig::new);
    let workloads = hyperpred::workloads::all(scale);
    let run = run_matrix_configured(
        &exps,
        &workloads,
        &Pipeline::default(),
        &MatrixConfig {
            threads,
            policy: if keep_going {
                FailurePolicy::KeepGoing
            } else {
                FailurePolicy::FailFast
            },
            retry: RetryPolicy {
                max_attempts: retries.max(1),
                backoff: Duration::from_millis(50),
            },
            journal: journal.as_ref(),
            triage: triage.as_ref(),
            ..MatrixConfig::default()
        },
    );
    if let Some(Err(e)) = journal.as_ref().map(Store::sync) {
        eprintln!("hyperpredc: resume store sync failed: {e}");
    }
    let figures: Vec<Vec<BenchResult>> = run
        .outcomes
        .iter()
        .map(|row| row.iter().filter_map(|o| o.ok().cloned()).collect())
        .collect();
    for (exp, results) in exps.iter().zip(&figures) {
        println!("{}", speedup_table(exp, results));
    }
    println!("{}", instruction_table(&figures[0]));
    println!("{}", branch_table(&figures[0]));
    let summary = summarize_run(&run);
    eprintln!("{}", summary.text);
    if verbose {
        for cell in &run.stats.cells {
            eprintln!("  {cell}");
        }
    }
    if summary.failed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Replays a triage bundle and compares failure signatures.
///
/// Exit codes: 1 = the recorded failure reproduced (same signature),
/// 0 = the cell now passes, 3 = it failed with a *different* signature,
/// 2 = the bundle could not be loaded.
fn repro(mut args: impl Iterator<Item = String>) -> ExitCode {
    let Some(dir) = args.next().filter(|d| !d.starts_with("--")) else {
        return usage();
    };
    let mut minimize = false;
    for flag in args {
        match flag.as_str() {
            "--minimize" => minimize = true,
            _ => return usage(),
        }
    }
    // Exit 2 like other bad-input paths: 1 would read as "reproduced".
    let bundle = match hyperpred::load_bundle(&dir) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("hyperpredc: {e}");
            return ExitCode::from(2);
        }
    };
    println!(
        "bundle: {} / {} / {} ({} stage, {} attempt(s))",
        bundle.cell.workload,
        bundle.cell.experiment,
        hyperpred::journal::model_slug(bundle.cell.model),
        bundle.cell.stage,
        bundle.cell.attempts,
    );
    println!("recorded signature: {}", bundle.cell.signature);
    let outcome = match hyperpred::triage::replay(&bundle.cell, &bundle.source) {
        Some(sig) if sig == bundle.cell.signature => {
            println!("reproduced: {sig}");
            ExitCode::from(1)
        }
        Some(sig) => {
            println!("different failure: {sig}");
            ExitCode::from(3)
        }
        None => {
            println!("cell now passes; recorded failure did not reproduce");
            ExitCode::SUCCESS
        }
    };
    if minimize {
        if !hyperpred::triage::minimizable(&bundle.cell.signature) {
            println!("minimizer: budget failures are not minimized");
        } else {
            match hyperpred::minimize_source(&bundle.cell, &bundle.source) {
                Some(min) => {
                    let path = bundle.dir.join("minimized.c");
                    match std::fs::write(&path, &min.source) {
                        Ok(()) => println!(
                            "minimized: {} -> {} source lines ({})",
                            min.original_lines,
                            min.minimized_lines,
                            path.display()
                        ),
                        Err(e) => eprintln!("hyperpredc: cannot write {}: {e}", path.display()),
                    }
                }
                None => println!("minimizer: failure does not reproduce, nothing to shrink"),
            }
        }
    }
    outcome
}

/// Runs the adversarial generated-workload soak battery.
///
/// Exit codes: 0 = every program passed the oracle battery, 1 = at
/// least one failure (or the run stopped early at `--max-cells`),
/// 2 = bad arguments or an unopenable journal.
fn soak(mut args: impl Iterator<Item = String>) -> ExitCode {
    let mut cfg = hyperpred::SoakConfig::new(0, 100);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--seed" => {
                let Some(n) = args.next().and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                cfg.seed = n;
            }
            "--cells" => {
                let Some(n) = args.next().and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                cfg.cells = n;
            }
            "--resume" => {
                let Some(p) = args.next() else { return usage() };
                cfg.journal = Some(p.into());
            }
            "--triage" => {
                let Some(d) = args.next() else { return usage() };
                cfg.triage = Some(hyperpred::TriageConfig::new(d));
            }
            "--profiles" => {
                let Some(v) = args.next() else { return usage() };
                let Some(parsed) = v
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(hyperpred::workloads::gen::Profile::from_name)
                    .collect::<Option<Vec<_>>>()
                else {
                    eprintln!(
                        "hyperpredc: unknown profile in `{v}` (known: {})",
                        hyperpred::workloads::gen::Profile::ALL
                            .map(|p| p.name())
                            .join(", ")
                    );
                    return usage();
                };
                cfg.profiles = parsed;
            }
            "--widths" => {
                let Some(v) = args.next() else { return usage() };
                let Some(parsed) = v
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|pair| {
                        let (i, b) = pair.split_once('x')?;
                        Some((
                            i.parse().ok().filter(|&n| n >= 1)?,
                            b.parse().ok().filter(|&n| n >= 1)?,
                        ))
                    })
                    .collect::<Option<Vec<(u32, u32)>>>()
                else {
                    eprintln!(
                        "hyperpredc: --widths wants comma-separated IxB pairs, e.g. 1x1,4x1,8x2"
                    );
                    return usage();
                };
                cfg.widths = parsed;
            }
            "--max-cells" => {
                let Some(n) = args.next().and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                cfg.cell_limit = Some(n);
            }
            "--sabotage" => {
                let Some(s) = args.next().and_then(|v| v.parse::<Stage>().ok()) else {
                    return usage();
                };
                cfg.sabotage = Some(s);
            }
            "--max-cycles" => {
                let Some(n) = args.next().and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                cfg.max_cycles = n;
            }
            "--fuel" => {
                let Some(n) = args.next().and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                cfg.fuel = n;
            }
            _ => return usage(),
        }
    }
    let report = match hyperpred::run_soak(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("hyperpredc: soak: {e}");
            return ExitCode::from(2);
        }
    };
    if report.journal_corrupt > 0 {
        eprintln!(
            "hyperpredc: warning: skipped {} corrupt journal record(s)",
            report.journal_corrupt
        );
    }
    for f in &report.failures {
        match &f.bundle {
            Some(dir) => eprintln!(
                "FAIL {} ({}): {} [bundle: {}]",
                f.workload,
                f.profile,
                f.signature,
                dir.display()
            ),
            None => eprintln!("FAIL {} ({}): {}", f.workload, f.profile, f.signature),
        }
    }
    println!(
        "soak: {} program(s) requested, {} ran, {} journaled-skipped, {} degraded, {} failed{}",
        report.programs,
        report.ran,
        report.skipped,
        report.degraded,
        report.failures.len(),
        if report.interrupted {
            " (interrupted at --max-cells)"
        } else {
            ""
        }
    );
    if report.ok() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Drives a running `hyperpredd` with seeded generated cells and
/// reports sustained throughput and cache hit rate per pass.
///
/// Later passes replay the identical request stream, so a healthy
/// daemon answers them entirely from the store with bit-identical
/// stats; any divergence is reported and fails the run.
///
/// Exit codes: 0 = every pass completed and repeats were bit-identical,
/// 1 = failed cells or non-reproducible repeat results, 2 = bad
/// arguments or an unreachable daemon.
fn bench_load(mut args: impl Iterator<Item = String>) -> ExitCode {
    use hyperpred::service::{load_requests, run_load, LoadConfig};
    let mut cfg = LoadConfig::default();
    let mut passes = 2usize;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--addr" => {
                let Some(a) = args.next() else { return usage() };
                cfg.addr = a;
            }
            "--cells" => {
                let Some(n) = args.next().and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                cfg.cells = n;
            }
            "--batch" => {
                let Some(n) = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n >= 1)
                else {
                    return usage();
                };
                cfg.batch = n;
            }
            "--seed" => {
                let Some(n) = args.next().and_then(|v| v.parse().ok()) else {
                    return usage();
                };
                cfg.seed = n;
            }
            "--issue" => {
                let Some(n) = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &u32| n >= 1)
                else {
                    return usage();
                };
                cfg.issue = n;
            }
            "--branches" => {
                let Some(n) = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &u32| n >= 1)
                else {
                    return usage();
                };
                cfg.branches = n;
            }
            "--passes" => {
                let Some(n) = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &usize| n >= 1)
                else {
                    return usage();
                };
                passes = n;
            }
            "--attempts" => {
                let Some(n) = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&n: &u32| n >= 1)
                else {
                    return usage();
                };
                cfg.attempts = n;
            }
            _ => return usage(),
        }
    }
    let reqs = load_requests(&cfg);
    let mut ok = true;
    let mut first_pass: Option<Vec<_>> = None;
    for pass in 1..=passes {
        let (report, responses) = match run_load(&cfg, &reqs) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("hyperpredc: bench-load: {e}");
                return ExitCode::from(2);
            }
        };
        println!("pass {pass}: {report}");
        if report.failed > 0 || report.conflicts > 0 {
            ok = false;
        }
        match &first_pass {
            None => first_pass = Some(responses),
            Some(first) => {
                // The request stream is deterministic, so a repeat pass
                // must reproduce the first pass bit-for-bit (fingerprint
                // and stats; Hit-vs-Computed status may differ) and be
                // served from the store.
                let mut mismatches = 0usize;
                for (a, b) in first.iter().zip(&responses) {
                    if a.fingerprint != b.fingerprint || a.stats != b.stats {
                        mismatches += 1;
                    }
                }
                if mismatches > 0 {
                    eprintln!(
                        "hyperpredc: bench-load: pass {pass} diverged from pass 1 \
                         on {mismatches}/{} cells",
                        first.len()
                    );
                    ok = false;
                }
                if report.hits + report.rejected < report.sent {
                    eprintln!(
                        "hyperpredc: bench-load: pass {pass} recomputed {} cell(s) \
                         that should have been store hits",
                        report.computed + report.failed + report.conflicts
                    );
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Scans a result-store directory for damage — torn tails, checksum
/// failures, stale compaction locks, orphan temp files — and with
/// `--repair` fixes what can be fixed (corrupt lines are quarantined,
/// never deleted). Exit status: 0 clean, 1 findings, 2 I/O failure.
fn fsck_cmd(mut args: impl Iterator<Item = String>) -> ExitCode {
    let Some(dir) = args.next().filter(|t| !t.starts_with("--")) else {
        return usage();
    };
    let mut opts = FsckOptions::default();
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--repair" => opts.repair = true,
            "--compact" => {
                opts.repair = true;
                opts.compact = true;
            }
            "--stale-secs" => {
                let Some(secs) = args.next().and_then(|v| v.parse::<u64>().ok()) else {
                    return usage();
                };
                opts.lock_stale_after = Duration::from_secs(secs);
            }
            _ => return usage(),
        }
    }
    match fsck(&dir, &opts) {
        Ok(report) => {
            println!("fsck {dir}:");
            print!("{report}");
            if report.clean() {
                ExitCode::SUCCESS
            } else {
                // Findings — repaired or not — exit 1 so scripts notice
                // the store needed attention.
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("hyperpredc: fsck {dir}: {e}");
            ExitCode::from(2)
        }
    }
}

fn parse_args() -> Result<Options, ExitCode> {
    let mut it = std::env::args().skip(1);
    let command = it.next().ok_or_else(usage)?;
    let file = it.next().ok_or_else(usage)?;
    let mut opts = Options {
        command,
        file,
        models: vec![Model::FullPred],
        issue: 8,
        branches: 1,
        caches: false,
        args: Vec::new(),
    };
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--model" => {
                let v = it.next().ok_or_else(usage)?;
                opts.models = match v.as_str() {
                    "sup" | "superblock" => vec![Model::Superblock],
                    "cmov" | "partial" => vec![Model::CondMove],
                    "full" => vec![Model::FullPred],
                    "all" => Model::ALL.to_vec(),
                    _ => return Err(usage()),
                };
            }
            "--issue" => {
                opts.issue = it.next().ok_or_else(usage)?.parse().map_err(|_| usage())?;
            }
            "--branches" => {
                opts.branches = it.next().ok_or_else(usage)?.parse().map_err(|_| usage())?;
            }
            "--caches" => opts.caches = true,
            "--args" => {
                let v = it.next().ok_or_else(usage)?;
                opts.args = v
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.parse().map_err(|_| usage()))
                    .collect::<Result<_, _>>()?;
            }
            _ => return Err(usage()),
        }
    }
    Ok(opts)
}

fn main() -> ExitCode {
    {
        // `report` and `lint` take workload names rather than an input
        // file; dispatch them before the file-oriented argument parser.
        let mut it = std::env::args().skip(1);
        match it.next().as_deref() {
            Some("report") => return report(it),
            Some("repro") => return repro(it),
            Some("lint") => return lint(it),
            Some("analyze") => return analyze(it),
            Some("soak") => return soak(it),
            Some("bench-load") => return bench_load(it),
            Some("fsck") => return fsck_cmd(it),
            _ => {}
        }
    }
    let opts = match parse_args() {
        Ok(o) => o,
        Err(c) => return c,
    };
    let source = match std::fs::read_to_string(&opts.file) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("hyperpredc: cannot read {}: {e}", opts.file);
            return ExitCode::FAILURE;
        }
    };
    let pipe = Pipeline::default();
    let machine = MachineConfig::new(opts.issue, opts.branches);
    let sim = SimConfig {
        memory: if opts.caches {
            MemoryModel::Caches(CacheConfig::default())
        } else {
            MemoryModel::Perfect
        },
        ..SimConfig::default()
    };

    match opts.command.as_str() {
        "dump" => {
            for model in &opts.models {
                let m = match pipe.compile(&source, &opts.args, *model, &machine) {
                    Ok(m) => m,
                    Err(e) => {
                        eprintln!("hyperpredc: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                println!(
                    "==== {model} (scheduled for {}-issue, {}-branch) ====",
                    opts.issue, opts.branches
                );
                print!("{m}");
            }
            ExitCode::SUCCESS
        }
        "run" => {
            for model in &opts.models {
                let m = match pipe.compile(&source, &opts.args, *model, &machine) {
                    Ok(m) => m,
                    Err(e) => {
                        eprintln!("hyperpredc: {e}");
                        return ExitCode::FAILURE;
                    }
                };
                let mut emu = Emulator::new(&m);
                match emu.run("main", &entry_args(&opts.args), &mut NullSink) {
                    Ok(out) => println!(
                        "{model}: returned {} ({} instructions executed)",
                        out.ret, out.fetched
                    ),
                    Err(e) => {
                        eprintln!("hyperpredc: runtime error: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            ExitCode::SUCCESS
        }
        "sim" => {
            let base = match evaluate(
                &source,
                &opts.args,
                Model::Superblock,
                MachineConfig::one_issue(),
                sim,
                &pipe,
            ) {
                Ok(s) => s,
                Err(e) => {
                    eprintln!("hyperpredc: {e}");
                    return ExitCode::FAILURE;
                }
            };
            println!(
                "baseline (1-issue superblock): {} cycles, {} insts",
                base.cycles, base.insts
            );
            for model in &opts.models {
                match evaluate(&source, &opts.args, *model, machine, sim, &pipe) {
                    Ok(s) => println!(
                        "{model} @ {}-issue/{}-br: {} cycles, {} insts, {} branches, {} mispredicts, ipc {:.2}, speedup {:.2}",
                        opts.issue,
                        opts.branches,
                        s.cycles,
                        s.insts,
                        s.branches,
                        s.mispredicts,
                        s.ipc(),
                        speedup(&base, &s)
                    ),
                    Err(e) => {
                        eprintln!("hyperpredc: {e}");
                        return ExitCode::FAILURE;
                    }
                }
            }
            ExitCode::SUCCESS
        }
        _ => usage(),
    }
}
