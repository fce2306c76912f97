//! End-to-end coverage for the per-pass semantic checkpoints: every
//! workload/model combination must lint clean at every checkpoint, and a
//! deliberately injected miscompile must be caught with the offending
//! pass named.

use hyperpred::ir::analysis::CheckKind;
use hyperpred::sched::MachineConfig;
use hyperpred::workloads::{all, by_name, Scale};
use hyperpred::{Model, Pipeline, PipelineError, Stage};

fn checked_pipeline() -> Pipeline {
    Pipeline {
        checks: true,
        ..Pipeline::default()
    }
}

/// The acceptance sweep: all 15 workloads × 3 models compile with the
/// checkpoint runner active at every stage.
#[test]
fn all_workloads_lint_clean_under_every_model() {
    let pipe = checked_pipeline();
    let machine = MachineConfig::new(8, 1);
    for w in all(Scale::Test) {
        for model in Model::ALL {
            if let Err(e) = pipe.compile(&w.source, &w.args, model, &machine) {
                panic!("{} under {model} failed checkpoints: {e}", w.name);
            }
        }
    }
}

/// A corruption injected right after if-conversion is blamed on
/// if-conversion, not on whatever pass the pipeline ends with.
#[test]
fn sabotaged_ifconvert_is_blamed_by_name() {
    let pipe = Pipeline {
        sabotage: Some(Stage::IfConvert),
        ..checked_pipeline()
    };
    let machine = MachineConfig::new(8, 1);
    let w = &all(Scale::Test)[0];
    let err = pipe
        .compile(&w.source, &w.args, Model::FullPred, &machine)
        .expect_err("sabotaged compile must fail");
    let PipelineError::Lint(ref lint) = err else {
        panic!("expected a lint error, got {err}");
    };
    assert_eq!(lint.pass, Stage::IfConvert);
    assert!(
        lint.violations
            .iter()
            .any(|v| v.kind == CheckKind::UseBeforeDef),
        "never-defined guard should read as use-before-def: {:?}",
        lint.violations
    );
    let msg = err.to_string();
    assert!(msg.contains("after pass `ifconvert`"), "{msg}");
}

/// The same corruption after the frontend violates model conformance in
/// the superblock model (no predicates may exist at all).
#[test]
fn sabotaged_frontend_breaks_superblock_conformance() {
    let pipe = Pipeline {
        sabotage: Some(Stage::Frontend),
        ..checked_pipeline()
    };
    let machine = MachineConfig::new(8, 1);
    let w = &all(Scale::Test)[0];
    let err = pipe
        .compile(&w.source, &w.args, Model::Superblock, &machine)
        .expect_err("sabotaged compile must fail");
    let PipelineError::Lint(lint) = err else {
        panic!("expected a lint error, got {err}");
    };
    assert_eq!(lint.pass, Stage::Frontend);
    assert!(lint
        .violations
        .iter()
        .any(|v| v.kind == CheckKind::ModelConformance));
}

/// A corruption after partial conversion leaves a guard the cmov model
/// may not carry.
#[test]
fn sabotaged_partial_convert_is_blamed_by_name() {
    let pipe = Pipeline {
        sabotage: Some(Stage::PartialConvert),
        ..checked_pipeline()
    };
    let machine = MachineConfig::new(8, 1);
    let w = &all(Scale::Test)[0];
    let err = pipe
        .compile(&w.source, &w.args, Model::CondMove, &machine)
        .expect_err("sabotaged compile must fail");
    let PipelineError::Lint(lint) = err else {
        panic!("expected a lint error, got {err}");
    };
    assert_eq!(lint.pass, Stage::PartialConvert);
    assert!(lint
        .violations
        .iter()
        .any(|v| v.kind == CheckKind::ModelConformance));
}

/// The `relations` stage sabotage corrupts the *held partition graph*
/// (an asymmetric disjointness bit), not the IR — the module itself
/// still verifies, so only the relation-soundness checker family can
/// catch it, and it must blame the relations stage by name.
#[test]
fn sabotaged_relations_graph_is_caught_and_blamed() {
    let pipe = Pipeline {
        sabotage: Some(Stage::Relations),
        ..checked_pipeline()
    };
    let machine = MachineConfig::new(8, 1);
    // `wc` reliably if-converts into a multi-predicate hyperblock at
    // test scale (the corruption needs at least two predicate regs).
    let w = by_name("wc", Scale::Test).unwrap();
    let err = pipe
        .compile(&w.source, &w.args, Model::FullPred, &machine)
        .expect_err("corrupted relation graph must fail the compile");
    let PipelineError::Lint(ref lint) = err else {
        panic!("expected a lint error, got {err}");
    };
    assert_eq!(lint.pass, Stage::Relations);
    assert!(
        lint.violations
            .iter()
            .all(|v| v.kind == CheckKind::Relations),
        "only the relation-soundness family can see a corrupted graph: {:?}",
        lint.violations
    );
    let msg = err.to_string();
    assert!(msg.contains("after pass `relations`"), "{msg}");
}

/// A corruption injected after scheduling is caught by the `schedule`
/// checkpoint with checks on — for a one-shot compile, and for every
/// machine a single formed module is scheduled for (the schedule
/// checkpoint runs per scheduled module, not once per form).
#[test]
fn sabotaged_schedule_is_blamed_by_name() {
    let pipe = Pipeline {
        sabotage: Some(Stage::Schedule),
        ..checked_pipeline()
    };
    let w = &all(Scale::Test)[0];
    let blamed = |err: PipelineError| {
        let PipelineError::Lint(ref lint) = err else {
            panic!("expected a lint error, got {err}");
        };
        assert_eq!(lint.pass, Stage::Schedule);
        assert!(
            lint.violations
                .iter()
                .any(|v| v.kind == CheckKind::UseBeforeDef),
            "never-defined guard should read as use-before-def: {:?}",
            lint.violations
        );
        let msg = err.to_string();
        assert!(msg.contains("after pass `schedule`"), "{msg}");
    };
    blamed(
        pipe.compile(
            &w.source,
            &w.args,
            Model::FullPred,
            &MachineConfig::new(8, 1),
        )
        .expect_err("sabotaged compile must fail"),
    );
    let front = pipe.front(&w.source, &w.args).expect("front half");
    let formed = pipe.form(&front, Model::FullPred).expect("formed half");
    for machine in [MachineConfig::new(1, 1), MachineConfig::new(8, 2)] {
        blamed(
            pipe.schedule(formed.clone(), &machine)
                .expect_err("sabotaged schedule must fail"),
        );
    }
}

/// With checks off, sabotage corrupts silently — proving the checkpoints
/// (not some other mechanism) are what catches it. The guard is read in
/// the emulator as predicate 0 of an all-false file, which nullifies the
/// instruction; compilation itself must succeed.
#[test]
fn checks_flag_gates_the_checkpoints() {
    let pipe = Pipeline {
        checks: false,
        sabotage: Some(Stage::Schedule),
        ..Pipeline::default()
    };
    let machine = MachineConfig::new(8, 1);
    let w = &all(Scale::Test)[0];
    // Sabotage after the last stage with checks disabled: nothing trips.
    // (Debug builds still run the structural backstop, which a stray
    // guard passes.)
    pipe.compile(&w.source, &w.args, Model::FullPred, &machine)
        .expect("checks disabled: sabotage goes unnoticed");
}

#[test]
fn stage_names_round_trip() {
    for s in Stage::ALL {
        assert_eq!(s.name().parse::<Stage>().unwrap(), s);
    }
    assert!("nonsense".parse::<Stage>().is_err());
}
