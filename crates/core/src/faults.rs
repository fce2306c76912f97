//! Fault-injection fixtures for exercising the matrix engine's
//! containment guarantees (panic isolation, watchdog budgets) end to end.
//!
//! Two fixture workloads are provided:
//!
//! * [`panic_fixture`] — its source carries [`PANIC_MARKER`]; when a
//!   [`Pipeline`](crate::Pipeline) has `fault_injection` enabled, compiling
//!   it panics deliberately, standing in for the 100+ `unwrap`/`assert`
//!   sites a pathological program could trip inside a pass.
//! * [`cycle_hog_fixture`] — a legitimate program whose simulated run is
//!   far longer than its neighbors', tripping the cycle-budget watchdog
//!   ([`SimError::CycleLimit`](hyperpred_sim::SimError::CycleLimit)) when
//!   an experiment's `max_cycles` is set below its runtime.
//!
//! Both are inert in normal operation: the panic fixture is valid MiniC
//! (the marker lives in a comment) and compiles cleanly when
//! `fault_injection` is off, and the hog completes under the default
//! 10-billion-cycle budget. They are wired into `figures
//! --keep-going --inject-faults` (the CI chaos smoke) and the
//! fault-injection test suite.

use hyperpred_ir::{Module, Op, Operand};
use hyperpred_workloads::Workload;
use std::sync::atomic::{AtomicU32, Ordering};

/// Source marker the pipeline panics on when fault injection is enabled.
pub const PANIC_MARKER: &str = "__hyperpred_fault_panic__";

/// Source marker for the *transient* panic fixture: compiling a source
/// carrying it panics only while the process-wide budget armed by
/// [`arm_flaky`] is nonzero, standing in for flaky infrastructure (OOM
/// kills, bit flips) that a retry policy should absorb.
pub const FLAKY_MARKER: &str = "__hyperpred_fault_flaky__";

/// Function-name marker for the simulate-stage panic fixture. Like
/// [`DIVERGE_MARKER`] it is a function *name*, so it survives lowering:
/// drivers that honor fault injection call
/// [`maybe_injected_sim_panic`] on the compiled module right before
/// simulating it, which panics after compilation succeeded — giving the
/// failure a lowered-IR artifact to dump and minimize.
pub const SIM_PANIC_MARKER: &str = "__hyperpred_fault_simpanic__";

/// Remaining deliberate failures of the flaky fixture (process-wide).
static FLAKY_BUDGET: AtomicU32 = AtomicU32::new(0);

/// Arms the flaky fixture: the next `n` compiles of a source carrying
/// [`FLAKY_MARKER`] (under fault injection) panic, then it heals.
pub fn arm_flaky(n: u32) {
    FLAKY_BUDGET.store(n, Ordering::SeqCst);
}

/// Consumes one unit of the flaky budget; true while failures remain.
pub(crate) fn flaky_should_panic() -> bool {
    FLAKY_BUDGET
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |v| v.checked_sub(1))
        .is_ok()
}

/// Function-name marker for the result-divergence fixture. The marker is
/// a *function name* (not a comment) so it survives lowering into the IR:
/// [`Pipeline::schedule`](crate::Pipeline::schedule) recognizes it in the
/// compiled module under the full-predication model and skews `main`'s
/// return value, standing in for a model-specific miscompile.
pub const DIVERGE_MARKER: &str = "__hyperpred_fault_diverge__";

/// The wrong answer the skewed fixture returns (distinctive on sight).
pub const DIVERGE_RESULT: i64 = 24601;

/// A workload whose full-predication compile is deliberately miscompiled
/// under [`Pipeline::fault_injection`](crate::Pipeline::fault_injection):
/// its simulated result diverges from the baseline's, which the matrix
/// must report as a typed [`PipelineError::Diverged`](crate::PipelineError)
/// cell failure rather than a panic. Inert without injection.
pub fn diverge_fixture() -> Workload {
    Workload {
        name: "inject-diverge",
        description: "fault fixture: full-pred model result diverges when injection is enabled",
        source: format!(
            "int {DIVERGE_MARKER}(int x) {{ return x * 2 + 1; }}\n\
             int main() {{\n\
             \x20   int i; int s; s = 0;\n\
             \x20   for (i = 0; i < 40; i += 1) {{\n\
             \x20       if (i % 3 == 0) s += {DIVERGE_MARKER}(i);\n\
             \x20   }}\n\
             \x20   return s;\n}}"
        ),
        args: vec![],
    }
}

/// Skews every `ret` in `main` to return [`DIVERGE_RESULT`] — the
/// injected miscompile behind [`diverge_fixture`]. Structurally legal IR
/// (an immediate return operand), so it sails through the verifier and
/// surfaces only as a result mismatch, exactly like a real codegen bug.
pub(crate) fn skew_main_result(module: &mut Module) {
    let Some(main) = module.funcs.iter_mut().find(|f| f.name == "main") else {
        return;
    };
    for block in &mut main.blocks {
        for inst in &mut block.insts {
            if inst.op == Op::Ret && !inst.srcs.is_empty() {
                inst.srcs = vec![Operand::Imm(DIVERGE_RESULT)];
            }
        }
    }
}

/// A workload whose compilation panics under
/// [`Pipeline::fault_injection`](crate::Pipeline::fault_injection).
/// Without injection it is an ordinary small program.
pub fn panic_fixture() -> Workload {
    Workload {
        name: "inject-panic",
        description: "fault fixture: compile-stage panic when injection is enabled",
        source: format!(
            "/* {PANIC_MARKER} */\n\
             int main() {{\n\
             \x20   int i; int s; s = 0;\n\
             \x20   for (i = 0; i < 50; i += 1) {{ if (i % 2 == 0) s += i; }}\n\
             \x20   return s;\n}}"
        ),
        args: vec![],
    }
}

/// A workload whose compile fails transiently: with fault injection on
/// and [`arm_flaky`] armed, each compile attempt panics and consumes one
/// unit of the budget, after which the workload compiles cleanly. Used to
/// prove the matrix retry policy re-runs (and un-memoizes) transient
/// failures. Inert without injection or with an exhausted budget.
pub fn flaky_fixture() -> Workload {
    Workload {
        name: "inject-flaky",
        description: "fault fixture: transient compile panic while the flaky budget lasts",
        source: format!(
            "/* {FLAKY_MARKER} */\n\
             int main() {{\n\
             \x20   int i; int s; s = 0;\n\
             \x20   for (i = 0; i < 60; i += 1) {{ if (i % 3 == 0) s += 2; }}\n\
             \x20   return s;\n}}"
        ),
        args: vec![],
    }
}

/// A workload whose *simulation* panics under fault injection: the marker
/// is a function name, so it rides through compilation into the scheduled
/// module, and [`maybe_injected_sim_panic`] trips on it just before the
/// timing run. Because compilation has succeeded by then, the failure has
/// lowered IR to dump into a repro bundle and minimize. Inert without
/// injection.
pub fn sim_panic_fixture() -> Workload {
    Workload {
        name: "inject-simpanic",
        description: "fault fixture: simulate-stage panic when injection is enabled",
        source: format!(
            "int {SIM_PANIC_MARKER}(int x) {{ return x + 7; }}\n\
             int main() {{\n\
             \x20   int i; int s; s = 0;\n\
             \x20   for (i = 0; i < 30; i += 1) {{\n\
             \x20       if (i % 2 == 0) s += {SIM_PANIC_MARKER}(i);\n\
             \x20   }}\n\
             \x20   return s;\n}}"
        ),
        args: vec![],
    }
}

/// Panics iff `module` carries [`SIM_PANIC_MARKER`] — the simulate-stage
/// injection point. Drivers honoring
/// [`Pipeline::fault_injection`](crate::Pipeline::fault_injection) call
/// this on the compiled module right before simulating it.
pub fn maybe_injected_sim_panic(module: &Module) {
    if module.funcs.iter().any(|f| f.name == SIM_PANIC_MARKER) {
        panic!("injected simulate-stage panic ({SIM_PANIC_MARKER} fixture)");
    }
}

/// A terminating but long-running workload: roughly `6 * iters` dynamic
/// instructions, so its simulated cycle count exceeds any budget set
/// below that. Used with a lowered
/// [`Experiment::max_cycles`](crate::Experiment::max_cycles) to trip the
/// watchdog while healthy cells finish untouched.
pub fn cycle_hog_fixture(iters: i64) -> Workload {
    Workload {
        name: "inject-spin",
        description: "fault fixture: exceeds a lowered cycle budget",
        source: format!(
            "int main() {{\n\
             \x20   int i; int s; s = 0;\n\
             \x20   for (i = 0; i < {iters}; i += 1) {{\n\
             \x20       if (i % 4 == 0) s += 3; else s -= 1;\n\
             \x20   }}\n\
             \x20   return s;\n}}"
        ),
        args: vec![],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Model, Pipeline};
    use hyperpred_sched::MachineConfig;

    #[test]
    fn fixtures_are_inert_without_injection() {
        let pipe = Pipeline::default();
        let machine = MachineConfig::new(8, 1);
        let w = panic_fixture();
        pipe.compile(&w.source, &w.args, Model::FullPred, &machine)
            .expect("panic fixture compiles cleanly when injection is off");
        let w = cycle_hog_fixture(100);
        pipe.compile(&w.source, &w.args, Model::Superblock, &machine)
            .expect("hog fixture is an ordinary program");
        let w = flaky_fixture();
        pipe.compile(&w.source, &w.args, Model::FullPred, &machine)
            .expect("flaky fixture compiles cleanly when injection is off");
        let w = sim_panic_fixture();
        let m = pipe
            .compile(&w.source, &w.args, Model::FullPred, &machine)
            .expect("sim-panic fixture compiles cleanly");
        // The marker function must survive lowering — the simulate-stage
        // injection point keys on it.
        assert!(m.funcs.iter().any(|f| f.name == SIM_PANIC_MARKER));
    }
}
