//! Engine correctness: the parallel matrix must be a pure reordering of
//! the serial path — identical `SimStats` per cell at any thread count —
//! and its caches must actually deduplicate work.
//!
//! Workloads here are small MiniC programs (plus the `wc` mini) so the
//! debug-build suite stays fast; the full suite runs through the engine in
//! the CI figures smoke job and the `figures`/`hyperpredc report`
//! binaries.

use hyperpred::{
    run_matrix_configured, run_request, run_workload, BenchResult, CellRequest, Experiment,
    MatrixConfig, Model, Pipeline, RequestConfig,
};
use hyperpred_sched::MachineConfig;
use hyperpred_workloads::{all, by_name, Scale, Workload};

/// A machine-sharing pair: Figures 8 and 11 both schedule for 8-issue,
/// 1-branch (the compile cache must land hits) but simulate different
/// memory models.
fn experiments() -> Vec<Experiment> {
    vec![Experiment::fig8(), Experiment::fig11()]
}

/// Small but representative cells: branchy loop, memory traffic, calls,
/// plus one real mini from the suite.
fn workloads() -> Vec<Workload> {
    let branchy = Workload {
        name: "branchy",
        description: "if-else ladder in a loop (if-conversion target)",
        source: "int main() {
            int i; int s; s = 0;
            for (i = 0; i < 400; i += 1) {
                if (i % 3 == 0) s += 5;
                else if (i % 5 == 0) s -= 2;
                else s += 1;
            }
            return s;
        }"
        .to_string(),
        args: vec![],
    };
    let memory = Workload {
        name: "memory",
        description: "array sweep with data-dependent stores (cache traffic)",
        source: "int t[256];
        int main() {
            int i; int s; s = 0;
            for (i = 0; i < 256; i += 1) { t[i] = i * 7 % 51; }
            for (i = 0; i < 256; i += 1) {
                if (t[i] > 25) s += t[i];
                else t[i] = s % 13;
            }
            return s + t[17];
        }"
        .to_string(),
        args: vec![],
    };
    let calls = Workload {
        name: "calls",
        description: "function calls exercising call/return scheduling",
        source: "int clamp(int v, int lo, int hi) {
            if (v < lo) return lo;
            if (v > hi) return hi;
            return v;
        }
        int main() {
            int i; int s; s = 0;
            for (i = 0; i < 300; i += 1) {
                s += clamp(i * 3 % 97 - 40, -25, 25);
            }
            return s + 1000;
        }"
        .to_string(),
        args: vec![],
    };
    vec![
        branchy,
        memory,
        calls,
        by_name("wc", Scale::Test).expect("workload"),
    ]
}

fn assert_same(a: &BenchResult, b: &BenchResult, what: &str) {
    assert_eq!(a.name, b.name);
    assert_eq!(a.base, b.base, "{}: baseline stats differ ({what})", a.name);
    for (i, m) in Model::ALL.iter().enumerate() {
        assert_eq!(
            a.models[i], b.models[i],
            "{}: {m} stats differ ({what})",
            a.name
        );
    }
}

#[test]
fn matrix_matches_serial_at_any_thread_count() {
    let pipe = Pipeline::default();
    let exps = experiments();
    let wls = workloads();

    // Ground truth: the historical serial path.
    let serial: Vec<Vec<BenchResult>> = exps
        .iter()
        .map(|exp| {
            wls.iter()
                .map(|w| run_workload(w, exp, &pipe).expect("serial cell"))
                .collect()
        })
        .collect();

    for threads in [1, 4] {
        let out = run_matrix_configured(
            &exps,
            &wls,
            &pipe,
            &MatrixConfig {
                threads,
                ..MatrixConfig::default()
            },
        )
        .into_output()
        .expect("matrix");
        assert_eq!(out.figures.len(), serial.len());
        for (fig, ser) in out.figures.iter().zip(&serial) {
            for (a, b) in fig.iter().zip(ser) {
                assert_same(a, b, &format!("{threads} thread(s) vs serial"));
            }
        }
    }

    // While we have both figures: Figure 11 evaluates with 64K caches but
    // its speedup denominator must be the perfect-memory baseline,
    // identical to Figure 8's (the fixed run_workload bug).
    let out = run_matrix_configured(
        &exps,
        &wls,
        &pipe,
        &MatrixConfig {
            threads: 2,
            ..MatrixConfig::default()
        },
    )
    .into_output()
    .expect("matrix");
    for (a, b) in out.figures[0].iter().zip(&out.figures[1]) {
        assert_eq!(a.base, b.base, "{}: denominators must match", a.name);
        assert_eq!(
            a.base.dcache_misses, 0,
            "{}: perfect-memory baseline cannot miss",
            a.name
        );
    }
}

/// The acceptance sweep: every benchmark in the suite, all three models,
/// through the engine — bit-identical to the serial path. One experiment
/// keeps the debug-build cost bounded; machine-sharing reuse across
/// experiments is covered above.
#[test]
fn full_suite_matrix_matches_serial() {
    let pipe = Pipeline::default();
    let exp = Experiment::fig8();
    let wls = all(Scale::Test);

    let serial: Vec<BenchResult> = wls
        .iter()
        .map(|w| run_workload(w, &exp, &pipe).expect("serial cell"))
        .collect();

    let out = run_matrix_configured(
        &[exp],
        &wls,
        &pipe,
        &MatrixConfig {
            threads: 4,
            ..MatrixConfig::default()
        },
    )
    .into_output()
    .expect("matrix");
    assert_eq!(out.figures[0].len(), wls.len());
    for (a, b) in out.figures[0].iter().zip(&serial) {
        assert_same(a, b, "full suite, 4 threads vs serial");
    }

    // The model-independent front half is computed once per workload and
    // reused by the other three compiles (baseline + remaining models).
    let w = wls.len() as u64;
    assert_eq!(out.stats.front_computes, w);
    assert_eq!(out.stats.front_reuses, 3 * w);
}

#[test]
fn caches_deduplicate_compiles_and_baselines() {
    let pipe = Pipeline::default();
    let exps = experiments();
    let wls = workloads();
    let out = run_matrix_configured(
        &exps,
        &wls,
        &pipe,
        &MatrixConfig {
            threads: 2,
            ..MatrixConfig::default()
        },
    )
    .into_output()
    .expect("matrix");

    // Figures 8 and 11 share a machine: each (workload, model) compiles
    // once and hits once. The baseline compile is shared too but only
    // requested by its single baseline cell.
    let w = wls.len() as u64;
    assert_eq!(
        out.stats.compile_hits,
        3 * w,
        "one hit per shared model cell"
    );
    // Distinct compiles per workload: baseline + fig8's three models
    // (fig11 fully reuses fig8's modules).
    assert_eq!(out.stats.compile_misses, 4 * w);
    // Those four compiles form three modules: the 1-issue baseline and
    // the 8-issue superblock cell schedule one formed superblock module.
    assert_eq!(out.stats.form_computes, 3 * w);
    assert_eq!(out.stats.form_reuses, w);
    // The denominator is simulated once per workload, not once per figure.
    assert_eq!(out.stats.baseline_sims, w);
    assert_eq!(out.stats.baseline_reuses, (exps.len() as u64 - 1) * w);
    // Every scheduled cell reported a wall time.
    assert_eq!(
        out.stats.cells.len(),
        wls.len() * (1 + 3 * exps.len()),
        "per-cell timing recorded"
    );
    // Cache counters must show real reuse for the acceptance criterion.
    assert!(out.stats.compile_hits > 0);
}

/// The request path and the matrix are one executor: on the Figure 8
/// machine, requests compiled without degradation reproduce the matrix's
/// model cells bit-identically.
#[test]
fn requests_match_matrix_cells() {
    let pipe = Pipeline::default();
    let exp = Experiment::fig8();
    let wls: Vec<Workload> = ["wc", "cmp", "grep"]
        .iter()
        .map(|n| by_name(n, Scale::Test).expect("workload"))
        .collect();
    let out = run_matrix_configured(&[exp], &wls, &pipe, &MatrixConfig::default())
        .into_output()
        .expect("matrix");
    let cfg = RequestConfig {
        degrade: false,
        ..RequestConfig::default()
    };
    for (w, r) in wls.iter().zip(&out.figures[0]) {
        for (i, model) in Model::ALL.into_iter().enumerate() {
            let req = CellRequest {
                name: w.name.to_string(),
                source: w.source.clone(),
                args: w.args.clone(),
                model,
                issue: exp.issue,
                branches: exp.branches,
                memory: exp.memory,
                max_cycles: exp.max_cycles,
            };
            let (stats, degradation) = run_request(&req, &pipe, &cfg)
                .unwrap_or_else(|f| panic!("{} / {model}: request failed: {f}", w.name));
            assert!(!degradation.is_degraded());
            assert_eq!(stats, r.models[i], "{} / {model}: request differs", w.name);
        }
    }
}

/// The formed half is machine-independent: one `Formed` per (workload,
/// model), scheduled for four machines in turn, is Debug-equal to an
/// independent `Pipeline::compile` for each machine — with the
/// checkpoints on and off. The checkpoints only read the module, so one
/// unchecked reference compile per key serves both modes (and the
/// checked run must still pass every checkpoint, the `schedule` one
/// against the snapshot the `Formed` carries). Two workers split the
/// workloads; li and qsort dominate the debug-build cost.
#[test]
fn one_form_schedules_like_independent_compiles() {
    let machines = [(1, 1), (4, 1), (8, 1), (8, 2)].map(|(i, b)| MachineConfig::new(i, b));
    let wls = all(Scale::Test);
    let next = std::sync::atomic::AtomicUsize::new(0);
    let check = || loop {
        let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let Some(w) = wls.get(i) else { return };
        let unchecked = Pipeline {
            checks: false,
            ..Pipeline::default()
        };
        let reference: Vec<Vec<String>> = Model::ALL
            .iter()
            .map(|&model| {
                machines
                    .iter()
                    .map(|machine| {
                        let m = unchecked
                            .compile(&w.source, &w.args, model, machine)
                            .expect("compile");
                        format!("{m:?}")
                    })
                    .collect()
            })
            .collect();
        for checks in [true, false] {
            let pipe = Pipeline {
                checks,
                ..Pipeline::default()
            };
            let front = pipe.front(&w.source, &w.args).expect("front half");
            for (model, want) in Model::ALL.into_iter().zip(&reference) {
                let formed = pipe.form(&front, model).expect("formed half");
                for (machine, want) in machines.iter().zip(want) {
                    let got = pipe.schedule(formed.clone(), machine).expect("schedule");
                    assert!(
                        format!("{got:?}") == *want,
                        "{} / {model} / {}x{} (checks {checks}): reused form differs",
                        w.name,
                        machine.issue_width,
                        machine.branches_per_cycle
                    );
                }
            }
        }
    };
    std::thread::scope(|s| {
        let workers = [s.spawn(check), s.spawn(check)];
        for worker in workers {
            worker.join().expect("worker");
        }
    });
}

/// On a compile that trips its budgets, the degradation ladder lives in
/// the formed half: `finish_degraded` equals `form_degraded` followed by
/// `schedule`, degradation record included.
#[test]
fn degraded_finish_is_degraded_form_then_schedule() {
    let mut pipe = Pipeline {
        promote_rounds: 0,
        ..Pipeline::default()
    };
    pipe.unroll.factor = 8;
    pipe.unroll.max_growth_insts = 4;
    let machine = MachineConfig::new(8, 2);
    let mut degraded = 0;
    for name in ["wc", "ear"] {
        let w = by_name(name, Scale::Test).expect("workload");
        let front = pipe.front(&w.source, &w.args).expect("front half");
        for model in Model::ALL {
            let (finished, finish_deg) = pipe
                .finish_degraded(&front, model, &machine)
                .expect("ladder finishes");
            let (formed, form_deg) = pipe.form_degraded(&front, model).expect("ladder forms");
            let scheduled = pipe.schedule(formed, &machine).expect("schedule");
            assert_eq!(finish_deg, form_deg, "{name} / {model}");
            assert_eq!(
                format!("{finished:?}"),
                format!("{scheduled:?}"),
                "{name} / {model}"
            );
            degraded += usize::from(form_deg.is_degraded());
        }
    }
    assert!(degraded >= 5, "the budgets must trip: {degraded} degraded");
}
