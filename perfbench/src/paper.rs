//! `paper-figures`: the paper's Figures 8–11 over all fifteen minis at
//! full scale, through the matrix engine on two threads with its compile
//! cache and front-half memo, exactly as the `figures` binary runs them.
//! Every pass is checked line by line against the committed full-scale
//! SimStats golden file.

use crate::replay::CellSet;
use crate::stats::{self, mix};
use crate::{timed_setups, Outcome};
use hyperpred::journal::model_slug;
use hyperpred::sim::SimStats;
use hyperpred::workloads::{Scale, Workload};
use hyperpred::{
    run_matrix_configured, BenchResult, Experiment, FailurePolicy, MatrixConfig, Model, Pipeline,
};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The repository's full-scale golden file, one line per figure ×
/// workload × (baseline or model).
pub const GOLDEN: &str = include_str!("../../tests/golden/simstats_full_scale.txt");

/// Engine threads: the container's core count.
pub const THREADS: usize = 2;

/// Tail percentile reported for the engine's cells (three or more passes
/// of 195 cells leave ten beyond it).
const TAIL: f64 = 95.0;

pub fn experiments() -> Vec<Experiment> {
    vec![
        Experiment::fig8(),
        Experiment::fig9(),
        Experiment::fig10(),
        Experiment::fig11(),
    ]
}

/// The fifteen full-scale minis in a seed-chosen order. Results do not
/// depend on the order; the engine's queue (and so its packing) does.
pub fn workloads(seed: u64) -> Vec<Workload> {
    let mut w = hyperpred::workloads::all(Scale::Full);
    for i in (1..w.len()).rev() {
        let j = (mix(seed, 1, i as u64) % (i as u64 + 1)) as usize;
        w.swap(i, j);
    }
    w
}

pub fn cell_set(seed: u64) -> CellSet {
    CellSet {
        programs: workloads(seed),
        exps: experiments(),
        pipe: Pipeline::default(),
        degrade: false,
        request_sample: 15,
        minis: true,
    }
}

/// One line in the golden file's format.
pub fn stats_line(out: &mut String, exp: &str, workload: &str, who: &str, s: &SimStats) {
    writeln!(
        out,
        "{exp}|{workload}|{who}|cycles={} insts={} nullified={} branches={} \
         mispredicts={} loads={} stores={} icache={} dcache={} ret={}",
        s.cycles,
        s.insts,
        s.nullified,
        s.branches,
        s.mispredicts,
        s.loads,
        s.stores,
        s.icache_misses,
        s.dcache_misses,
        s.ret
    )
    .expect("write to String");
}

/// The golden-format dump of one matrix run (completed slots only).
pub fn dump(exps: &[Experiment], rows: &[Vec<Option<&BenchResult>>]) -> String {
    let mut out = String::new();
    for (exp, row) in exps.iter().zip(rows) {
        for r in row.iter().flatten() {
            stats_line(&mut out, exp.title, r.name, model_slug(None), &r.base);
            for m in Model::ALL {
                stats_line(
                    &mut out,
                    exp.title,
                    r.name,
                    model_slug(Some(m)),
                    &r.models[m.index()],
                );
            }
        }
    }
    out
}

/// Geometric-mean speedup of `m` over every figure × workload slot.
pub fn speedup(rows: &[Vec<Option<&BenchResult>>], m: Model) -> f64 {
    let v: Vec<f64> = rows
        .iter()
        .flatten()
        .flatten()
        .map(|r| r.speedup(m))
        .collect();
    stats::geomean(&v).unwrap_or(0.0)
}

/// Compares one run's dump with the golden file, one operation per
/// golden line (plus one per unexpected line).
pub fn check_golden(out: &mut Outcome, actual: &str) {
    let bad = stats::golden_diff(GOLDEN, actual);
    let lines = GOLDEN.lines().filter(|l| !l.trim().is_empty()).count();
    let extra = bad.len().saturating_sub(lines);
    out.attempted += (lines + extra) as u64;
    out.failed += bad.len() as u64;
    for key in &bad {
        eprintln!("perfbench: MISMATCH golden line {key}");
    }
}

pub fn run(seed: u64, budget: Duration) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (setup_s, programs) = timed_setups(5, || Ok(workloads(seed)))?;
    let exps = experiments();
    let pipe = Pipeline::default();
    let cfg = MatrixConfig {
        threads: THREADS,
        policy: FailurePolicy::KeepGoing,
        ..MatrixConfig::default()
    };

    let started = Instant::now();
    let mut walls = Vec::new();
    let mut cell_ms = Vec::new();
    let mut speedups = (0.0, 0.0);
    while walls.is_empty() || started.elapsed() < budget {
        let t = Instant::now();
        let run = run_matrix_configured(&exps, &programs, &pipe, &cfg);
        walls.push(t.elapsed().as_secs_f64());
        cell_ms.extend(run.stats.cells.iter().map(|c| c.wall.as_secs_f64() * 1e3));
        for f in &run.report.failures {
            eprintln!("perfbench: cell failed: {f}");
        }
        let rows: Vec<Vec<Option<&BenchResult>>> = run
            .outcomes
            .iter()
            .map(|row| row.iter().map(|o| o.ok()).collect())
            .collect();
        check_golden(&mut out, &dump(&exps, &rows));
        speedups = (
            speedup(&rows, Model::CondMove),
            speedup(&rows, Model::FullPred),
        );
    }
    let cells_per_pass = programs.len() * (1 + 3 * exps.len());
    let figures_s = stats::median(&walls);
    eprintln!(
        "paper-figures: {} pass(es), figures_s median {figures_s:.3} s (all: {walls:.3?}); \
         speedup.condmove {:.6} speedup.fullpred {:.6}",
        walls.len(),
        speedups.0,
        speedups.1
    );
    eprintln!("{}", stats::describe("paper-figures cell wall", &cell_ms));
    out.metric("setup_s", setup_s, "s");
    out.metric("throughput_per_s", cells_per_pass as f64 / figures_s, "1/s");
    out.metric("item_p50_ms", stats::percentile(&cell_ms, 50.0), "ms");
    out.metric("item_tail_ms", stats::tail(&cell_ms, TAIL)?, "ms");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn golden_check_counts_a_one_field_change_as_one_failure() {
        let mut clean = Outcome::default();
        check_golden(&mut clean, GOLDEN);
        assert_eq!((clean.attempted, clean.failed), (240, 0));

        let first = GOLDEN.lines().next().expect("golden has lines");
        let tweaked = first.replacen("loads=", "loads=1", 1);
        assert_ne!(first, tweaked);
        let mut bad = Outcome::default();
        check_golden(&mut bad, &GOLDEN.replacen(first, &tweaked, 1));
        assert_eq!((bad.attempted, bad.failed), (240, 1));
    }
}
