//! `soak`: the verification user's battery. A corpus of generated
//! programs cycling through all five generator profiles, in a seed-chosen
//! order, each run by `run_soak` over the default three machine widths
//! with every per-pass checker and the reference emulator on, serially,
//! journal and triage off. Correct means zero oracle failures.
//!
//! Generated programs differ in cost by an order of magnitude, so a
//! seed-drawn sample of a hundred would measure the draw more than the
//! code; the corpus is fixed and the seed only orders it.

use crate::replay::{generated, CellSet};
use crate::stats::{self, mix};
use crate::{timed_setups, Outcome};
use hyperpred::sim::{CacheConfig, MemoryModel};
use hyperpred::workloads::gen::{generate, GenProgram, Profile};
use hyperpred::{run_soak, Experiment, Pipeline, SoakConfig};
use std::time::{Duration, Instant};

/// The corpus: the first programs of the soak stream CI checks
/// (`hyperpredc soak --seed 1`), so every seed times the same work.
const CORPUS_SEED: u64 = 1;
const CORPUS: usize = 100;

/// Tail percentile reported for per-program battery time; the corpus
/// leaves ten programs beyond it.
const TAIL: f64 = 90.0;

/// Corpus programs the traced run replays (two per profile).
const TRACED_PROGRAMS: usize = 10;

/// Program `i` of the corpus, exactly as `run_soak` generates it.
fn corpus_program(i: usize) -> GenProgram {
    generate(Profile::ALL[i % Profile::ALL.len()], CORPUS_SEED + i as u64)
}

/// The first `n` corpus programs in a seed-chosen order.
pub fn stream(seed: u64, n: usize) -> Vec<GenProgram> {
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed, 2, i as u64) % (i as u64 + 1)) as usize;
        order.swap(i, j);
    }
    order.into_iter().map(corpus_program).collect()
}

pub fn cell_set(seed: u64) -> CellSet {
    let defaults = SoakConfig::new(0, 0);
    let exps = defaults
        .widths
        .iter()
        .map(|&(issue, branches)| Experiment {
            title: Box::leak(format!("soak {issue}x{branches}").into_boxed_str()),
            issue,
            branches,
            memory: MemoryModel::Caches(CacheConfig::default()),
            max_cycles: defaults.max_cycles,
        })
        .collect();
    CellSet {
        programs: stream(seed, TRACED_PROGRAMS)
            .into_iter()
            .map(generated)
            .collect(),
        exps,
        pipe: Pipeline {
            checks: true,
            profile_fuel: defaults.fuel,
            ..Pipeline::default()
        },
        degrade: true,
        request_sample: usize::MAX,
        minis: false,
    }
}

pub fn run(seed: u64, budget: Duration) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (setup_s, programs) = timed_setups(5, || Ok(stream(seed, CORPUS)))?;
    let started = Instant::now();
    let mut wall_ms = Vec::new();
    let mut degraded = 0;
    // Whole passes over the corpus until the time is up.
    let queue = std::iter::repeat(&programs).flatten();
    for (i, p) in queue.enumerate() {
        if i % CORPUS == 0 && i > 0 && started.elapsed() >= budget {
            break;
        }
        let cfg = SoakConfig {
            profiles: vec![p.profile],
            ..SoakConfig::new(p.seed, 1)
        };
        let t = Instant::now();
        let report = run_soak(&cfg).map_err(|e| format!("soak I/O: {e}"))?;
        wall_ms.push(t.elapsed().as_secs_f64() * 1e3);
        degraded += report.degraded;
        out.check(report.ok() && report.ran == 1, || {
            format!("{}: {:?}", p.name, report.failures)
        });
    }
    let total_s = started.elapsed().as_secs_f64();
    let programs_per_s = wall_ms.len() as f64 / total_s;
    eprintln!(
        "soak: {} programs in {total_s:.2} s = {programs_per_s:.3} programs/s, {degraded} degraded",
        wall_ms.len(),
    );
    eprintln!("{}", stats::describe("soak program wall", &wall_ms));
    out.metric("setup_s", setup_s, "s");
    out.metric("throughput_per_s", programs_per_s, "1/s");
    out.metric("item_p50_ms", stats::percentile(&wall_ms, 50.0), "ms");
    out.metric("item_tail_ms", stats::tail(&wall_ms, TAIL)?, "ms");
    Ok(out)
}
