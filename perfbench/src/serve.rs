//! `serve-mixed`: an in-process `hyperpredd` on a loopback port with a
//! fresh store, two compute workers and the default sync policy. Set-up
//! pre-fills the store; then two closed-loop clients (the daemon's real
//! callers are sweep scripts that wait for each answer) send single-cell
//! `POST /v1/cell` requests: nine in ten repeat a pre-filled cell (the
//! read path: HTTP, JSON, `Store::get`), one in ten is a generated cell
//! the store has never seen (the write path: the compute gate,
//! `run_request`, `Store::put`).

use crate::replay::{generated, CellSet};
use crate::stats::{self, mix};
use crate::{Outcome, WorkDir};
use hyperpred::client::{Client, ClientConfig};
use hyperpred::service::{get_u64, parse_response, request_to_json, CellStatus};
use hyperpred::sim::{MemoryModel, SimStats, DEFAULT_CYCLE_LIMIT};
use hyperpred::workloads::gen::{generate, GenProgram, Profile};
use hyperpred::{request_fingerprint, CellRequest, Experiment, Model, Pipeline};
use hyperpred_daemon::{Daemon, DaemonConfig};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Generated programs pre-filled into the store, each under all three
/// models.
const POOL_PROGRAMS: usize = 40;
/// One request in this many is a cell the store has never seen.
const FRESH_EVERY: u64 = 10;
/// Closed-loop client threads, and daemon compute workers.
const CLIENTS: u64 = 2;
const WORKERS: usize = 2;
/// Set-ups per run (each with a fresh store); the median is reported.
const SETUPS: usize = 3;
/// Tail percentile reported over all requests. One in ten requests
/// computes, so this is the computed cells' 90th percentile.
const TAIL: f64 = 99.0;
/// Fresh programs the traced run adds to the pool programs.
const TRACED_FRESH: usize = 20;

fn request(p: &GenProgram, model: Model) -> CellRequest {
    CellRequest {
        name: p.name.clone(),
        source: p.source.clone(),
        args: p.args.clone(),
        model,
        issue: 8,
        branches: 1,
        memory: MemoryModel::Perfect,
        max_cycles: DEFAULT_CYCLE_LIMIT,
    }
}

/// Generator seeds of the pre-filled programs and of the fresh ones.
/// Both corpora are fixed, so every benchmark seed serves the same
/// programs; the seed draws which pre-filled cell each hit asks for.
const POOL_BASE: u64 = 1_000_000;
const FRESH_BASE: u64 = 2_000_000;

fn pool_program(j: usize) -> GenProgram {
    generate(Profile::ALL[j % Profile::ALL.len()], POOL_BASE + j as u64)
}

/// Fresh cell `k`: program `k / 3` of the fresh corpus under model `k mod 3`.
fn fresh_cell(k: u64) -> CellRequest {
    let p = generate(Profile::ALL[(k / 3 % 5) as usize], FRESH_BASE + k / 3);
    request(&p, Model::ALL[(k % 3) as usize])
}

/// The traced run's inputs; fixed corpora, so the seed plays no part.
pub fn cell_set(_seed: u64) -> CellSet {
    let programs = (0..POOL_PROGRAMS)
        .map(pool_program)
        .chain(
            (0..TRACED_FRESH as u64)
                .map(|k| generate(Profile::ALL[(k % 5) as usize], FRESH_BASE + k)),
        )
        .map(generated)
        .collect();
    CellSet {
        programs,
        exps: vec![Experiment {
            title: "serve 8x1",
            issue: 8,
            branches: 1,
            memory: MemoryModel::Perfect,
            max_cycles: DEFAULT_CYCLE_LIMIT,
        }],
        pipe: Pipeline::default(),
        degrade: true,
        request_sample: usize::MAX,
        minis: false,
    }
}

/// A pre-filled cell's first answer: its fingerprint and stats.
type FirstAnswer = (String, SimStats);

/// A running daemon with its pre-filled cells and their first answers.
struct Live {
    daemon: Daemon,
    addr: String,
    pool: Vec<String>,
    first: Vec<FirstAnswer>,
    prefilled: u64,
}

impl Live {
    fn stop(self) {
        self.daemon.request_shutdown();
        self.daemon.wait();
    }
}

fn client(addr: &str) -> Client {
    Client::new(ClientConfig {
        addr: addr.to_string(),
        ..ClientConfig::default()
    })
}

/// Starts a daemon on `dir` and pre-fills it with the pool, two clients
/// at a time.
fn start(dir: std::path::PathBuf) -> Result<Live, String> {
    let daemon = Daemon::start(DaemonConfig {
        addr: "127.0.0.1:0".to_string(),
        store_dir: dir,
        max_active: WORKERS,
        ..DaemonConfig::default()
    })
    .map_err(|e| format!("starting the daemon: {e}"))?;
    let addr = daemon.addr().to_string();
    let pool: Vec<String> = (0..POOL_PROGRAMS)
        .flat_map(|j| {
            let p = pool_program(j);
            Model::ALL.map(|m| request_to_json(&request(&p, m)))
        })
        .collect();
    // Each client takes every other pool cell and returns its answers
    // tagged with their pool index.
    let mut answers: Vec<(usize, Result<FirstAnswer, String>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS as usize)
            .map(|c| {
                let (pool, addr) = (&pool, &addr);
                s.spawn(move || {
                    let cl = client(addr);
                    (c..pool.len())
                        .step_by(CLIENTS as usize)
                        .map(|i| (i, prefill(&cl, &pool[i])))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("pre-fill client thread"))
            .collect()
    });
    answers.sort_by_key(|(i, _)| *i);
    let mut first = Vec::with_capacity(pool.len());
    for (i, answer) in answers {
        match answer {
            Ok(f) => first.push(f),
            Err(e) => {
                let live = Live {
                    daemon,
                    addr,
                    pool,
                    first,
                    prefilled: 0,
                };
                live.stop();
                return Err(format!("pre-filling pool cell {i} failed: {e}"));
            }
        }
    }
    let prefilled = first.len() as u64;
    Ok(Live {
        daemon,
        addr,
        pool,
        first,
        prefilled,
    })
}

/// Posts one pool cell to an empty store: it must come back `computed`.
fn prefill(cl: &Client, body: &str) -> Result<FirstAnswer, String> {
    match cl.post("/v1/cell", body) {
        Ok((200, text)) => match parse_response(&text) {
            Ok(r) if r.status == CellStatus::Computed => {
                r.stats.map(|st| (r.fingerprint, st)).ok_or(text)
            }
            _ => Err(text),
        },
        Ok((code, text)) => Err(format!("HTTP {code}: {text}")),
        Err(e) => Err(e.to_string()),
    }
}

/// What one closed-loop session saw, client side and server side.
#[derive(Debug, Default)]
pub struct Session {
    pub attempted: u64,
    pub failed: u64,
    pub hits_ms: Vec<f64>,
    pub computed_ms: Vec<f64>,
    pub all_ms: Vec<f64>,
    pub wall_s: f64,
    pub server_hits: u64,
    pub server_computed: u64,
    pub server_failed: u64,
    pub server_rejected: u64,
    pub retries: u64,
}

impl Session {
    pub fn hit_ratio(&self) -> f64 {
        if self.all_ms.is_empty() {
            0.0
        } else {
            self.hits_ms.len() as f64 / self.all_ms.len() as f64
        }
    }
}

/// One client's tallies.
#[derive(Default)]
struct Tally {
    hits_ms: Vec<f64>,
    computed_ms: Vec<f64>,
    all_ms: Vec<f64>,
    failed: u64,
    rejected: u64,
    conflicts: u64,
    bad: Vec<String>,
    retries: u64,
}

fn measure(live: &Live, seed: u64, duration: Duration) -> Result<Session, String> {
    let pipe = Pipeline::default();
    let seen: Mutex<HashSet<String>> =
        Mutex::new(live.first.iter().map(|(fp, _)| fp.clone()).collect());
    let next_fresh = AtomicU64::new(0);
    let started = Instant::now();
    let deadline = started + duration;
    let tallies: Vec<Tally> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (seen, next_fresh, pipe) = (&seen, &next_fresh, &pipe);
                s.spawn(move || {
                    let cl = client(&live.addr);
                    let mut t = Tally::default();
                    let mut i = 0u64;
                    while Instant::now() < deadline {
                        // Clients are offset so their fresh cells interleave.
                        let fresh =
                            (i + c * FRESH_EVERY / CLIENTS) % FRESH_EVERY == FRESH_EVERY - 1;
                        let (body, hit_of) = if fresh {
                            let req = loop {
                                let k = next_fresh.fetch_add(1, Ordering::Relaxed);
                                let req = fresh_cell(k);
                                let fp = request_fingerprint(&req, pipe, true);
                                if seen.lock().expect("seen set").insert(fp) {
                                    break req;
                                }
                            };
                            (request_to_json(&req), None)
                        } else {
                            let idx = (mix(seed, 5 + c, i) % live.pool.len() as u64) as usize;
                            (live.pool[idx].clone(), Some(idx))
                        };
                        i += 1;
                        let t0 = Instant::now();
                        let answer = cl.post("/v1/cell", &body);
                        let ms = t0.elapsed().as_secs_f64() * 1e3;
                        let resp = match answer {
                            Ok((200, text)) => parse_response(&text),
                            Ok((code, text)) => Err(format!("HTTP {code}: {text}")),
                            Err(e) => Err(e.to_string()),
                        };
                        let resp = match resp {
                            Ok(r) => r,
                            Err(e) => {
                                t.bad.push(e);
                                continue;
                            }
                        };
                        t.all_ms.push(ms);
                        match resp.status {
                            CellStatus::Hit => t.hits_ms.push(ms),
                            CellStatus::Computed => t.computed_ms.push(ms),
                            CellStatus::Failed => t.failed += 1,
                            CellStatus::Rejected => t.rejected += 1,
                            CellStatus::Conflict => t.conflicts += 1,
                        }
                        match hit_of {
                            Some(idx) => {
                                let (fp, stats) = &live.first[idx];
                                if resp.status != CellStatus::Hit
                                    || &resp.fingerprint != fp
                                    || resp.stats.as_ref() != Some(stats)
                                {
                                    t.bad.push(format!(
                                        "pool cell {idx} answered {:?}, not its first answer",
                                        resp.status
                                    ));
                                }
                            }
                            None if resp.status != CellStatus::Computed || resp.stats.is_none() => {
                                t.bad.push(format!("fresh cell answered {:?}", resp.status));
                            }
                            None => {}
                        }
                    }
                    t.retries = cl.retries();
                    t
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();

    let mut s = Session {
        wall_s,
        ..Session::default()
    };
    let (mut failed, mut rejected, mut conflicts) = (0, 0, 0);
    for t in tallies {
        s.attempted += t.all_ms.len() as u64 + t.bad.len() as u64;
        s.failed += t.bad.len() as u64;
        for b in &t.bad {
            eprintln!("perfbench: MISMATCH serve: {b}");
        }
        s.hits_ms.extend(t.hits_ms);
        s.computed_ms.extend(t.computed_ms);
        s.all_ms.extend(t.all_ms);
        failed += t.failed;
        rejected += t.rejected;
        conflicts += t.conflicts;
        s.retries += t.retries;
    }

    // The server's counters must agree with the client's tallies.
    let (code, body) = client(&live.addr)
        .get("/v1/stats")
        .map_err(|e| format!("reading /v1/stats: {e}"))?;
    let field =
        |k: &str| get_u64(&body, k).ok_or(format!("/v1/stats ({code}) lacks `{k}`: {body}"));
    s.server_hits = field("hits")?;
    s.server_computed = field("computed")?;
    s.server_failed = field("failed")?;
    s.server_rejected = field("rejected")?;
    let server_conflicts = field("conflicts")?;
    for (name, server, client) in [
        ("hits", s.server_hits, s.hits_ms.len() as u64),
        (
            "computed",
            s.server_computed,
            live.prefilled + s.computed_ms.len() as u64,
        ),
        ("failed", s.server_failed, failed),
        ("rejected", s.server_rejected, rejected),
        ("conflicts", server_conflicts, conflicts),
    ] {
        s.attempted += 1;
        if server != client {
            s.failed += 1;
            eprintln!("perfbench: MISMATCH /v1/stats {name}={server}, client counted {client}");
        }
    }
    Ok(s)
}

/// A daemon session of `duration` on a fresh store (the traced run's
/// source of daemon counters).
pub fn session(seed: u64, duration: Duration, work: &WorkDir) -> Result<Session, String> {
    let live = start(work.path("session-store"))?;
    let s = measure(&live, seed, duration);
    live.stop();
    s
}

pub fn run(seed: u64, budget: Duration, work: &WorkDir) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let mut times = Vec::with_capacity(SETUPS);
    let mut live = None;
    for i in 0..SETUPS {
        if let Some(old) = live.take() {
            Live::stop(old);
        }
        let t = Instant::now();
        live = Some(start(work.path(&format!("store-{i}")))?);
        times.push(t.elapsed().as_secs_f64());
    }
    let live = live.expect("at least one set-up");
    let session = measure(&live, seed, budget);
    live.stop();
    let s = session?;
    out.attempted += s.attempted;
    out.failed += s.failed;

    let cells_per_s = s.all_ms.len() as f64 / s.wall_s;
    eprintln!(
        "serve-mixed: {} cells in {:.2} s = {cells_per_s:.1} cells/s, hit ratio {:.4}, \
         {} client retries",
        s.all_ms.len(),
        s.wall_s,
        s.hit_ratio(),
        s.retries
    );
    eprintln!("{}", stats::describe("serve hit", &s.hits_ms));
    eprintln!("{}", stats::describe("serve computed", &s.computed_ms));
    eprintln!("{}", stats::describe("serve all", &s.all_ms));
    out.metric("setup_s", stats::median(&times), "s");
    out.metric("throughput_per_s", cells_per_s, "1/s");
    out.metric("item_p50_ms", stats::percentile(&s.all_ms, 50.0), "ms");
    out.metric("item_tail_ms", stats::tail(&s.all_ms, TAIL)?, "ms");
    Ok(out)
}
