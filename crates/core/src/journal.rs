//! The cell record format behind resumable runs and the result store.
//!
//! Every completed cell — of a `figures`/`hyperpredc report` matrix run,
//! a soak program, or a daemon request — is persisted as one JSONL
//! record in a [`Store`] directory (hand-rolled, like
//! `BENCH_hotpath.json` — no serde in the tree), holding the exact
//! [`SimStats`] keyed by a *config fingerprint*. A run resumed with
//! `--resume DIR` skips already-recorded cells by copying their stats
//! back bit-identically and re-runs only missing or previously-failed
//! cells, so a killed process loses at most the cells that were in
//! flight.
//!
//! # Fingerprints
//!
//! The fingerprint is an FNV-1a 64-bit hash over a canonical string of
//! everything that determines a cell's stats: the crate version, a hash
//! of the full pipeline configuration, the workload name, a hash of its
//! *source text* (which also covers the scale — test and full inputs are
//! different sources), its arguments, the experiment title, the model,
//! and the machine/simulation parameters (issue width, branch slots,
//! memory model, cycle budget). Any change to any of these produces a
//! different fingerprint, so stale entries are ignored — never silently
//! reused. The cost of a false mismatch is only a recompute; the cost of
//! a false match would be wrong numbers, so the key is deliberately
//! conservative.
//!
//! # Line format
//!
//! One JSON object per line. Each segment opens with a `meta` record;
//! every completed cell appends a `cell` record:
//!
//! ```text
//! {"kind":"meta","version":2,"crate_version":"0.1.0"}
//! {"kind":"cell","version":2,"fp":"92ab...","workload":"wc","experiment":"Figure 8: ...","model":"fullpred","cycles":123,...,"ret":42,"ck":"a1b2c3d4e5f60718"}
//! ```
//!
//! Every version-2 cell line ends with a `ck` suffix: the [`fnv64`] hash
//! (hex, 16 digits) of every byte of the line before the `,"ck"` marker.
//! A record whose checksum does not verify is *corruption*, counted and
//! never served — a flipped bit can no longer masquerade as truth.
//! Version-1 lines (written before checksums existed) carry no `ck` and
//! are still accepted, so old journals and stores load unchanged; a
//! single-file journal from before `--resume` took a directory loads as
//! that directory's only segment (`mkdir run && mv run.jsonl
//! run/seg-00000000-0000.jsonl`).
//!
//! Only successful cells are recorded — failures re-run on resume.
//! Loading tolerates a torn trailing line (a crash mid-append) and skips
//! records whose per-line `version` is neither [`JOURNAL_VERSION`] nor
//! [`LEGACY_JOURNAL_VERSION`]; both simply fall back to re-running the
//! cell.

use hyperpred_sim::{CacheConfig, MemoryModel, SimStats};
use std::collections::HashMap;

use crate::json::{self, escape, Value};
use crate::pipeline::Model;

pub use crate::store::{CompactStats, Store};

/// Schema version stamped into every record so future shape changes are
/// detected (and skipped) instead of silently mis-parsed. Version 2
/// added the per-line `ck` checksum suffix.
pub const JOURNAL_VERSION: u64 = 2;

/// The pre-checksum schema version. Lines at this version carry no `ck`
/// suffix and are accepted as-is so stores written before the checksum
/// change still load.
pub const LEGACY_JOURNAL_VERSION: u64 = 1;

/// FNV-1a 64-bit hash — small, dependency-free, and stable across runs
/// and platforms (unlike `DefaultHasher`, which is randomly seeded).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// One completed cell, ready to append.
#[derive(Debug, Clone)]
pub struct JournalEntry<'a> {
    /// Config fingerprint the stats are keyed by.
    pub fingerprint: &'a str,
    /// Workload name (human context; the fingerprint is the key).
    pub workload: &'a str,
    /// Figure title, or `"baseline"` for the shared denominator cell.
    pub experiment: &'a str,
    /// Model simulated (`None` for the baseline cell).
    pub model: Option<Model>,
    /// The cell's exact simulation statistics.
    pub stats: &'a SimStats,
}

/// What happened to one [`Store::put`] call.
///
/// The fingerprint is a content address: two entries sharing one must
/// carry identical stats. A mismatch is *never* resolved by overwriting —
/// it is surfaced as a counted conflict and the key stops being served.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecordOutcome {
    /// The fingerprint was new; the entry was indexed and appended.
    Appended,
    /// An identical entry was already indexed; nothing was written.
    Duplicate,
    /// The fingerprint was already indexed with *different* stats. The
    /// key is now conflicted: it will no longer be served by lookups,
    /// and the conflicting entry was appended so a reload re-detects the
    /// conflict from the file alone.
    Conflict,
}

/// One detected fingerprint conflict: the same content address observed
/// with two different stat payloads. Either the fingerprint scheme missed
/// an input that matters (a false match — the dangerous case the journal
/// docs call out) or a writer is damaged; both mean neither payload can
/// be trusted, so the key is refused, not arbitrated.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalConflict {
    /// The doubly-claimed fingerprint.
    pub fingerprint: String,
    /// The stats indexed first.
    pub kept: SimStats,
    /// The first differing stats observed for the same fingerprint.
    pub rejected: SimStats,
}

/// The fingerprint → stats index behind [`Store`] and `fsck`:
/// first-write-wins with conflict quarantine instead of the historical
/// silent last-write-wins.
#[derive(Debug, Default)]
pub(crate) struct CellIndex {
    cells: HashMap<String, SimStats>,
    conflicted: HashMap<String, JournalConflict>,
}

impl CellIndex {
    /// Indexes one entry, classifying it against what is already held.
    pub(crate) fn insert(&mut self, fp: &str, stats: SimStats) -> RecordOutcome {
        if self.conflicted.contains_key(fp) {
            return RecordOutcome::Conflict;
        }
        match self.cells.get(fp) {
            None => {
                self.cells.insert(fp.to_string(), stats);
                RecordOutcome::Appended
            }
            Some(existing) if *existing == stats => RecordOutcome::Duplicate,
            Some(_) => {
                let kept = self
                    .cells
                    .remove(fp)
                    .expect("just matched Some; no other borrow can remove it");
                self.conflicted.insert(
                    fp.to_string(),
                    JournalConflict {
                        fingerprint: fp.to_string(),
                        kept,
                        rejected: stats,
                    },
                );
                RecordOutcome::Conflict
            }
        }
    }

    pub(crate) fn lookup(&self, fp: &str) -> Option<SimStats> {
        self.cells.get(fp).cloned()
    }

    pub(crate) fn len(&self) -> usize {
        self.cells.len()
    }

    pub(crate) fn conflicts(&self) -> usize {
        self.conflicted.len()
    }

    pub(crate) fn is_conflicted(&self, fp: &str) -> bool {
        self.conflicted.contains_key(fp)
    }

    pub(crate) fn conflict_report(&self) -> Vec<JournalConflict> {
        let mut v: Vec<JournalConflict> = self.conflicted.values().cloned().collect();
        v.sort_by(|a, b| a.fingerprint.cmp(&b.fingerprint));
        v
    }
}

/// The journal slug for a model slot (`"baseline"` when `None`).
pub fn model_slug(model: Option<Model>) -> &'static str {
    match model {
        None => "baseline",
        Some(Model::Superblock) => "superblock",
        Some(Model::CondMove) => "condmove",
        Some(Model::FullPred) => "fullpred",
    }
}

/// Reverses [`model_slug`]: `Some(None)` for `"baseline"`, `None` for an
/// unknown slug.
pub(crate) fn parse_model_slug(slug: &str) -> Option<Option<Model>> {
    std::iter::once(None)
        .chain(Model::ALL.map(Some))
        .find(|&m| model_slug(m) == slug)
}

/// The wire slug of a memory model. Cache geometry is always the default
/// one; the experiment layer never uses another.
pub(crate) fn memory_slug(memory: &MemoryModel) -> &'static str {
    match memory {
        MemoryModel::Perfect => "perfect",
        MemoryModel::Caches(_) => "caches",
    }
}

/// Reverses [`memory_slug`]; `None` for an unknown slug.
pub(crate) fn parse_memory_slug(slug: &str) -> Option<MemoryModel> {
    [
        MemoryModel::Perfect,
        MemoryModel::Caches(CacheConfig::default()),
    ]
    .into_iter()
    .find(|m| memory_slug(m) == slug)
}

/// Serializes one cell record as a JSONL line (trailing newline
/// included), ending in the `ck` checksum suffix: `fnv64` over every
/// byte before the `,"ck"` marker.
pub(crate) fn cell_line(entry: &JournalEntry<'_>) -> String {
    let mut line = format!(
        "{{\"kind\":\"cell\",\"version\":{JOURNAL_VERSION},\"fp\":\"{}\",\
         \"workload\":\"{}\",\"experiment\":\"{}\",\"model\":\"{}\",{}",
        escape(entry.fingerprint),
        escape(entry.workload),
        escape(entry.experiment),
        model_slug(entry.model),
        stats_json(entry.stats),
    );
    let ck = fnv64(line.as_bytes());
    line.push_str(&format!(",\"ck\":\"{ck:016x}\"}}\n"));
    line
}

/// The ten [`SimStats`] members as JSON object members, in the order
/// both the record and the wire formats write them.
pub(crate) fn stats_json(s: &SimStats) -> String {
    format!(
        "\"cycles\":{},\"insts\":{},\"nullified\":{},\"branches\":{},\
         \"mispredicts\":{},\"loads\":{},\"stores\":{},\
         \"icache_misses\":{},\"dcache_misses\":{},\"ret\":{}",
        s.cycles,
        s.insts,
        s.nullified,
        s.branches,
        s.mispredicts,
        s.loads,
        s.stores,
        s.icache_misses,
        s.dcache_misses,
        s.ret,
    )
}

/// Reads the members [`stats_json`] writes; each must be an integer.
pub(crate) fn read_stats(v: &Value) -> Result<SimStats, String> {
    let count = |key| v.req(key, Value::as_u64);
    Ok(SimStats {
        cycles: count("cycles")?,
        insts: count("insts")?,
        nullified: count("nullified")?,
        branches: count("branches")?,
        mispredicts: count("mispredicts")?,
        loads: count("loads")?,
        stores: count("stores")?,
        icache_misses: count("icache_misses")?,
        dcache_misses: count("dcache_misses")?,
        ret: v.req("ret", Value::as_i64)?,
    })
}

/// The `,"ck":"` marker that opens the checksum suffix. Safe to locate
/// with `rfind`: [`escape`] turns every `"` inside a value into `\"`,
/// so this exact byte sequence cannot occur inside field data.
const CK_MARKER: &str = ",\"ck\":\"";

/// Verifies the checksum suffix of a current-version line: `false` when
/// the suffix is missing, malformed, or does not match the raw bytes.
fn verify_checksum(trimmed: &str) -> bool {
    let Some(at) = trimmed.rfind(CK_MARKER) else {
        return false;
    };
    trimmed[at + CK_MARKER.len()..]
        .strip_suffix("\"}")
        .and_then(|hex| u64::from_str_radix(hex, 16).ok())
        .is_some_and(|ck| ck == fnv64(&trimmed.as_bytes()[..at]))
}

/// How one segment line reads back. Shared by the store's loader,
/// compaction, and `fsck` (all through
/// [`scan_segment`](crate::store::scan_segment)), so they agree on what
/// "damaged" means.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum Line {
    /// A servable cell record: its fingerprint and stats.
    Cell(String, SimStats),
    /// An expected skip that survives a rewrite: a meta record, or a cell
    /// at a foreign schema version.
    Skip,
    /// A torn final line (a crash mid-append): expected, dropped on
    /// rewrite.
    Torn,
    /// Anything else — malformed JSON, a missing field, or a
    /// checksum-failing record. Counted and never served.
    Corrupt,
}

/// Classifies one line; `is_last_line` says whether a missing closing
/// brace is a torn tail (expected) or mid-file damage.
pub(crate) fn classify_line(line: &str, is_last_line: bool) -> Line {
    let trimmed = line.trim_end();
    if !trimmed.ends_with('}') {
        return if is_last_line {
            Line::Torn
        } else {
            Line::Corrupt
        };
    }
    let Ok(record) = json::parse(trimmed) else {
        return Line::Corrupt;
    };
    let kind = record.get("kind").and_then(Value::as_str);
    let version = record.get("version").and_then(Value::as_u64);
    match (kind, version) {
        (Some("meta"), _) => Line::Skip,
        // Pre-checksum records are trusted as-is (nothing better exists).
        (Some("cell"), Some(LEGACY_JOURNAL_VERSION)) => cell_fields(&record),
        // A current-version record must checksum: a line claiming v2
        // with a missing or wrong `ck` is damage, not a foreign schema.
        (Some("cell"), Some(JOURNAL_VERSION)) if verify_checksum(trimmed) => cell_fields(&record),
        (Some("cell"), Some(v)) if v != JOURNAL_VERSION => Line::Skip,
        _ => Line::Corrupt,
    }
}

fn cell_fields(record: &Value) -> Line {
    match (record.req("fp", Value::as_str), read_stats(record)) {
        (Ok(fp), Ok(stats)) => Line::Cell(fp.to_string(), stats),
        _ => Line::Corrupt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::unescape;

    /// The servable cell on one line, if any.
    fn parse_cell_line(line: &str) -> Option<(String, SimStats)> {
        match classify_line(line, false) {
            Line::Cell(fp, stats) => Some((fp, stats)),
            _ => None,
        }
    }

    fn stats(seed: u64) -> SimStats {
        SimStats {
            cycles: seed,
            insts: seed + 1,
            nullified: seed + 2,
            branches: seed + 3,
            mispredicts: seed + 4,
            loads: seed + 5,
            stores: seed + 6,
            icache_misses: seed + 7,
            dcache_misses: seed + 8,
            ret: -(seed as i64),
        }
    }

    #[test]
    fn fnv64_is_stable() {
        // Pinned reference values: the fingerprint scheme depends on this
        // hash never changing across versions or platforms.
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv64(b"ab"), fnv64(b"ba"));
    }

    #[test]
    fn cell_lines_round_trip_exactly() {
        let s = stats(1000);
        let entry = JournalEntry {
            fingerprint: "deadbeef00112233",
            workload: "wc",
            experiment: "Figure 8: 8-issue, 1-branch, perfect caches",
            model: Some(Model::FullPred),
            stats: &s,
        };
        let line = cell_line(&entry);
        let (fp, parsed) = parse_cell_line(line.trim_end()).expect("parses");
        assert_eq!(fp, "deadbeef00112233");
        assert_eq!(parsed, s, "stats must round-trip bit-identically");
    }

    #[test]
    fn escaping_round_trips() {
        let ugly = "quote \" backslash \\ newline \n done";
        assert_eq!(unescape(&escape(ugly)), ugly);
        let line = format!("{{\"kind\":\"x\",\"name\":\"{}\"}}", escape(ugly));
        assert_eq!(field_str(&line, "name").as_deref(), Some(ugly));
    }

    /// Lines written before control characters were escaped hold them
    /// raw; they must still load, checksum intact.
    #[test]
    fn raw_tab_lines_still_load_and_pass_their_checksum() {
        let s = stats(5);
        let line = cell_line(&JournalEntry {
            fingerprint: "00112233deadbeef",
            workload: "tab\there",
            experiment: "Figure 8",
            model: None,
            stats: &s,
        });
        // Rewrite as the older writer did: raw tab, checksum over the
        // raw bytes.
        let body = &line[..line.rfind(CK_MARKER).expect("checksum suffix")];
        let body = body.replace("\\t", "\t");
        let legacy = format!("{body},\"ck\":\"{:016x}\"}}\n", fnv64(body.as_bytes()));
        assert!(legacy.contains('\t'));
        let (fp, parsed) = parse_cell_line(&legacy).expect("raw-tab line loads");
        assert_eq!(fp, "00112233deadbeef");
        assert_eq!(parsed, s);
        assert_eq!(field_str(&legacy, "workload").as_deref(), Some("tab\there"));

        let j = open_with("raw-tab", legacy.as_bytes());
        assert_eq!((j.len(), j.corrupt()), (1, 0));
        assert_eq!(j.get("00112233deadbeef"), Some(s));
    }

    #[test]
    fn torn_and_foreign_lines_are_skipped() {
        // Torn line: a crash mid-append leaves no closing brace.
        assert!(
            parse_cell_line("{\"kind\":\"cell\",\"version\":1,\"fp\":\"ab\",\"cycles\":4")
                .is_none()
        );
        // Meta record and foreign schema versions are not cells.
        assert!(parse_cell_line("{\"kind\":\"meta\",\"version\":1}").is_none());
        let s = stats(5);
        let line = cell_line(&JournalEntry {
            fingerprint: "ff",
            workload: "w",
            experiment: "baseline",
            model: None,
            stats: &s,
        });
        let foreign = line.replace(&format!("\"version\":{JOURNAL_VERSION}"), "\"version\":99");
        assert!(parse_cell_line(foreign.trim_end()).is_none());
        assert!(parse_cell_line(line.trim_end()).is_some());
    }

    /// Rewrites a current-version line as its version-1 (pre-checksum)
    /// equivalent: `ck` suffix stripped, version field downgraded.
    fn legacy_line(line: &str) -> String {
        let trimmed = line.trim_end();
        let at = trimmed.rfind(",\"ck\":\"").expect("v2 line has a ck");
        format!("{}}}\n", &trimmed[..at]).replace(
            &format!("\"version\":{JOURNAL_VERSION}"),
            &format!("\"version\":{LEGACY_JOURNAL_VERSION}"),
        )
    }

    #[test]
    fn checksum_catches_a_flipped_bit() {
        let s = stats(7);
        let line = cell_line(&JournalEntry {
            fingerprint: "aa",
            workload: "w",
            experiment: "baseline",
            model: Some(Model::FullPred),
            stats: &s,
        });
        assert!(parse_cell_line(line.trim_end()).is_some());
        // Flip one digit of the cycles field: still perfectly
        // well-formed JSON, but the checksum no longer verifies.
        let flipped = line.replace("\"cycles\":7", "\"cycles\":8");
        assert_ne!(flipped, line);
        assert!(
            parse_cell_line(flipped.trim_end()).is_none(),
            "a silent payload flip must not be served"
        );
        // And a flipped line mid-file is counted as corruption.
        let content = format!("{line}{flipped}");
        let j = open_with("bitflip", content.as_bytes());
        assert_eq!(j.len(), 1);
        assert_eq!(j.get("aa"), Some(s));
        assert_eq!(j.corrupt(), 1);
    }

    #[test]
    fn legacy_v1_lines_without_checksum_still_load() {
        let s = stats(11);
        let line = cell_line(&JournalEntry {
            fingerprint: "old",
            workload: "w",
            experiment: "baseline",
            model: None,
            stats: &s,
        });
        let v1 = legacy_line(&line);
        assert!(!v1.contains("\"ck\""));
        let (fp, parsed) = parse_cell_line(v1.trim_end()).expect("legacy line parses");
        assert_eq!(fp, "old");
        assert_eq!(parsed, s);
        // A v2 line with the checksum chopped off is damage, not legacy.
        let chopped = format!(
            "{}}}\n",
            line.trim_end()
                .split(",\"ck\":\"")
                .next()
                .expect("has a ck suffix")
        );
        assert!(parse_cell_line(chopped.trim_end()).is_none());
        let j = open_with("legacy", format!("{v1}{chopped}").as_bytes());
        assert_eq!(j.len(), 1, "v1 loads; chopped v2 does not");
        assert_eq!(j.corrupt(), 1, "the chopped v2 line is corruption");
    }

    #[test]
    fn journal_persists_and_reloads() {
        let dir = std::env::temp_dir().join("hyperpred-journal-unit");
        let _ = std::fs::remove_dir_all(&dir);

        let s1 = stats(10);
        let s2 = stats(20);
        let path = {
            let j = Store::open(&dir).unwrap();
            assert!(j.is_empty());
            j.put(&JournalEntry {
                fingerprint: "aa",
                workload: "w1",
                experiment: "baseline",
                model: None,
                stats: &s1,
            })
            .unwrap();
            j.put(&JournalEntry {
                fingerprint: "bb",
                workload: "w2",
                experiment: "Figure 8",
                model: Some(Model::CondMove),
                stats: &s2,
            })
            .unwrap();
            assert_eq!(j.get("aa"), Some(s1.clone()));
            j.segment_path()
        };
        // Simulate a crash mid-append: a torn half-line at the tail.
        {
            use std::io::Write;
            let mut f = std::fs::OpenOptions::new()
                .append(true)
                .open(&path)
                .unwrap();
            write!(f, "{{\"kind\":\"cell\",\"version\":1,\"fp\":\"cc\",\"cyc").unwrap();
        }
        let j = Store::open(&dir).unwrap();
        assert_eq!(j.len(), 2, "torn tail must be dropped, not fatal");
        assert_eq!(j.corrupt(), 0, "a torn tail is expected, not corruption");
        assert_eq!(j.get("aa"), Some(s1));
        assert_eq!(j.get("bb"), Some(s2));
        assert_eq!(j.get("cc"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Writes `content` as the only segment of a fresh store and opens it.
    fn open_with(name: &str, content: &[u8]) -> Store {
        let dir = std::env::temp_dir().join(format!("hyperpred-journal-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("seg-00000000-0000.jsonl"), content).unwrap();
        Store::open(&dir).unwrap()
    }

    /// A string field of one JSON line, through the one reader.
    fn field_str(line: &str, key: &str) -> Option<String> {
        Some(
            json::parse(line.trim_end())
                .ok()?
                .get(key)?
                .as_str()?
                .to_string(),
        )
    }

    #[test]
    fn mid_file_garbage_is_skipped_and_counted() {
        let s = stats(3);
        let good = cell_line(&JournalEntry {
            fingerprint: "aa",
            workload: "w",
            experiment: "baseline",
            model: None,
            stats: &s,
        });
        let good2 = cell_line(&JournalEntry {
            fingerprint: "bb",
            workload: "w",
            experiment: "baseline",
            model: None,
            stats: &s,
        });
        let content = format!(
            "{{\"kind\":\"meta\",\"version\":1,\"crate_version\":\"0.0.0\"}}\n\
             {good}\
             not json at all\n\
             {{\"kind\":\"cell\",\"version\":1,\"fp\":\"tr\",\"cycles\":9\n\
             {{\"kind\":\"cell\",\"version\":99,\"fp\":\"zz\",\"cycles\":1}}\n\
             {good2}"
        );
        let j = open_with("garbage", content.as_bytes());
        assert_eq!(j.len(), 2, "both intact cells survive");
        assert_eq!(j.get("aa"), Some(s.clone()));
        assert!(j.get("bb").is_some());
        // "not json at all" and the *mid-file* truncated cell are corrupt;
        // the meta record and the foreign-version cell are expected skips.
        assert_eq!(j.corrupt(), 2);
    }

    #[test]
    fn fuzzed_corruption_never_errors_and_keeps_intact_records() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut r = StdRng::seed_from_u64(0x10ad_f00d);
        for case in 0..64u32 {
            // Build a valid journal of a few cells...
            let n = r.gen_range(1..6usize);
            let mut lines: Vec<String> = vec![format!(
                "{{\"kind\":\"meta\",\"version\":{JOURNAL_VERSION},\"crate_version\":\"x\"}}\n"
            )];
            let mut fps = Vec::new();
            for i in 0..n {
                let s = stats(r.gen_range(0..1000));
                let fp = format!("fp{case}-{i}");
                lines.push(cell_line(&JournalEntry {
                    fingerprint: &fp,
                    workload: "w",
                    experiment: "baseline",
                    model: Some(Model::Superblock),
                    stats: &s,
                }));
                fps.push(fp);
            }
            // ...then smash it: mutate, truncate, or inject garbage lines.
            let mut damaged: Vec<String> = Vec::new();
            let mut intact: Vec<usize> = Vec::new();
            for (idx, line) in lines.iter().enumerate() {
                match r.gen_range(0..4u32) {
                    // Keep the line intact.
                    0 | 1 => {
                        if idx > 0 {
                            intact.push(idx - 1);
                        }
                        damaged.push(line.clone());
                    }
                    // Truncate it mid-record.
                    2 => {
                        let cut = r.gen_range(1..line.len());
                        let mut cut_at = cut;
                        while !line.is_char_boundary(cut_at) {
                            cut_at -= 1;
                        }
                        damaged.push(format!("{}\n", &line[..cut_at].trim_end()));
                    }
                    // Replace it with random bytes (printable, so the
                    // line structure survives; binary junk is covered by
                    // the truncation arm losing the closing brace).
                    _ => {
                        let len = r.gen_range(1..40usize);
                        let junk: String =
                            (0..len).map(|_| r.gen_range(b'#'..b'z') as char).collect();
                        damaged.push(format!("{junk}\n"));
                    }
                }
            }
            let content = damaged.concat();
            // Opening must never error, and every intact cell must load.
            let j = open_with(&format!("fuzz-{case}"), content.as_bytes());
            for &i in &intact {
                if i < fps.len() {
                    assert!(
                        j.get(&fps[i]).is_some(),
                        "case {case}: intact cell {} must survive corruption",
                        fps[i]
                    );
                }
            }
            assert!(j.len() <= n, "case {case}: no phantom cells");
        }
    }
}
