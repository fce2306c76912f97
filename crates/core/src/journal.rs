//! Durable run journal: crash-safe resume for matrix runs.
//!
//! A [`RunJournal`] is an append-only JSONL file (hand-rolled, like
//! `BENCH_hotpath.json` — no serde in the tree) recording the exact
//! [`SimStats`] of every completed matrix cell, keyed by a *config
//! fingerprint*. A run handed a journal skips already-journaled cells by
//! copying their stats back bit-identically and re-runs only missing or
//! previously-failed cells, so a killed process loses at most the cells
//! that were in flight.
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
//! # File format
//!
//! One JSON object per line. The first line is a `meta` record; every
//! completed cell appends a `cell` record:
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
//! are still accepted, so old journals and stores load unchanged.
//!
//! Only successful cells are journaled — failures re-run on resume.
//! Loading tolerates a torn trailing line (a crash mid-append) and skips
//! records whose per-line `version` is neither [`JOURNAL_VERSION`] nor
//! [`LEGACY_JOURNAL_VERSION`]; both simply fall back to re-running the
//! cell.

use hyperpred_sim::{CacheConfig, MemoryModel, SimStats};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

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

/// What happened to one [`RunJournal::record`]/[`Store::put`] call.
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

/// The fingerprint → stats index shared by [`RunJournal`] and [`Store`]:
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

/// The durable journal: an in-memory fingerprint → stats map backed by an
/// append-only JSONL file. Appends are a single `write` + flush under a
/// mutex, so concurrent workers interleave whole lines, never bytes.
pub struct RunJournal {
    path: PathBuf,
    cells: Mutex<CellIndex>,
    file: Mutex<File>,
    /// Corrupt records skipped while loading (see [`RunJournal::corrupt`]).
    corrupt: usize,
}

impl std::fmt::Debug for RunJournal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunJournal")
            .field("path", &self.path)
            .field("cells", &self.len())
            .finish()
    }
}

impl RunJournal {
    /// Opens (creating if absent) the journal at `path` and loads every
    /// valid `cell` record. A torn trailing line or a record with a
    /// mismatched schema version is skipped, not an error.
    ///
    /// # Errors
    /// Fails only on I/O errors (unreadable file, uncreatable path).
    pub fn open(path: impl AsRef<Path>) -> io::Result<RunJournal> {
        let path = path.as_ref().to_path_buf();
        // Lossy read: a disk-corrupted byte becomes U+FFFD and fails that
        // line's checksum; it must not make the whole journal unreadable.
        let existing = match std::fs::read(&path) {
            Ok(bytes) => String::from_utf8_lossy(&bytes).into_owned(),
            Err(e) if e.kind() == io::ErrorKind::NotFound => String::new(),
            Err(e) => return Err(e),
        };
        let mut cells = CellIndex::default();
        let mut corrupt = 0usize;
        let lines: Vec<&str> = existing.lines().collect();
        for (idx, line) in lines.iter().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            if let Some((fp, stats)) = parse_cell_line(line) {
                cells.insert(&fp, stats);
                continue;
            }
            // Expected skips: meta records, a torn *final* line (crash
            // mid-append), and foreign-version cells (schema change).
            // Anything else — including a checksum-failing line — is
            // corruption: skipped, but counted, so drivers can report a
            // damaged journal instead of silently re-running an
            // unexpected number of cells.
            if !is_expected_skip(line, idx + 1 == lines.len()) {
                corrupt += 1;
            }
        }
        let mut file = OpenOptions::new().create(true).append(true).open(&path)?;
        if existing.is_empty() {
            let meta = format!(
                "{{\"kind\":\"meta\",\"version\":{JOURNAL_VERSION},\"crate_version\":\"{}\"}}\n",
                env!("CARGO_PKG_VERSION")
            );
            file.write_all(meta.as_bytes())?;
            file.flush()?;
        }
        Ok(RunJournal {
            path,
            cells: Mutex::new(cells),
            file: Mutex::new(file),
            corrupt,
        })
    }

    /// The file backing this journal.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of corrupt (unparseable, non-torn-tail) records skipped
    /// while loading. A nonzero count means the file was damaged — every
    /// intact record is still used; the damaged cells simply re-run.
    pub fn corrupt(&self) -> usize {
        self.corrupt
    }

    /// Number of journaled cells served by lookups (conflicted keys are
    /// quarantined and excluded).
    pub fn len(&self) -> usize {
        self.cells
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// True when no cells are journaled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of conflicted fingerprints: keys observed with two
    /// different stat payloads (see [`JournalConflict`]). Like
    /// [`RunJournal::corrupt`], nonzero means the file cannot be fully
    /// trusted — the conflicted cells simply re-run.
    pub fn conflicts(&self) -> usize {
        self.cells
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .conflicts()
    }

    /// Every detected conflict, sorted by fingerprint.
    pub fn conflict_report(&self) -> Vec<JournalConflict> {
        self.cells
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .conflict_report()
    }

    /// The journaled stats for `fingerprint`, if any. A conflicted
    /// fingerprint is never served: the journal cannot know which of the
    /// competing payloads is right, and a wrong bit-identical "resume"
    /// is strictly worse than a recompute.
    pub fn lookup(&self, fingerprint: &str) -> Option<SimStats> {
        self.cells
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .lookup(fingerprint)
    }

    /// Appends one completed cell: a single line written and flushed
    /// atomically with respect to other appends, then mirrored into the
    /// in-memory map.
    ///
    /// An entry identical to one already journaled is a no-op
    /// ([`RecordOutcome::Duplicate`]). An entry whose fingerprint is
    /// already journaled with *different* stats quarantines the key
    /// ([`RecordOutcome::Conflict`]): the conflicting line is still
    /// appended — so a plain reload of the file re-detects the conflict —
    /// but lookups stop serving the key and [`RunJournal::conflicts`]
    /// counts it. The historical behavior was a silent last-write-wins.
    ///
    /// # Errors
    /// Fails on I/O errors; the in-memory map is updated regardless, so a
    /// full disk degrades durability, not correctness, of the current run.
    pub fn record(&self, entry: &JournalEntry<'_>) -> io::Result<RecordOutcome> {
        let line = cell_line(entry);
        let outcome = self
            .cells
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(entry.fingerprint, entry.stats.clone());
        if outcome == RecordOutcome::Duplicate {
            return Ok(outcome);
        }
        let mut file = self.file.lock().unwrap_or_else(PoisonError::into_inner);
        file.write_all(line.as_bytes())?;
        file.flush()?;
        Ok(outcome)
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
    let s = entry.stats;
    let mut line = format!(
        "{{\"kind\":\"cell\",\"version\":{JOURNAL_VERSION},\"fp\":\"{}\",\
         \"workload\":\"{}\",\"experiment\":\"{}\",\"model\":\"{}\",\
         \"cycles\":{},\"insts\":{},\"nullified\":{},\"branches\":{},\
         \"mispredicts\":{},\"loads\":{},\"stores\":{},\
         \"icache_misses\":{},\"dcache_misses\":{},\"ret\":{}",
        escape(entry.fingerprint),
        escape(entry.workload),
        escape(entry.experiment),
        model_slug(entry.model),
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
    );
    let ck = fnv64(line.as_bytes());
    line.push_str(&format!(",\"ck\":\"{ck:016x}\"}}\n"));
    line
}

/// The `,"ck":"` marker that opens the checksum suffix. Safe to locate
/// with `rfind`: [`escape`] turns every `"` inside a value into `\"`,
/// so this exact byte sequence cannot occur inside field data.
const CK_MARKER: &str = ",\"ck\":\"";

/// Verifies the checksum suffix of a current-version line. `None` when
/// the suffix is missing, malformed, or does not match the bytes.
fn verify_checksum(trimmed: &str) -> Option<()> {
    let at = trimmed.rfind(CK_MARKER)?;
    let hex = trimmed[at + CK_MARKER.len()..].strip_suffix("\"}")?;
    let ck = u64::from_str_radix(hex, 16).ok()?;
    if ck == fnv64(&trimmed.as_bytes()[..at]) {
        Some(())
    } else {
        None
    }
}

/// Parses one line; `None` for meta records, foreign versions, torn,
/// checksum-failing, or malformed lines (all of which just mean "re-run
/// that cell" — the caller classifies which are *expected*).
pub(crate) fn parse_cell_line(line: &str) -> Option<(String, SimStats)> {
    let trimmed = line.trim_end();
    if !trimmed.ends_with('}') {
        return None; // torn trailing line from a crash mid-append
    }
    if field_str(line, "kind")? != "cell" {
        return None;
    }
    match field_u64(line, "version")? {
        // Pre-checksum records are trusted as-is (nothing better exists).
        LEGACY_JOURNAL_VERSION => {}
        // A current-version record must checksum: a line claiming v2
        // with a missing or wrong `ck` is damage, not a foreign schema.
        JOURNAL_VERSION => verify_checksum(trimmed)?,
        _ => return None,
    }
    let fp = field_str(line, "fp")?;
    let stats = SimStats {
        cycles: field_u64(line, "cycles")?,
        insts: field_u64(line, "insts")?,
        nullified: field_u64(line, "nullified")?,
        branches: field_u64(line, "branches")?,
        mispredicts: field_u64(line, "mispredicts")?,
        loads: field_u64(line, "loads")?,
        stores: field_u64(line, "stores")?,
        icache_misses: field_u64(line, "icache_misses")?,
        dcache_misses: field_u64(line, "dcache_misses")?,
        ret: field_i64(line, "ret")?,
    };
    Some((fp, stats))
}

/// Classifies a line [`parse_cell_line`] rejected: `true` when the skip
/// is *expected* (meta record, foreign-but-recognized schema version, or
/// a torn final line from a crash mid-append), `false` when it is
/// corruption the caller should count. Shared by [`RunJournal::open`],
/// the store's segment scanner, and `fsck` so all three agree on what
/// "damaged" means.
pub(crate) fn is_expected_skip(line: &str, is_last_line: bool) -> bool {
    let kind = field_str(line, "kind");
    let is_meta = kind.as_deref() == Some("meta");
    let is_foreign_cell = kind.as_deref() == Some("cell")
        && field_u64(line, "version")
            .is_some_and(|v| v != JOURNAL_VERSION && v != LEGACY_JOURNAL_VERSION);
    let is_torn_tail = is_last_line && !line.trim_end().ends_with('}');
    is_meta || is_foreign_cell || is_torn_tail
}

/// Escapes a string as a JSON string body (RFC 8259): backslash, quote,
/// and every control character below U+0020 — `\n`, `\r` and `\t` by
/// name, the rest as `\u00XX`.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if c < ' ' => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Decodes a JSON string body: every RFC 8259 escape, including UTF-16
/// surrogate pairs. A lone surrogate or an invalid escape decodes to
/// U+FFFD. Raw characters pass through unchanged, so records written
/// before control characters were escaped still read back as written.
pub(crate) fn unescape(s: &str) -> String {
    const BAD: char = char::REPLACEMENT_CHARACTER;
    let mut out = String::with_capacity(s.len());
    let mut rest = s;
    while let Some(at) = rest.find('\\') {
        out.push_str(&rest[..at]);
        rest = &rest[at + 1..];
        let Some(c) = rest.chars().next() else {
            out.push(BAD);
            break;
        };
        rest = &rest[c.len_utf8()..];
        out.push(match c {
            '"' | '\\' | '/' => c,
            'n' => '\n',
            'r' => '\r',
            't' => '\t',
            'b' => '\u{8}',
            'f' => '\u{c}',
            'u' => match hex4(rest) {
                Some(hi @ 0xD800..=0xDBFF) => {
                    rest = &rest[4..];
                    match rest.strip_prefix("\\u").and_then(hex4) {
                        Some(lo @ 0xDC00..=0xDFFF) => {
                            rest = &rest[6..];
                            char::from_u32(0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00))
                                .unwrap_or(BAD)
                        }
                        _ => BAD,
                    }
                }
                Some(unit) => {
                    rest = &rest[4..];
                    char::from_u32(unit).unwrap_or(BAD)
                }
                None => BAD,
            },
            _ => BAD,
        });
    }
    out.push_str(rest);
    out
}

/// The four hex digits opening `s`, as a UTF-16 code unit.
fn hex4(s: &str) -> Option<u32> {
    let digits = s.get(..4)?;
    if !digits.bytes().all(|b| b.is_ascii_hexdigit()) {
        return None;
    }
    u32::from_str_radix(digits, 16).ok()
}

/// Extracts `"key":"value"` (escape-aware) from a hand-rolled JSON line.
pub(crate) fn field_str(json: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat)? + pat.len();
    let rest = json[at..].trim_start().strip_prefix('"')?;
    let mut end = None;
    let mut escaped = false;
    for (i, c) in rest.char_indices() {
        if escaped {
            escaped = false;
        } else if c == '\\' {
            escaped = true;
        } else if c == '"' {
            end = Some(i);
            break;
        }
    }
    Some(unescape(&rest[..end?]))
}

/// Extracts an unsigned integer field from a hand-rolled JSON line.
pub(crate) fn field_u64(json: &str, key: &str) -> Option<u64> {
    field_number(json, key)?.parse().ok()
}

/// Extracts a signed integer field from a hand-rolled JSON line.
pub(crate) fn field_i64(json: &str, key: &str) -> Option<i64> {
    field_number(json, key)?.parse().ok()
}

fn field_number<'a>(json: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":");
    let at = json.find(&pat)? + pat.len();
    let rest = json[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '-'))
        .unwrap_or(rest.len());
    if end == 0 {
        return None;
    }
    Some(&rest[..end])
}

#[cfg(test)]
mod tests {
    use super::*;

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
        assert_eq!(j.lookup("00112233deadbeef"), Some(s));
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
        assert_eq!(j.lookup("aa"), Some(s));
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
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");

        let s1 = stats(10);
        let s2 = stats(20);
        {
            let j = RunJournal::open(&path).unwrap();
            assert!(j.is_empty());
            j.record(&JournalEntry {
                fingerprint: "aa",
                workload: "w1",
                experiment: "baseline",
                model: None,
                stats: &s1,
            })
            .unwrap();
            j.record(&JournalEntry {
                fingerprint: "bb",
                workload: "w2",
                experiment: "Figure 8",
                model: Some(Model::CondMove),
                stats: &s2,
            })
            .unwrap();
            assert_eq!(j.lookup("aa"), Some(s1.clone()));
        }
        // Simulate a crash mid-append: a torn half-line at the tail.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            write!(f, "{{\"kind\":\"cell\",\"version\":1,\"fp\":\"cc\",\"cyc").unwrap();
        }
        let j = RunJournal::open(&path).unwrap();
        assert_eq!(j.len(), 2, "torn tail must be dropped, not fatal");
        assert_eq!(j.corrupt(), 0, "a torn tail is expected, not corruption");
        assert_eq!(j.lookup("aa"), Some(s1));
        assert_eq!(j.lookup("bb"), Some(s2));
        assert_eq!(j.lookup("cc"), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Writes `lines` to a fresh journal file and opens it.
    fn open_with(name: &str, content: &[u8]) -> RunJournal {
        let dir = std::env::temp_dir().join(format!("hyperpred-journal-{name}"));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.jsonl");
        std::fs::write(&path, content).unwrap();
        RunJournal::open(&path).unwrap()
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
        assert_eq!(j.lookup("aa"), Some(s.clone()));
        assert!(j.lookup("bb").is_some());
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
                        j.lookup(&fps[i]).is_some(),
                        "case {case}: intact cell {} must survive corruption",
                        fps[i]
                    );
                }
            }
            assert!(j.len() <= n, "case {case}: no phantom cells");
        }
    }
}
