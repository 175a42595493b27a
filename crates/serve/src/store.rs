//! The crash-safe persistent proof store behind `seqver serve`.
//!
//! Persistence is split into two files:
//!
//! * a **snapshot** (`--store PATH`) — the whole store rendered in one
//!   text file: per-program **records** (fingerprint, definitive verdict,
//!   refinement round count, and the harvested Floyd/Hoare assertions in
//!   their pool-independent [`ExportedTerm`] text form), a bounded set of
//!   exported **query-cache entries**, and a `seq:` high-water mark saying
//!   which journal frames it already contains;
//! * a **write-ahead journal** (`PATH.wal`) — an append-only sequence of
//!   [`gemcutter::snapshot::journal_frame`]s, one per newly persisted
//!   record, each carrying its own FNV-1a checksum and a monotone
//!   sequence number.
//!
//! A served verdict is persisted by *appending* one frame and fsyncing
//! the journal — O(record), not O(store) — and the daemon acknowledges
//! the client only after that fsync, so an `OK` response means durable.
//! Appends are staged in a user-space buffer and written by a
//! group-commit leader ([`SharedStore::commit`]): one write + one fsync
//! covers every record staged while the previous fsync was in flight.
//! Background **compaction** folds the journal back into the snapshot
//! (atomic tmp + rename + dir fsync, [`write_atomic_durable_with`])
//! once the journal outgrows a configurable ratio of the snapshot, then
//! truncates the journal; crashing *anywhere* inside compaction is safe
//! because replay skips frames at or below the snapshot's `seq:` mark.
//!
//! Robustness contract:
//!
//! * **Torn-tail recovery** — replay applies the longest valid frame
//!   prefix, truncates the journal at the first bad frame, and keeps
//!   going; stale or duplicated frames (the residue of a compaction
//!   crash) are skipped, never double-applied.
//! * **Per-record checksums** — every record, frame and query-cache entry
//!   carries an FNV-1a checksum over its own body *including the
//!   fingerprint/sequence key*, so a flipped bit anywhere (even one that
//!   would re-home a record) drops exactly that entry.
//! * **Lenient loading** — [`ProofStore::open`] never panics and never
//!   fails: a missing file is a fresh store, a wrong version or missing
//!   `end` marker is a cold snapshot, and a corrupt record or frame is
//!   dropped with a warning while intact siblings survive. The worst
//!   corruption can do is cost warm starts.
//! * **Soundness regardless** — even a record that passes its checksum is
//!   only ever *advice*: assertions are re-validated by Hoare queries when
//!   seeded, query-cache `Sat` models are re-validated by evaluation, and
//!   a stored verdict is only served for an exact fingerprint match of a
//!   program this build already verified.
//!
//! Every durability site is instrumented with [`CrashSite`] charges so the
//! crash-point sweep can abort the process between any two steps and
//! assert what the next process recovers.

use crate::crash::{CrashPlan, CrashSite};
use gemcutter::certify::Certificate;
use gemcutter::snapshot::{
    fnv1a, journal_frame, replay_journal, write_atomic_durable, write_atomic_durable_with,
    WriteStage,
};
use smt::qcache::CachedVerdict;
use smt::transfer::ExportedTerm;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

/// First line of a store snapshot file.
pub const STORE_HEADER: &str = "seqver-store v2";
/// The previous snapshot version: identical except it has no `seq:` line.
const STORE_HEADER_V1: &str = "seqver-store v1";
/// Trailing completeness marker.
const FOOTER: &str = "end";

/// The journal that belongs to the snapshot at `store`.
pub fn journal_path(store: &Path) -> PathBuf {
    let mut name = store
        .file_name()
        .map(|n| n.to_os_string())
        .unwrap_or_else(|| "proofs.store".into());
    name.push(".wal");
    store.with_file_name(name)
}

/// A definitive verdict worth persisting. `GaveUp` outcomes are
/// deliberately unrepresentable: they depend on the budgets of the run
/// that produced them, so replaying one from disk could mask a verdict a
/// better-resourced rerun would reach.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StoredVerdict {
    Correct,
    /// The witness interleaving as statement letter indices.
    Incorrect(Vec<u32>),
}

impl StoredVerdict {
    fn to_line(&self) -> String {
        match self {
            StoredVerdict::Correct => "correct".to_owned(),
            StoredVerdict::Incorrect(trace) => {
                let letters: Vec<String> = trace.iter().map(u32::to_string).collect();
                format!("incorrect {}", letters.join(" "))
                    .trim_end()
                    .to_owned()
            }
        }
    }

    fn parse(s: &str) -> Result<StoredVerdict, String> {
        if s == "correct" {
            return Ok(StoredVerdict::Correct);
        }
        if let Some(trace) = s.strip_prefix("incorrect") {
            let letters: Result<Vec<u32>, _> = trace.split_whitespace().map(str::parse).collect();
            return letters
                .map(StoredVerdict::Incorrect)
                .map_err(|_| format!("invalid trace in stored verdict `{s}`"));
        }
        Err(format!("unknown stored verdict `{s}`"))
    }
}

/// One program's persisted result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreRecord {
    /// [`gemcutter::snapshot::program_fingerprint`] of the program.
    pub fingerprint: u64,
    /// Program name — the near-duplicate warm-start key: a resubmitted
    /// program whose fingerprint changed but whose name matches seeds
    /// from this record's assertions.
    pub name: String,
    pub verdict: StoredVerdict,
    /// Refinement rounds the original run took (reported on store hits).
    pub rounds: u64,
    /// Harvested proof assertions, discovery order.
    pub assertions: Vec<ExportedTerm>,
    /// The winning run's verdict certificate, re-checked before this
    /// record's verdict is ever served warm. `None` for records written by
    /// pre-certificate builds or runs whose recording hit a budget.
    pub certificate: Option<Certificate>,
}

impl StoreRecord {
    /// The checksummed body: every line after the `record:` line through
    /// `end-record`, exactly as written.
    fn body(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!("name: {}\n", self.name.replace(['\n', '\r'], " ")));
        out.push_str(&format!("verdict: {}\n", self.verdict.to_line()));
        out.push_str(&format!("rounds: {}\n", self.rounds));
        for a in &self.assertions {
            out.push_str(&format!("assertion: {}\n", a.to_text()));
        }
        if let Some(cert) = &self.certificate {
            for line in cert.to_lines() {
                out.push_str(&format!("cert: {line}\n"));
            }
        }
        out.push_str("end-record\n");
        out
    }

    /// Checksum over fingerprint *and* body, so a bit flip in the
    /// `record:` header line (which would re-home the record under a
    /// different program) is caught exactly like one in the body.
    fn checksum(&self) -> u64 {
        fnv1a(format!("{:016x}\n{}", self.fingerprint, self.body()).as_bytes())
    }

    /// The record's full text form — the same bytes whether it sits in a
    /// snapshot or inside a journal frame body.
    pub fn to_text(&self) -> String {
        format!(
            "record: {:016x} {:016x}\n{}",
            self.fingerprint,
            self.checksum(),
            self.body()
        )
    }

    /// Parses one record given its header fields and body lines.
    fn parse(fingerprint: u64, declared: u64, body: &str) -> Result<StoreRecord, String> {
        let actual = fnv1a(format!("{fingerprint:016x}\n{body}").as_bytes());
        if actual != declared {
            return Err(format!(
                "record {fingerprint:016x}: checksum mismatch (declared {declared:016x}, \
                 computed {actual:016x})"
            ));
        }
        let mut record = StoreRecord {
            fingerprint,
            name: String::new(),
            verdict: StoredVerdict::Correct,
            rounds: 0,
            assertions: Vec::new(),
            certificate: None,
        };
        let mut seen_verdict = false;
        let mut cert_lines: Vec<&str> = Vec::new();
        for line in body.lines() {
            if line == "end-record" {
                break;
            }
            let (key, value) = line
                .split_once(": ")
                .ok_or_else(|| format!("malformed record line `{line}`"))?;
            match key {
                "name" => record.name = value.to_owned(),
                "verdict" => {
                    record.verdict = StoredVerdict::parse(value)?;
                    seen_verdict = true;
                }
                "rounds" => {
                    record.rounds = value
                        .parse()
                        .map_err(|_| format!("invalid rounds `{value}`"))?
                }
                "assertion" => record.assertions.push(ExportedTerm::parse(value)?),
                "cert" => cert_lines.push(value),
                other => return Err(format!("unknown record key `{other}`")),
            }
        }
        if !seen_verdict {
            return Err(format!("record {fingerprint:016x} has no verdict"));
        }
        if !cert_lines.is_empty() {
            record.certificate = Some(
                Certificate::from_lines(cert_lines.iter().copied())
                    .map_err(|e| format!("record {fingerprint:016x}: bad certificate: {e}"))?,
            );
        }
        Ok(record)
    }

    /// Parses [`StoreRecord::to_text`] back — the shape a journal frame
    /// body takes.
    pub fn parse_text(text: &str) -> Result<StoreRecord, String> {
        let (first, body) = text
            .split_once('\n')
            .ok_or_else(|| "record text has no header line".to_owned())?;
        let header = first
            .strip_prefix("record: ")
            .ok_or_else(|| format!("not a record header: `{first}`"))?;
        let (fp, sum) = parse_record_header(header)?;
        StoreRecord::parse(fp, sum, body)
    }
}

/// Counters the daemon reports in its `stats` line.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Frames staged into the journal.
    pub appends: u64,
    /// Journal `fsync`s (one per group commit, not per record).
    pub fsyncs: u64,
    /// Journal-into-snapshot compactions.
    pub compactions: u64,
    /// Frames applied from the journal at open.
    pub replayed_frames: u64,
    /// Stale/duplicate frames skipped at open (compaction-crash residue).
    pub stale_frames: u64,
}

/// The journal file plus the group-commit staging buffer. Frames are
/// staged here under the store lock and written + fsynced by the commit
/// leader outside it, so an abort before the commit genuinely loses the
/// staged frames — exactly what an unacknowledged record is allowed to
/// lose.
#[derive(Debug)]
struct Journal {
    file: File,
    /// Frames staged but not yet written to the file.
    pending: Vec<u8>,
    /// Highest sequence number in `pending` (valid when non-empty).
    pending_seq: u64,
}

/// The in-memory store plus its optional backing snapshot + journal.
#[derive(Debug)]
pub struct ProofStore {
    path: Option<PathBuf>,
    /// Insertion order, for stable rendering; at most one per fingerprint.
    records: Vec<StoreRecord>,
    by_fingerprint: HashMap<u64, usize>,
    qcache_entries: Vec<(ExportedTerm, CachedVerdict)>,
    /// `None` for in-memory stores, and for a backed store whose journal
    /// could not be opened: that store rewrites its snapshot durably on
    /// every append instead.
    journal: Option<Journal>,
    /// Sequence number the next appended frame will carry (1-based).
    next_seq: u64,
    /// Highest sequence number folded into the snapshot file.
    folded_seq: u64,
    /// Highest sequence number known to be fsynced (journal or snapshot).
    durable_seq: u64,
    /// Group-commit leader election flag (see [`SharedStore::commit`]).
    committing: bool,
    crash: Arc<CrashPlan>,
    stats: StoreStats,
    /// Bytes currently in the journal file (excludes the pending buffer).
    journal_bytes: u64,
    /// Size of the snapshot file at last write/load (compaction baseline).
    snapshot_bytes: u64,
}

impl Default for ProofStore {
    fn default() -> ProofStore {
        ProofStore {
            path: None,
            records: Vec::new(),
            by_fingerprint: HashMap::new(),
            qcache_entries: Vec::new(),
            journal: None,
            next_seq: 1,
            folded_seq: 0,
            durable_seq: 0,
            committing: false,
            crash: Arc::default(),
            stats: StoreStats::default(),
            journal_bytes: 0,
            snapshot_bytes: 0,
        }
    }
}

impl ProofStore {
    /// A store with no backing file (tests, `serve` without `--store`).
    pub fn in_memory() -> ProofStore {
        ProofStore::default()
    }

    /// Opens (or initializes) the store at `path` with no crash plan.
    pub fn open(path: &Path) -> (ProofStore, Vec<String>) {
        ProofStore::open_with(path, Arc::default())
    }

    /// Opens (or initializes) the store at `path`, leniently: the result
    /// is always usable, and every piece of the snapshot or journal that
    /// had to be dropped is described by a warning. Never panics, never
    /// errors. A torn journal tail is physically truncated so subsequent
    /// appends land on a clean prefix.
    pub fn open_with(path: &Path, crash: Arc<CrashPlan>) -> (ProofStore, Vec<String>) {
        let mut snapshot_missing = false;
        let (mut store, mut warnings) = match std::fs::read_to_string(path) {
            Ok(text) => {
                let (mut store, warnings) = ProofStore::parse(&text);
                store.snapshot_bytes = text.len() as u64;
                (store, warnings)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                snapshot_missing = true;
                (ProofStore::default(), Vec::new())
            }
            Err(e) => (
                ProofStore::default(),
                vec![format!(
                    "cannot read store `{}`: {e}; starting cold",
                    path.display()
                )],
            ),
        };
        store.path = Some(path.to_path_buf());
        store.crash = crash;

        let jpath = journal_path(path);
        let jbytes = match std::fs::read(&jpath) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => {
                warnings.push(format!(
                    "cannot read journal `{}`: {e}; its frames are lost",
                    jpath.display()
                ));
                Vec::new()
            }
        };
        if !jbytes.is_empty() {
            let replay = replay_journal(&jbytes);
            let mut applied = store.folded_seq;
            let mut stale = 0u64;
            for frame in &replay.frames {
                if frame.seq <= applied {
                    stale += 1;
                    continue;
                }
                match StoreRecord::parse_text(&frame.body) {
                    Ok(record) => {
                        store.insert(record);
                        applied = frame.seq;
                        store.stats.replayed_frames += 1;
                    }
                    Err(e) => {
                        warnings.push(format!("journal frame {:016x} dropped: {e}", frame.seq))
                    }
                }
            }
            if stale > 0 {
                store.stats.stale_frames = stale;
                warnings.push(format!(
                    "warning: skipped {stale} stale journal frame(s) already folded into \
                     the snapshot (compaction-crash residue)"
                ));
            }
            if let Some(torn) = &replay.torn {
                warnings.push(format!(
                    "warning: journal tail truncated at byte {}: {torn}",
                    replay.valid_len
                ));
                if let Err(e) = truncate_file(&jpath, replay.valid_len as u64) {
                    warnings.push(format!(
                        "cannot truncate torn journal `{}`: {e}",
                        jpath.display()
                    ));
                }
            }
            store.next_seq = applied.saturating_add(1);
            store.durable_seq = applied;
            store.journal_bytes = replay.valid_len as u64;
        }

        match OpenOptions::new().create(true).append(true).open(&jpath) {
            Ok(file) => {
                store.journal = Some(Journal {
                    file,
                    pending: Vec::new(),
                    pending_seq: store.next_seq - 1,
                })
            }
            Err(e) => warnings.push(format!(
                "cannot open journal `{}`: {e}; falling back to rewrite-per-append \
                 persistence",
                jpath.display()
            )),
        }

        // A journaled store keeps the snapshot present from the start, so
        // a crash before the first compaction still leaves a well-formed
        // (empty) snapshot plus the journal. Also folds in any frames a
        // snapshot-less journal carried.
        if snapshot_missing {
            if let Err(e) = store.write_snapshot_plain() {
                warnings.push(format!("cannot initialize store `{}`: {e}", path.display()));
            }
        }
        (store, warnings)
    }

    /// Parses a snapshot file, dropping whatever does not verify. A bad
    /// header/version or a missing `end` marker (truncation — impossible
    /// under our own atomic writer, so the file is foreign or damaged)
    /// degrades to a fully cold store.
    pub fn parse(text: &str) -> (ProofStore, Vec<String>) {
        let mut store = ProofStore::default();
        let mut warnings = Vec::new();
        let mut lines = text.lines();
        match lines.next() {
            Some(h) if h == STORE_HEADER || h == STORE_HEADER_V1 => {}
            Some(h) => {
                warnings.push(format!(
                    "unsupported store header `{h}` (this build reads `{STORE_HEADER}`); \
                     starting cold"
                ));
                return (store, warnings);
            }
            None => {
                warnings.push("empty store file; starting cold".to_owned());
                return (store, warnings);
            }
        }
        if !text.lines().any(|l| l == FOOTER) {
            warnings.push("store is truncated (no `end` marker); starting cold".to_owned());
            return (ProofStore::default(), warnings);
        }
        let mut complete = false;
        while let Some(line) = lines.next() {
            if complete {
                warnings.push("content after the `end` marker ignored".to_owned());
                break;
            }
            if line == FOOTER {
                complete = true;
                continue;
            }
            if let Some(value) = line.strip_prefix("seq: ") {
                match u64::from_str_radix(value, 16) {
                    Ok(seq) => {
                        store.folded_seq = seq;
                        store.durable_seq = seq;
                        store.next_seq = seq.saturating_add(1);
                    }
                    Err(_) => warnings.push(format!("invalid store seq line `{line}` ignored")),
                }
            } else if let Some(header) = line.strip_prefix("record: ") {
                // Collect the body through `end-record`, then verify.
                let mut body = String::new();
                let mut closed = false;
                for body_line in lines.by_ref() {
                    body.push_str(body_line);
                    body.push('\n');
                    if body_line == "end-record" {
                        closed = true;
                        break;
                    }
                    if body_line == FOOTER || body_line.starts_with("record: ") {
                        break;
                    }
                }
                if !closed {
                    warnings.push(format!("unterminated record `{header}` dropped"));
                    // The inner scan may have consumed the footer; it was
                    // already sighted by the whole-file check above, so
                    // parsing simply ends here.
                    if body.contains(&format!("\n{FOOTER}\n"))
                        || body.ends_with(&format!("{FOOTER}\n"))
                    {
                        break;
                    }
                    continue;
                }
                match parse_record_header(header)
                    .and_then(|(fp, sum)| StoreRecord::parse(fp, sum, &body))
                {
                    Ok(record) => store.insert(record),
                    Err(e) => warnings.push(format!("store record dropped: {e}")),
                }
            } else if let Some(rest) = line.strip_prefix("qcache: ") {
                match parse_qcache_line(rest) {
                    Ok(entry) => store.qcache_entries.push(entry),
                    Err(e) => warnings.push(format!("store qcache entry dropped: {e}")),
                }
            } else {
                warnings.push(format!("unrecognized store line `{line}` ignored"));
            }
        }
        (store, warnings)
    }

    /// Renders the whole snapshot, stamped with the highest sequence
    /// number it folds in (so journal replay can skip what it contains).
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(STORE_HEADER);
        out.push('\n');
        out.push_str(&format!("seq: {:016x}\n", self.next_seq - 1));
        for record in &self.records {
            out.push_str(&record.to_text());
        }
        for (key, verdict) in &self.qcache_entries {
            let body = format!("{}\t{}", verdict.to_text(), key.to_text());
            out.push_str(&format!("qcache: {:016x} {body}\n", fnv1a(body.as_bytes())));
        }
        out.push_str(FOOTER);
        out.push('\n');
        out
    }

    /// Appends one record: inserts it in memory and stages its journal
    /// frame, or — when the journal could not be opened — rewrites the
    /// whole snapshot durably. Returns the record's sequence number; a
    /// staged record is **not durable** until [`SharedStore::commit`]
    /// reports that sequence number synced.
    pub fn append(&mut self, record: StoreRecord) -> Result<u64, String> {
        let seq = self.next_seq;
        self.next_seq += 1;
        let frame_body = record.to_text();
        self.insert(record);
        match (self.path.is_some(), self.journal.as_mut()) {
            (false, _) => {
                // In-memory: nothing can be more durable than it already is.
                self.durable_seq = seq;
            }
            (true, Some(journal)) => {
                let frame = journal_frame(seq, &frame_body);
                self.crash.hit(CrashSite::PreAppend);
                journal.pending.extend_from_slice(frame.as_bytes());
                journal.pending_seq = seq;
                self.crash.hit(CrashSite::PostAppend);
                self.stats.appends += 1;
            }
            (true, None) => {
                // Degraded journal: the O(store-size) durable rewrite,
                // synchronous.
                self.write_snapshot_plain()?;
            }
        }
        Ok(seq)
    }

    /// Folds everything into the snapshot and empties the journal. Used
    /// by the background compactor and the final drain flush; instruments
    /// the compaction crash sites.
    pub fn compact(&mut self) -> Result<(), String> {
        let Some(path) = self.path.clone() else {
            return Ok(());
        };
        if self.journal.is_none() {
            return self.write_snapshot_plain();
        }
        let target = self.next_seq - 1;
        let text = self.to_text();
        write_atomic_durable_with(&path, &text, |stage| {
            self.crash.hit(match stage {
                WriteStage::TmpWritten => CrashSite::CompactTmp,
                WriteStage::PreRename => CrashSite::PreRename,
                WriteStage::PostRename => CrashSite::PostRename,
            })
        })?;
        // The snapshot now durably covers every sequence number through
        // `target`; all journal frames are stale. Truncation is cleanup,
        // not a correctness step — a crash before it only means stale
        // frames get skipped on replay.
        let journal = self.journal.as_mut().expect("journal present");
        journal.pending.clear();
        journal.pending_seq = target;
        journal
            .file
            .set_len(0)
            .map_err(|e| format!("cannot truncate journal: {e}"))?;
        let _ = journal.file.sync_all();
        self.journal_bytes = 0;
        self.snapshot_bytes = text.len() as u64;
        self.folded_seq = target;
        self.durable_seq = self.durable_seq.max(target);
        self.stats.compactions += 1;
        Ok(())
    }

    /// `true` once the journal file has outgrown `max_ratio` times the
    /// snapshot (with a small floor so a near-empty snapshot does not
    /// force compaction on every append).
    pub fn needs_compaction(&self, max_ratio: f64) -> bool {
        if self.journal.is_none() || self.path.is_none() {
            return false;
        }
        let base = self.snapshot_bytes.max(1024) as f64;
        self.journal_bytes > 0 && self.journal_bytes as f64 > max_ratio * base
    }

    /// Writes the store to its backing file durably; a no-op for
    /// in-memory stores. With a journal this compacts (fold + truncate);
    /// without one it rewrites the snapshot.
    pub fn flush(&mut self) -> Result<(), String> {
        if self.path.is_none() {
            return Ok(());
        }
        self.compact()
    }

    /// The plain (un-instrumented) durable snapshot write: used at open
    /// time, where crash-point injection would abort before the daemon
    /// ever serves, and by a store whose journal could not be opened.
    fn write_snapshot_plain(&mut self) -> Result<(), String> {
        let Some(path) = self.path.clone() else {
            return Ok(());
        };
        let text = self.to_text();
        write_atomic_durable(&path, &text)?;
        self.snapshot_bytes = text.len() as u64;
        self.folded_seq = self.next_seq - 1;
        self.durable_seq = self.durable_seq.max(self.next_seq - 1);
        Ok(())
    }

    /// Inserts (or replaces, by fingerprint) one record in memory only.
    pub fn insert(&mut self, record: StoreRecord) {
        match self.by_fingerprint.get(&record.fingerprint) {
            Some(&i) => self.records[i] = record,
            None => {
                self.by_fingerprint
                    .insert(record.fingerprint, self.records.len());
                self.records.push(record);
            }
        }
    }

    /// The record for an exact program fingerprint, if present.
    pub fn lookup(&self, fingerprint: u64) -> Option<&StoreRecord> {
        self.by_fingerprint
            .get(&fingerprint)
            .map(|&i| &self.records[i])
    }

    /// Quarantines a record: removes it from memory and, for a backed
    /// store, immediately compacts so neither the snapshot nor the
    /// journal can resurrect it on restart. Returns whether a record was
    /// present. Used when a stored certificate fails its re-check — the
    /// verdict must never be served again.
    pub fn remove(&mut self, fingerprint: u64) -> Result<bool, String> {
        let Some(i) = self.by_fingerprint.remove(&fingerprint) else {
            return Ok(false);
        };
        self.records.remove(i);
        for idx in self.by_fingerprint.values_mut() {
            if *idx > i {
                *idx -= 1;
            }
        }
        if self.path.is_some() {
            self.compact()?;
        }
        Ok(true)
    }

    /// Warm-start seeds for a program that misses by fingerprint:
    /// assertions harvested from same-name records (near-duplicate
    /// programs — edited sources keep their name), deduped in discovery
    /// order. Sound to seed because every assertion is re-validated by
    /// Hoare queries on use.
    pub fn warm_assertions(&self, name: &str, fingerprint: u64) -> Vec<ExportedTerm> {
        let mut seen = std::collections::HashSet::new();
        let mut out = Vec::new();
        for record in &self.records {
            if record.name == name && record.fingerprint != fingerprint {
                for a in &record.assertions {
                    if seen.insert(a.clone()) {
                        out.push(a.clone());
                    }
                }
            }
        }
        out
    }

    /// Replaces the persisted query-cache working set.
    pub fn set_qcache_entries(&mut self, entries: Vec<(ExportedTerm, CachedVerdict)>) {
        self.qcache_entries = entries;
    }

    /// The persisted query-cache entries (imported on startup).
    pub fn qcache_entries(&self) -> &[(ExportedTerm, CachedVerdict)] {
        &self.qcache_entries
    }

    /// All records, insertion order.
    pub fn records(&self) -> &[StoreRecord] {
        &self.records
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// `true` when the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// `true` when the store has a backing file — the precondition for a
    /// response's `durable` bit.
    pub fn persistent(&self) -> bool {
        self.path.is_some()
    }

    /// Journal/compaction counters for the daemon's stats line.
    pub fn stats(&self) -> StoreStats {
        self.stats
    }

    /// Bytes currently in the journal file.
    pub fn journal_bytes(&self) -> u64 {
        self.journal_bytes
    }

    /// Size of the snapshot at last load/write.
    pub fn snapshot_bytes(&self) -> u64 {
        self.snapshot_bytes
    }

    /// Highest sequence number known durable.
    pub fn durable_seq(&self) -> u64 {
        self.durable_seq
    }

    /// Takes the pending journal buffer for the commit leader: the file
    /// handle to write through, the staged bytes, and the highest staged
    /// sequence number. `None` when there is nothing to sync.
    fn take_pending(&mut self) -> Result<Option<(File, Vec<u8>, u64)>, String> {
        let Some(journal) = self.journal.as_mut() else {
            return Ok(None);
        };
        if journal.pending.is_empty() {
            return Ok(None);
        }
        let file = journal
            .file
            .try_clone()
            .map_err(|e| format!("cannot clone journal handle: {e}"))?;
        Ok(Some((
            file,
            std::mem::take(&mut journal.pending),
            journal.pending_seq,
        )))
    }

    /// Puts unsynced bytes back at the front of the pending buffer after
    /// a failed commit write, so a later commit can retry them in order.
    fn restash_pending(&mut self, mut bytes: Vec<u8>) {
        if let Some(journal) = self.journal.as_mut() {
            bytes.extend_from_slice(&journal.pending);
            journal.pending = bytes;
        }
    }

    /// Records a successful group commit through `target`.
    fn note_synced(&mut self, target: u64, bytes_written: u64) {
        self.durable_seq = self.durable_seq.max(target);
        self.journal_bytes += bytes_written;
        self.stats.fsyncs += 1;
    }
}

/// The store as the daemon shares it between workers, the compactor and
/// the drain path: a mutex for in-memory access plus a group-commit
/// protocol that batches journal fsyncs.
///
/// Workers append under the lock (memory-only staging) and then call
/// [`SharedStore::commit`], which elects one **leader** to write + fsync
/// everything staged so far while later appenders keep making progress;
/// followers whose sequence number the leader covered return without
/// touching the disk at all. Under load, one fsync acknowledges a whole
/// admission drain.
#[derive(Debug)]
pub struct SharedStore {
    inner: Mutex<ProofStore>,
    commit_cv: Condvar,
}

impl SharedStore {
    pub fn new(store: ProofStore) -> SharedStore {
        SharedStore {
            inner: Mutex::new(store),
            commit_cv: Condvar::new(),
        }
    }

    /// Locks the in-memory store. Poisoning is survivable here — the
    /// store's state is checksummed advice, and a panicking worker is
    /// already quarantined — so the lock is recovered, not propagated.
    pub fn lock(&self) -> MutexGuard<'_, ProofStore> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Blocks until sequence number `seq` is durable (journal fsynced or
    /// folded into a durable snapshot). Returns immediately for
    /// in-memory stores and stores without a journal, whose appends are
    /// already as durable as they will get.
    pub fn commit(&self, seq: u64) -> Result<(), String> {
        let mut guard = self.lock();
        loop {
            if guard.durable_seq >= seq {
                return Ok(());
            }
            if guard.committing {
                guard = self
                    .commit_cv
                    .wait(guard)
                    .unwrap_or_else(PoisonError::into_inner);
                continue;
            }
            let Some((file, bytes, target)) = guard.take_pending()? else {
                // Nothing staged yet durability lags `seq`: the frames
                // were folded by a racing compaction or lost to an
                // earlier failed commit that already reported its error.
                return Ok(());
            };
            guard.committing = true;
            drop(guard);
            let result = write_and_sync(&file, &bytes);
            guard = self.lock();
            guard.committing = false;
            match result {
                Ok(()) => guard.note_synced(target, bytes.len() as u64),
                Err(e) => {
                    guard.restash_pending(bytes);
                    self.commit_cv.notify_all();
                    return Err(e);
                }
            }
            self.commit_cv.notify_all();
        }
    }

    /// `true` once the journal has outgrown `max_ratio` × snapshot.
    pub fn needs_compaction(&self, max_ratio: f64) -> bool {
        self.lock().needs_compaction(max_ratio)
    }

    /// Folds the journal into the snapshot, persisting `qcache_entries`
    /// along the way. Waits out any in-flight group commit first so the
    /// fold and the commit never interleave on the file.
    pub fn compact_with_qcache(
        &self,
        qcache_entries: Vec<(ExportedTerm, CachedVerdict)>,
    ) -> Result<(), String> {
        let mut guard = self.lock();
        while guard.committing {
            guard = self
                .commit_cv
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
        guard.set_qcache_entries(qcache_entries);
        guard.compact()
    }

    /// Quarantines a record whose certificate failed its re-check: waits
    /// out any in-flight group commit (the fold and the commit must not
    /// interleave on the journal file), then removes + compacts.
    pub fn quarantine(&self, fingerprint: u64) -> Result<bool, String> {
        let mut guard = self.lock();
        while guard.committing {
            guard = self
                .commit_cv
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        }
        guard.remove(fingerprint)
    }
}

fn write_and_sync(mut file: &File, bytes: &[u8]) -> Result<(), String> {
    file.write_all(bytes)
        .map_err(|e| format!("journal write failed: {e}"))?;
    file.sync_all()
        .map_err(|e| format!("journal fsync failed: {e}"))
}

fn truncate_file(path: &Path, len: u64) -> Result<(), String> {
    let file = OpenOptions::new()
        .write(true)
        .open(path)
        .map_err(|e| e.to_string())?;
    file.set_len(len).map_err(|e| e.to_string())?;
    file.sync_all().map_err(|e| e.to_string())
}

fn parse_record_header(header: &str) -> Result<(u64, u64), String> {
    let (fp, sum) = header
        .split_once(' ')
        .ok_or_else(|| format!("malformed record header `{header}`"))?;
    let fp = u64::from_str_radix(fp, 16).map_err(|_| format!("invalid fingerprint `{fp}`"))?;
    let sum = u64::from_str_radix(sum, 16).map_err(|_| format!("invalid checksum `{sum}`"))?;
    Ok((fp, sum))
}

fn parse_qcache_line(rest: &str) -> Result<(ExportedTerm, CachedVerdict), String> {
    let (sum, body) = rest
        .split_once(' ')
        .ok_or_else(|| format!("malformed qcache line `{rest}`"))?;
    let declared =
        u64::from_str_radix(sum, 16).map_err(|_| format!("invalid qcache checksum `{sum}`"))?;
    let actual = fnv1a(body.as_bytes());
    if declared != actual {
        return Err(format!(
            "qcache entry checksum mismatch (declared {declared:016x}, computed {actual:016x})"
        ));
    }
    let (verdict, key) = body
        .split_once('\t')
        .ok_or_else(|| format!("malformed qcache body `{body}`"))?;
    Ok((ExportedTerm::parse(key)?, CachedVerdict::parse(verdict)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt::linear::Rel;

    fn atom(name: &str, k: i128) -> ExportedTerm {
        ExportedTerm::Atom {
            coeffs: vec![(name.to_owned(), 1)],
            constant: k,
            rel: Rel::Le0,
        }
    }

    fn record(fp: u64, name: &str, rounds: u64) -> StoreRecord {
        StoreRecord {
            fingerprint: fp,
            name: name.into(),
            verdict: StoredVerdict::Correct,
            rounds,
            assertions: vec![atom("x", -1)],
            certificate: None,
        }
    }

    fn sample() -> ProofStore {
        let mut store = ProofStore::in_memory();
        store.insert(StoreRecord {
            fingerprint: 0x1111,
            name: "counter".into(),
            verdict: StoredVerdict::Correct,
            rounds: 7,
            assertions: vec![atom("x", -1), ExportedTerm::And(vec![atom("y", 2)])],
            certificate: None,
        });
        store.insert(StoreRecord {
            fingerprint: 0x2222,
            name: "counter-racy".into(),
            verdict: StoredVerdict::Incorrect(vec![0, 3, 1]),
            rounds: 2,
            assertions: vec![],
            certificate: None,
        });
        store.set_qcache_entries(vec![
            (atom("z", 5), CachedVerdict::Unsat),
            (atom("w", -3), CachedVerdict::Sat(vec![("w".into(), 3)])),
        ]);
        store
    }

    fn scratch(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("seqver-store-unit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn round_trip_is_identity() {
        let store = sample();
        let (reparsed, warnings) = ProofStore::parse(&store.to_text());
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(reparsed.records(), store.records());
        assert_eq!(reparsed.qcache_entries(), store.qcache_entries());
    }

    #[test]
    fn v1_snapshots_still_load() {
        let text = sample().to_text();
        let v1 = text.replacen(STORE_HEADER, STORE_HEADER_V1, 1).replacen(
            "seq: 0000000000000000\n",
            "",
            1,
        );
        let (store, warnings) = ProofStore::parse(&v1);
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(store.records(), sample().records());
    }

    #[test]
    fn record_text_round_trips() {
        let r = record(0xabcd, "prog", 3);
        assert_eq!(StoreRecord::parse_text(&r.to_text()).unwrap(), r);
        assert!(StoreRecord::parse_text("garbage").is_err());
    }

    #[test]
    fn lookup_and_warm_assertions() {
        let mut store = sample();
        assert_eq!(store.lookup(0x1111).unwrap().rounds, 7);
        assert!(store.lookup(0x9999).is_none());
        // Same-name record with a different fingerprint contributes seeds.
        assert_eq!(store.warm_assertions("counter", 0xdead).len(), 2);
        // ... but an exact-fingerprint match does not (it is a store hit).
        assert!(store.warm_assertions("counter", 0x1111).is_empty());
        // Replacement by fingerprint, not duplication.
        store.insert(StoreRecord {
            fingerprint: 0x1111,
            name: "counter".into(),
            verdict: StoredVerdict::Correct,
            rounds: 9,
            assertions: vec![],
            certificate: None,
        });
        assert_eq!(store.len(), 2);
        assert_eq!(store.lookup(0x1111).unwrap().rounds, 9);
    }

    #[test]
    fn corrupt_records_are_dropped_not_fatal() {
        let store = sample();
        let text = store.to_text();
        // Flip a byte inside the first record's body.
        let idx = text.find("rounds: 7").unwrap() + "rounds: ".len();
        let mut bytes = text.clone().into_bytes();
        bytes[idx] = b'8';
        let (reparsed, warnings) = ProofStore::parse(std::str::from_utf8(&bytes).unwrap());
        assert_eq!(reparsed.len(), 1, "only the damaged record is dropped");
        assert!(reparsed.lookup(0x1111).is_none());
        assert!(reparsed.lookup(0x2222).is_some());
        assert!(!warnings.is_empty());
    }

    #[test]
    fn truncation_and_bad_versions_cold_start() {
        let text = sample().to_text();
        for corrupt in [
            &text[..text.len() - 5],   // missing `end`
            &text[..text.len() / 2],   // cut mid-record
            "",                        // empty
            "seqver-store v99\nend\n", // future version
            "not a store at all\n",    // garbage
        ] {
            let (store, warnings) = ProofStore::parse(corrupt);
            assert!(store.is_empty(), "cold start expected for {corrupt:?}");
            assert!(store.qcache_entries().is_empty());
            assert!(!warnings.is_empty(), "warning expected for {corrupt:?}");
        }
    }

    #[test]
    fn flipped_fingerprint_is_caught() {
        // A bit flip in the record header would re-home the record under a
        // different program; the checksum covers the fingerprint.
        let text = sample().to_text();
        let flipped = text.replacen("record: 0000000000001111", "record: 0000000000001119", 1);
        let (store, warnings) = ProofStore::parse(&flipped);
        assert!(
            store.lookup(0x1119).is_none(),
            "re-homed record must not load"
        );
        assert!(store.lookup(0x1111).is_none());
        assert!(warnings.iter().any(|w| w.contains("checksum")));
    }

    #[test]
    fn corrupt_qcache_entries_are_dropped() {
        let text = sample().to_text();
        let broken = text.replacen("qcache: ", "qcache: 0000000000000000 x ", 1);
        let (store, warnings) = ProofStore::parse(&broken);
        assert!(store.qcache_entries().len() < 2);
        assert!(!warnings.is_empty());
    }

    #[test]
    fn open_missing_file_is_fresh_and_flush_round_trips() {
        let dir = scratch("fresh");
        let path = dir.join("proofs.store");
        let (mut store, warnings) = ProofStore::open(&path);
        assert!(store.is_empty() && warnings.is_empty());
        store.insert(StoreRecord {
            fingerprint: 42,
            name: "p".into(),
            verdict: StoredVerdict::Correct,
            rounds: 1,
            assertions: vec![atom("x", 0)],
            certificate: None,
        });
        store.flush().unwrap();
        let (reopened, warnings) = ProofStore::open(&path);
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(reopened.records(), store.records());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn journal_appends_survive_reopen_without_compaction() {
        let dir = scratch("wal");
        let path = dir.join("proofs.store");
        let (store, warnings) = ProofStore::open(&path);
        assert!(warnings.is_empty(), "{warnings:?}");
        let shared = SharedStore::new(store);
        let mut last = 0;
        for i in 0..5u64 {
            last = shared.lock().append(record(i + 1, "p", i)).unwrap();
        }
        shared.commit(last).unwrap();
        {
            let store = shared.lock();
            assert_eq!(store.durable_seq(), last);
            assert!(store.journal_bytes() > 0);
            // Snapshot is still the empty one written at open.
            assert_eq!(store.stats().fsyncs, 1, "one group commit for 5 appends");
        }
        drop(shared);
        let (reopened, warnings) = ProofStore::open(&path);
        assert!(warnings.is_empty(), "{warnings:?}");
        assert_eq!(reopened.len(), 5, "all journaled records replayed");
        assert_eq!(reopened.stats().replayed_frames, 5);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_folds_and_truncates_and_stale_frames_skip() {
        let dir = scratch("compact");
        let path = dir.join("proofs.store");
        let (store, _) = ProofStore::open(&path);
        let shared = SharedStore::new(store);
        let mut last = 0;
        for i in 0..4u64 {
            last = shared.lock().append(record(i + 1, "p", i)).unwrap();
        }
        shared.commit(last).unwrap();
        let journal_before = std::fs::metadata(journal_path(&path)).unwrap().len();
        assert!(journal_before > 0);
        shared.compact_with_qcache(Vec::new()).unwrap();
        assert_eq!(std::fs::metadata(journal_path(&path)).unwrap().len(), 0);
        // Re-create the pre-truncation journal: its frames are now stale
        // relative to the snapshot's seq mark and must be skipped.
        let frames: String = (0..4u64)
            .map(|i| journal_frame(i + 1, &record(i + 1, "p", i).to_text()))
            .collect();
        std::fs::write(journal_path(&path), frames).unwrap();
        drop(shared);
        let (reopened, warnings) = ProofStore::open(&path);
        assert_eq!(reopened.len(), 4);
        assert_eq!(reopened.stats().stale_frames, 4);
        assert_eq!(reopened.stats().replayed_frames, 0);
        assert!(warnings.iter().any(|w| w.contains("stale")), "{warnings:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_journal_tail_is_truncated_and_prefix_replayed() {
        let dir = scratch("torn");
        let path = dir.join("proofs.store");
        let (store, _) = ProofStore::open(&path);
        let shared = SharedStore::new(store);
        let mut last = 0;
        for i in 0..3u64 {
            last = shared.lock().append(record(i + 1, "p", i)).unwrap();
        }
        shared.commit(last).unwrap();
        drop(shared);
        // Chop the last frame mid-body: only the first two replay, and the
        // file is truncated back to the clean two-frame prefix.
        let jpath = journal_path(&path);
        let bytes = std::fs::read(&jpath).unwrap();
        std::fs::write(&jpath, &bytes[..bytes.len() - 7]).unwrap();
        let (reopened, warnings) = ProofStore::open(&path);
        assert_eq!(reopened.len(), 2);
        assert!(
            warnings.iter().any(|w| w.contains("truncated")),
            "{warnings:?}"
        );
        let replay = replay_journal(&std::fs::read(&jpath).unwrap());
        assert_eq!(replay.frames.len(), 2);
        assert!(replay.torn.is_none(), "tail must be physically gone");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unopenable_journal_falls_back_to_durable_rewrites() {
        let dir = scratch("fallback");
        let path = dir.join("proofs.store");
        // A directory where the journal belongs: it cannot be opened for
        // appending, so the store degrades to rewriting its snapshot.
        std::fs::create_dir(journal_path(&path)).unwrap();
        let (store, warnings) = ProofStore::open(&path);
        assert!(
            warnings.iter().any(|w| w.contains("falling back")),
            "{warnings:?}"
        );
        let shared = SharedStore::new(store);
        for i in 0..3u64 {
            let seq = shared.lock().append(record(i + 1, "p", i)).unwrap();
            // On disk when `append` returns, before any commit.
            let (reopened, _) = ProofStore::open(&path);
            assert_eq!(reopened.len() as u64, i + 1);
            assert_eq!(shared.lock().durable_seq(), seq);
            shared.commit(seq).unwrap(); // no-op: already durable
        }
        assert!(!shared.needs_compaction(0.0), "no journal, nothing to fold");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn needs_compaction_respects_ratio() {
        let dir = scratch("ratio");
        let path = dir.join("proofs.store");
        let (store, _) = ProofStore::open(&path);
        let shared = SharedStore::new(store);
        assert!(
            !shared.needs_compaction(0.0),
            "empty journal never compacts"
        );
        let seq = shared.lock().append(record(1, "p", 0)).unwrap();
        shared.commit(seq).unwrap();
        assert!(shared.needs_compaction(0.0), "ratio 0 compacts on any byte");
        assert!(!shared.needs_compaction(1e9), "huge ratio never compacts");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
