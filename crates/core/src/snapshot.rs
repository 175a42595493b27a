//! Crash-safe verification snapshots.
//!
//! At round boundaries the refinement driver ([`mod@crate::drive`])
//! serializes its resumable state — program fingerprint, cumulative round
//! counter, the proof assertions accumulated for the in-progress spec (as
//! pool-independent [`ExportedTerm`]s in their stable text form), the
//! give-up history and the attempt counter — into a versioned text file.
//! Writes go through a temp file that is fsynced, renamed into place, and
//! sealed with an fsync of the parent directory ([`write_atomic_durable`]),
//! so even a power cut mid-write leaves either the previous complete
//! snapshot or none at all, never a torn one. The file is a header line
//! and exactly one [`journal_frame`], whose length and checksum
//! additionally reject truncated or bit-rotted files on load.
//!
//! Resuming ([`Snapshot::load`] + `seqver --resume`) seeds a fresh engine's
//! proof automaton with the recycled assertions. This is sound by
//! construction: snapshot assertions are only ever *candidate* proof
//! components — every transition of the proof automaton built from them is
//! re-validated by a Hoare-triple solver query, so a corrupted or even
//! adversarial snapshot can cost completeness (useless candidates), never
//! soundness.

use crate::govern::{AttributedGiveUp, Category, GiveUp};
use program::concurrent::Program;
use smt::term::TermPool;
use smt::transfer::ExportedTerm;
use std::collections::hash_map::DefaultHasher;
use std::ffi::OsStr;
use std::hash::{Hash, Hasher};
use std::path::{Path, PathBuf};

/// Current snapshot format version; bumped on any incompatible change
/// (v2 added a `checksum` line; v3 replaced it and the `end` marker with
/// one [`journal_frame`]).
pub const SNAPSHOT_VERSION: u32 = 3;

/// The header line of a version-3 snapshot.
const HEADER: &str = "seqver-snapshot v3";

/// FNV-1a (64-bit) over raw bytes: a small, build- and process-stable
/// checksum for the line-oriented persistence formats (snapshots and the
/// `seqver serve` proof store). Each step is `state ← (state ⊕ byte) × p`
/// with an odd `p`, a bijection on `u64` for a fixed byte — so two inputs
/// differing in one byte can never collide, which is exactly the
/// single-sector-corruption case crash-safety cares about.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

// ---------------------------------------------------------------------------
// Write-ahead-journal frames
// ---------------------------------------------------------------------------
//
// Shared by the `seqver serve` proof store's WAL, which appends many
// frames, and by checkpoint snapshots, which hold exactly one. A frame is
// one self-delimiting, individually checksummed unit:
//
// ```text
// frame: <seq 016x> <checksum 016x> <len>\n<len bytes of body>
// ```
//
// `seq` is a monotonically increasing sequence number (1-based), `len` a
// decimal byte count, and `checksum` the FNV-1a of `"<seq 016x>\n<body>"`
// — covering the sequence number, so a bit flip that would re-order or
// re-home a frame is caught exactly like one in its body. The body must
// end with a newline so frames concatenate into a readable text file.

/// Hard cap on one journal frame body (16 MiB): a declared length above
/// this is treated as corruption, not an allocation request.
pub const MAX_FRAME_BODY: usize = 16 << 20;

/// Renders one journal frame for `body` under sequence number `seq`.
/// The body must be newline-terminated (debug-asserted).
pub fn journal_frame(seq: u64, body: &str) -> String {
    debug_assert!(body.ends_with('\n'), "frame bodies are newline-terminated");
    let sum = fnv1a(format!("{seq:016x}\n{body}").as_bytes());
    format!("frame: {seq:016x} {sum:016x} {}\n{body}", body.len())
}

/// One frame recovered from a journal.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalFrame {
    pub seq: u64,
    pub body: String,
}

/// The outcome of replaying a journal's byte stream: the longest valid
/// frame prefix, where it ends, and why scanning stopped there.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JournalReplay {
    /// Every frame of the valid prefix, in file order (sequence-number
    /// discipline — staleness, duplication — is the caller's to apply).
    pub frames: Vec<JournalFrame>,
    /// Byte offset of the first bad frame: the truncation point that
    /// discards the torn tail while keeping every valid frame.
    pub valid_len: usize,
    /// Why the scan stopped before the end of the input, if it did.
    pub torn: Option<String>,
}

/// Scans `bytes` as a sequence of [`journal_frame`]s, stopping (without
/// panicking, whatever the input) at the first frame that is torn,
/// truncated, checksum-damaged or otherwise malformed. Everything before
/// the stop point is returned; the tail is described, not trusted.
pub fn replay_journal(bytes: &[u8]) -> JournalReplay {
    let mut frames = Vec::new();
    let mut at = 0usize;
    let torn = loop {
        if at == bytes.len() {
            break None;
        }
        let rest = &bytes[at..];
        let Some(nl) = rest.iter().take(128).position(|&b| b == b'\n') else {
            break Some("unterminated frame header".to_owned());
        };
        let Ok(header) = std::str::from_utf8(&rest[..nl]) else {
            break Some("frame header is not UTF-8".to_owned());
        };
        let Some(fields) = header.strip_prefix("frame: ") else {
            break Some(format!("not a frame header: `{header}`"));
        };
        let mut parts = fields.split(' ');
        let (Some(seq), Some(sum), Some(len), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            break Some(format!("malformed frame header `{header}`"));
        };
        let (Ok(seq), Ok(declared), Ok(len)) = (
            u64::from_str_radix(seq, 16),
            u64::from_str_radix(sum, 16),
            len.parse::<usize>(),
        ) else {
            break Some(format!("malformed frame header `{header}`"));
        };
        if len > MAX_FRAME_BODY {
            break Some(format!("frame body length {len} exceeds {MAX_FRAME_BODY}"));
        }
        let body_start = nl + 1;
        if rest.len() < body_start + len {
            break Some(format!(
                "torn frame {seq:016x}: {} of {len} body bytes present",
                rest.len() - body_start.min(rest.len())
            ));
        }
        let Ok(body) = std::str::from_utf8(&rest[body_start..body_start + len]) else {
            break Some(format!("frame {seq:016x} body is not UTF-8"));
        };
        if !body.ends_with('\n') {
            break Some(format!("frame {seq:016x} body is not newline-terminated"));
        }
        let actual = fnv1a(format!("{seq:016x}\n{body}").as_bytes());
        if actual != declared {
            break Some(format!(
                "frame {seq:016x}: checksum mismatch (declared {declared:016x}, \
                 computed {actual:016x})"
            ));
        }
        frames.push(JournalFrame {
            seq,
            body: body.to_owned(),
        });
        at += body_start + len;
    };
    JournalReplay {
        frames,
        valid_len: at,
        torn,
    }
}

/// The steps of [`write_atomic_durable_with`] after which its hook runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WriteStage {
    /// The temp file holds every byte but is not yet fsynced.
    TmpWritten,
    /// The temp file is fsynced; the rename has not happened yet.
    PreRename,
    /// The rename is done; the parent directory is not yet fsynced.
    PostRename,
}

/// The temp file that [`write_atomic_durable`] fills before renaming it
/// over `path`: `<file name>.tmp` in the same directory. Appending (rather
/// than replacing the extension) keeps it distinct from `path` itself even
/// when `path` ends in `.tmp`, and distinct between `a.x` and `a.y`.
fn temp_path(path: &Path) -> PathBuf {
    let mut name = path
        .file_name()
        .map(OsStr::to_os_string)
        .unwrap_or_default();
    name.push(".tmp");
    path.with_file_name(name)
}

/// Writes `text` to `path` atomically **and durably**: the bytes go to
/// [`temp_path`], which is fsynced before the atomic `rename`, and the
/// parent directory is fsynced after it — so after a crash (even a power
/// cut) a reader observes either the previous complete file or the new
/// complete file, never a torn or empty one. The directory fsync is
/// best-effort on platforms that cannot open directories; the file fsync
/// is mandatory.
pub fn write_atomic_durable(path: &Path, text: &str) -> Result<(), String> {
    write_atomic_durable_with(path, text, |_| {})
}

/// As [`write_atomic_durable`], calling `hook` after each [`WriteStage`]
/// (the proof store charges its crash-injection sites there).
pub fn write_atomic_durable_with(
    path: &Path,
    text: &str,
    mut hook: impl FnMut(WriteStage),
) -> Result<(), String> {
    use std::io::Write as _;
    let tmp = temp_path(path);
    let mut file = std::fs::File::create(&tmp)
        .map_err(|e| format!("cannot create `{}`: {e}", tmp.display()))?;
    file.write_all(text.as_bytes())
        .map_err(|e| format!("cannot write `{}`: {e}", tmp.display()))?;
    hook(WriteStage::TmpWritten);
    file.sync_all()
        .map_err(|e| format!("cannot fsync `{}`: {e}", tmp.display()))?;
    drop(file);
    hook(WriteStage::PreRename);
    std::fs::rename(&tmp, path)
        .map_err(|e| format!("cannot move `{}` into place: {e}", path.display()))?;
    hook(WriteStage::PostRename);
    if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
        // Make the rename itself durable. Opening a directory read-only
        // works on unix; degrade silently where it does not.
        if let Ok(dir) = std::fs::File::open(parent) {
            let _ = dir.sync_all();
        }
    }
    Ok(())
}

/// A resumable checkpoint of a driver run ([`crate::drive::Run::checkpoint`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    /// Fingerprint of the program being verified (guards against resuming
    /// a snapshot on a different input file).
    pub program_hash: u64,
    /// Name of the verifier configuration that produced the snapshot.
    pub config_name: String,
    /// Escalation-ladder attempt in progress when the snapshot was taken.
    pub attempt: u32,
    /// Number of specs (asserting threads) already proven.
    pub specs_done: usize,
    /// Refinement rounds completed so far — the work the recycled
    /// assertions represent; a resumed run continues this counter.
    pub rounds_completed: usize,
    /// Give-up history accumulated across attempts (already deduped).
    pub give_ups: Vec<AttributedGiveUp>,
    /// Proof assertions of the in-progress spec, in discovery order.
    pub assertions: Vec<ExportedTerm>,
}

/// A build-stable fingerprint of the program: name, thread structure and
/// statement labels plus the pre/postcondition. `DefaultHasher::new()`
/// uses fixed keys, so the fingerprint is identical across processes of
/// the same build — exactly the guarantee checkpoint/resume needs.
pub fn program_fingerprint(pool: &TermPool, program: &Program) -> u64 {
    let mut h = DefaultHasher::new();
    program.name().hash(&mut h);
    program.num_threads().hash(&mut h);
    for l in program.letters() {
        program.thread_of(l).0.hash(&mut h);
        program.statement(l).label().hash(&mut h);
    }
    for &v in program.globals() {
        pool.var_name(v).hash(&mut h);
    }
    pool.display(program.pre()).hash(&mut h);
    pool.display(program.post()).hash(&mut h);
    h.finish()
}

/// Replaces characters that would break the line-oriented format.
fn sanitize(s: &str) -> String {
    s.replace(['\n', '\r', '\t'], " ")
}

impl Snapshot {
    /// An empty snapshot for `program` (nothing verified yet).
    pub fn empty(pool: &TermPool, program: &Program, config_name: &str) -> Snapshot {
        Snapshot {
            program_hash: program_fingerprint(pool, program),
            config_name: config_name.to_owned(),
            attempt: 0,
            specs_done: 0,
            rounds_completed: 0,
            give_ups: Vec::new(),
            assertions: Vec::new(),
        }
    }

    /// `true` when the snapshot was taken for this exact program (same
    /// fingerprint under the same build).
    pub fn matches(&self, pool: &TermPool, program: &Program) -> bool {
        self.program_hash == program_fingerprint(pool, program)
    }

    /// Renders the versioned text form: the header line, then one
    /// [`journal_frame`] whose body holds the key/value lines.
    pub fn to_text(&self) -> String {
        let mut body = String::new();
        body.push_str(&format!("program-hash: {:016x}\n", self.program_hash));
        body.push_str(&format!("config: {}\n", sanitize(&self.config_name)));
        body.push_str(&format!("attempt: {}\n", self.attempt));
        body.push_str(&format!("specs-done: {}\n", self.specs_done));
        body.push_str(&format!("rounds: {}\n", self.rounds_completed));
        for g in &self.give_ups {
            body.push_str(&format!(
                "give-up: {}\t{}\t{}\n",
                g.give_up.category,
                sanitize(&g.engine),
                sanitize(&g.give_up.reason)
            ));
        }
        for a in &self.assertions {
            body.push_str(&format!("assertion: {}\n", a.to_text()));
        }
        format!("{HEADER}\n{}", journal_frame(1, &body))
    }

    /// Parses the [`Snapshot::to_text`] form, rejecting version
    /// mismatches, a torn or checksum-damaged frame, more or fewer than
    /// one frame, trailing bytes and malformed lines.
    pub fn parse(text: &str) -> Result<Snapshot, String> {
        let (header, frames) = text.split_once('\n').unwrap_or((text, ""));
        if header != HEADER {
            return Err(if header.starts_with("seqver-snapshot") {
                format!(
                    "unsupported snapshot version `{header}` (this build reads v{SNAPSHOT_VERSION})"
                )
            } else {
                format!("not a seqver snapshot (first line {header:?})")
            });
        }
        let replay = replay_journal(frames.as_bytes());
        if let Some(torn) = replay.torn {
            return Err(match replay.frames.len() {
                0 => format!("torn snapshot: {torn}"),
                _ => format!("trailing bytes after the snapshot frame: {torn}"),
            });
        }
        let [frame] = replay.frames.as_slice() else {
            return Err(format!(
                "expected exactly one snapshot frame, found {}",
                replay.frames.len()
            ));
        };
        let mut snapshot = Snapshot {
            program_hash: 0,
            config_name: String::new(),
            attempt: 0,
            specs_done: 0,
            rounds_completed: 0,
            give_ups: Vec::new(),
            assertions: Vec::new(),
        };
        let mut seen_hash = false;
        for line in frame.body.lines() {
            let (key, value) = line
                .split_once(": ")
                .ok_or_else(|| format!("malformed snapshot line `{line}`"))?;
            match key {
                "program-hash" => {
                    snapshot.program_hash = u64::from_str_radix(value, 16)
                        .map_err(|_| format!("invalid program hash `{value}`"))?;
                    seen_hash = true;
                }
                "config" => snapshot.config_name = value.to_owned(),
                "attempt" => {
                    snapshot.attempt = value
                        .parse()
                        .map_err(|_| format!("invalid attempt `{value}`"))?
                }
                "specs-done" => {
                    snapshot.specs_done = value
                        .parse()
                        .map_err(|_| format!("invalid specs-done `{value}`"))?
                }
                "rounds" => {
                    snapshot.rounds_completed = value
                        .parse()
                        .map_err(|_| format!("invalid rounds `{value}`"))?
                }
                "give-up" => {
                    let mut fields = value.splitn(3, '\t');
                    let (Some(cat), Some(engine), Some(reason)) =
                        (fields.next(), fields.next(), fields.next())
                    else {
                        return Err(format!("malformed give-up line `{line}`"));
                    };
                    let category = Category::parse(cat)
                        .ok_or_else(|| format!("unknown give-up category `{cat}`"))?;
                    snapshot
                        .give_ups
                        .push(AttributedGiveUp::new(engine, GiveUp::new(category, reason)));
                }
                "assertion" => snapshot.assertions.push(ExportedTerm::parse(value)?),
                other => return Err(format!("unknown snapshot key `{other}`")),
            }
        }
        if !seen_hash {
            return Err("snapshot has no program-hash".to_owned());
        }
        Ok(snapshot)
    }

    /// Writes the snapshot to `path` crash-safely and durably (fsynced
    /// temp file, atomic `rename`, fsynced parent directory — see
    /// [`write_atomic_durable`]), so readers only ever observe complete
    /// snapshots, even across a power cut.
    pub fn save_atomic(&self, path: &Path) -> Result<(), String> {
        write_atomic_durable(path, &self.to_text())
            .map_err(|e| format!("cannot write checkpoint: {e}"))
    }

    /// Reads and parses a snapshot file.
    pub fn load(path: &Path) -> Result<Snapshot, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("cannot read snapshot `{}`: {e}", path.display()))?;
        Snapshot::parse(&text).map_err(|e| format!("invalid snapshot `{}`: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smt::linear::Rel;

    fn sample() -> Snapshot {
        Snapshot {
            program_hash: 0xdead_beef_0042_1337,
            config_name: "gemcutter-seq".to_owned(),
            attempt: 2,
            specs_done: 1,
            rounds_completed: 17,
            give_ups: vec![
                AttributedGiveUp::new(
                    "gemcutter-seq",
                    GiveUp::new(Category::Deadline, "wall-clock deadline exceeded"),
                ),
                AttributedGiveUp::new(
                    "gemcutter-seq",
                    GiveUp::new(Category::SimplexPivots, "budget exhausted after 11 steps"),
                ),
            ],
            assertions: vec![
                ExportedTerm::True,
                ExportedTerm::Atom {
                    coeffs: vec![("x".into(), 1), ("y|weird".into(), -2)],
                    constant: 3,
                    rel: Rel::Le0,
                },
                ExportedTerm::And(vec![ExportedTerm::False]),
            ],
        }
    }

    #[test]
    fn text_round_trip_is_identity() {
        let snap = sample();
        let text = snap.to_text();
        assert_eq!(Snapshot::parse(&text), Ok(snap));
    }

    #[test]
    fn journal_frames_concatenate_and_replay() {
        let mut journal = String::new();
        journal.push_str(&journal_frame(1, "alpha\n"));
        journal.push_str(&journal_frame(2, "beta\nwith two lines\n"));
        journal.push_str(&journal_frame(3, "gamma\n"));
        let replay = replay_journal(journal.as_bytes());
        assert_eq!(replay.torn, None);
        assert_eq!(replay.valid_len, journal.len());
        assert_eq!(
            replay.frames,
            vec![
                JournalFrame {
                    seq: 1,
                    body: "alpha\n".to_owned()
                },
                JournalFrame {
                    seq: 2,
                    body: "beta\nwith two lines\n".to_owned()
                },
                JournalFrame {
                    seq: 3,
                    body: "gamma\n".to_owned()
                },
            ]
        );
        // The empty journal is trivially whole.
        let empty = replay_journal(b"");
        assert_eq!(empty.frames, Vec::new());
        assert_eq!((empty.valid_len, empty.torn), (0, None));
    }

    #[test]
    fn torn_tail_stops_replay_at_the_last_whole_frame() {
        let mut journal = String::new();
        journal.push_str(&journal_frame(1, "alpha\n"));
        let keep = journal.len();
        journal.push_str(&journal_frame(2, "beta\n"));
        // Chop mid-body: frame 2 is torn, frame 1 survives.
        let cut = &journal.as_bytes()[..journal.len() - 3];
        let replay = replay_journal(cut);
        assert_eq!(replay.frames.len(), 1);
        assert_eq!(replay.valid_len, keep);
        let reason = replay.torn.expect("torn tail reported");
        assert!(reason.contains("torn frame"), "{reason}");
    }

    #[test]
    fn checksum_damage_and_reseqencing_are_caught() {
        let frame = journal_frame(7, "payload\n");
        // Flip one body byte: checksum mismatch.
        let mut flipped = frame.clone().into_bytes();
        let last = flipped.len() - 2;
        flipped[last] ^= 0x01;
        let replay = replay_journal(&flipped);
        assert_eq!(replay.frames, Vec::new());
        assert!(replay.torn.expect("reported").contains("checksum"));
        // Re-home the frame under a different sequence number: the
        // checksum covers `seq`, so this is caught like a body flip.
        let rehomed = frame.replacen("0000000000000007", "0000000000000008", 1);
        let replay = replay_journal(rehomed.as_bytes());
        assert_eq!(replay.frames, Vec::new());
        assert!(replay.torn.expect("reported").contains("checksum"));
    }

    #[test]
    fn hostile_journal_headers_never_panic() {
        for bytes in [
            &b"frame: "[..],
            b"frame: zz zz zz\nx\n",
            b"frame: 0000000000000001 0000000000000002\nx\n",
            b"frame: 0000000000000001 0000000000000002 3 4\nx\n",
            b"frame: 0000000000000001 0000000000000002 99999999999999999999\nx\n",
            b"not a frame at all\n",
            b"\xff\xfe\xfd",
            b"frame: 0000000000000001 0000000000000002 1000000000\n",
        ] {
            let replay = replay_journal(bytes);
            assert_eq!(replay.frames, Vec::new());
            assert_eq!(replay.valid_len, 0);
            assert!(replay.torn.is_some(), "input {bytes:?} must report a tear");
        }
    }

    #[test]
    fn truncated_snapshot_is_rejected() {
        let text = sample().to_text();
        // Drop the last byte: simulates a crash mid-write without the
        // atomic rename (or a torn copy). The frame length catches it.
        let err = Snapshot::parse(&text[..text.len() - 1]).unwrap_err();
        assert!(err.contains("torn"), "{err}");
        // Cutting mid-assertion is also rejected.
        let cut = &text[..text.len() / 2];
        assert!(Snapshot::parse(cut).is_err());
        // So is a header with no frame at all.
        assert!(Snapshot::parse(&format!("{HEADER}\n"))
            .unwrap_err()
            .contains("found 0"));
    }

    #[test]
    fn trailing_content_is_rejected() {
        let text = sample().to_text();
        let err = Snapshot::parse(&format!("{text}garbage\n")).unwrap_err();
        assert!(err.contains("trailing bytes"), "{err}");
        // A second, well-formed frame is not a snapshot either.
        let two = format!("{text}{}", journal_frame(2, "rounds: 1\n"));
        assert!(Snapshot::parse(&two).unwrap_err().contains("found 2"));
    }

    #[test]
    fn bit_rot_fails_the_checksum() {
        let text = sample().to_text();
        // Flip one byte anywhere in the body: the checksum must catch it.
        let mut bytes = text.clone().into_bytes();
        let idx = text.find("rounds: ").unwrap() + "rounds: ".len();
        bytes[idx] = if bytes[idx] == b'9' { b'8' } else { b'9' };
        let err = Snapshot::parse(std::str::from_utf8(&bytes).unwrap()).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
        // A forged checksum in the frame header is also rejected.
        let mut forged = text.clone().into_bytes();
        let c = text.find("frame: ").unwrap() + "frame: ".len() + 17;
        forged[c] = if forged[c] == b'0' { b'1' } else { b'0' };
        let err = Snapshot::parse(std::str::from_utf8(&forged).unwrap()).unwrap_err();
        assert!(err.contains("checksum mismatch"), "{err}");
    }

    #[test]
    fn version_and_garbage_are_rejected() {
        assert!(Snapshot::parse("seqver-snapshot v999\nend\n")
            .unwrap_err()
            .contains("version"));
        // Older snapshots (v1: no checksum, v2: `checksum` line and `end`
        // marker) are a version mismatch, not a parse crash.
        assert!(
            Snapshot::parse("seqver-snapshot v1\nprogram-hash: 0\nend\n")
                .unwrap_err()
                .contains("unsupported snapshot version")
        );
        let body = "program-hash: 0000000000000000\nend\n";
        let v2 = format!(
            "seqver-snapshot v2\nchecksum: {:016x}\n{body}",
            fnv1a(body.as_bytes())
        );
        assert!(Snapshot::parse(&v2)
            .unwrap_err()
            .contains("unsupported snapshot version"));
        assert!(Snapshot::parse("not a snapshot").is_err());
        assert!(Snapshot::parse("").is_err());
        // Missing hash (inside a well-formed frame).
        let text = format!("{HEADER}\n{}", journal_frame(1, "rounds: 3\n"));
        assert!(Snapshot::parse(&text).unwrap_err().contains("program-hash"));
        // Key/value lines without a frame around them.
        assert!(Snapshot::parse(&format!("{HEADER}\nprogram-hash: 0\n"))
            .unwrap_err()
            .contains("not a frame header"));
    }

    #[test]
    fn temp_path_never_aliases_the_target_or_a_sibling() {
        let tmp = Path::new("dir/state.tmp");
        assert_ne!(temp_path(tmp), tmp);
        assert_eq!(temp_path(tmp), Path::new("dir/state.tmp.tmp"));
        assert_ne!(
            temp_path(Path::new("a.ckpt")),
            temp_path(Path::new("a.store"))
        );
    }

    #[test]
    fn overwriting_a_tmp_named_file_keeps_it_until_the_rename() {
        let dir = std::env::temp_dir().join(format!("seqver-snap-tmpname-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("state.tmp");
        write_atomic_durable(&path, "old\n").unwrap();
        let mut seen = Vec::new();
        write_atomic_durable_with(&path, "new\n", |stage| {
            seen.push((stage, std::fs::read_to_string(&path).unwrap()));
        })
        .unwrap();
        assert_eq!(
            seen,
            vec![
                (WriteStage::TmpWritten, "old\n".to_owned()),
                (WriteStage::PreRename, "old\n".to_owned()),
                (WriteStage::PostRename, "new\n".to_owned()),
            ]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fnv1a_detects_single_byte_changes() {
        let a = b"record body line\n";
        for i in 0..a.len() {
            let mut b = a.to_vec();
            b[i] ^= 0x40;
            assert_ne!(fnv1a(a), fnv1a(&b), "flip at byte {i} collided");
        }
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn save_atomic_round_trips_and_leaves_no_tmp() {
        let snap = sample();
        let dir = std::env::temp_dir().join(format!("seqver-snap-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run.ckpt");
        snap.save_atomic(&path).unwrap();
        assert_eq!(Snapshot::load(&path).unwrap(), snap);
        assert!(!temp_path(&path).exists(), "tmp file renamed away");
        // Overwrite with a newer snapshot: load sees the newest.
        let mut newer = snap.clone();
        newer.rounds_completed += 1;
        newer.save_atomic(&path).unwrap();
        assert_eq!(Snapshot::load(&path).unwrap().rounds_completed, 18);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
