//! Deterministic crash-point injection for the durability path.
//!
//! The write-ahead journal's correctness claim — "an acknowledged verdict
//! survives any crash" — is only testable if a test can crash the daemon
//! *at* every interesting instruction boundary, not merely near it. This
//! module names those boundaries ([`CrashSite`]) and lets a test plan an
//! abort at the N-th arrival at a site ([`CrashPlan`]), in the same
//! `SPEC:N` spirit as `smt::resource::FaultPlan` from the fault-injection
//! harness: specs are plain text (`--crash-at post-append:2`), charges are
//! counted deterministically, and the same plan replays the same crash
//! bit for bit.
//!
//! Unlike `FaultPlan`, a tripped crash site does not surface as an error —
//! it calls [`std::process::abort`], because the property under test is
//! what the *next* process finds on disk.

use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};

/// Every named durability site on the journal and compaction paths, in
/// the order the data travels toward stable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashSite {
    /// About to stage a record's frame into the journal's pending buffer:
    /// nothing of this record has left memory.
    PreAppend,
    /// Frame staged in the pending buffer, fsync not yet requested: a
    /// crash here loses the frame (it was never written), so the record
    /// must NOT have been acknowledged.
    PostAppend,
    /// Journal write+fsync completed, response not yet sent: the record
    /// is durable but the client never heard so: `post-fsync:N` aborts
    /// after the N-th persisted verdict.
    PostFsync,
    /// Mid-compaction: the new snapshot's bytes are in the temp file but
    /// the temp file is not yet fsynced.
    CompactTmp,
    /// Compaction temp file fsynced, rename not yet issued.
    PreRename,
    /// Snapshot renamed into place, parent directory not yet fsynced and
    /// the journal not yet truncated.
    PostRename,
}

impl CrashSite {
    pub const ALL: [CrashSite; 6] = [
        CrashSite::PreAppend,
        CrashSite::PostAppend,
        CrashSite::PostFsync,
        CrashSite::CompactTmp,
        CrashSite::PreRename,
        CrashSite::PostRename,
    ];

    pub fn name(self) -> &'static str {
        match self {
            CrashSite::PreAppend => "pre-append",
            CrashSite::PostAppend => "post-append",
            CrashSite::PostFsync => "post-fsync",
            CrashSite::CompactTmp => "compact-tmp",
            CrashSite::PreRename => "pre-rename",
            CrashSite::PostRename => "post-rename",
        }
    }

    fn parse(s: &str) -> Result<CrashSite, String> {
        CrashSite::ALL
            .into_iter()
            .find(|site| site.name() == s)
            .ok_or_else(|| {
                let names: Vec<&str> = CrashSite::ALL.iter().map(|s| s.name()).collect();
                format!("unknown crash site `{s}` (known: {})", names.join(", "))
            })
    }
}

impl fmt::Display for CrashSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A deterministic abort plan: `SITE:N[,SITE:N...]` aborts the process the
/// N-th time execution reaches `SITE`. Arrivals are counted per site with
/// atomic counters, so the plan is exact under concurrency: the N-th
/// arrival aborts no matter which thread it is.
#[derive(Debug, Default)]
pub struct CrashPlan {
    /// `(site, arrival)` pairs that abort. Empty plan: never aborts.
    aborts: Vec<(CrashSite, u64)>,
    /// Arrivals seen so far, indexed by `CrashSite as usize`.
    counters: [AtomicU64; 6],
}

impl CrashPlan {
    /// Parses a spec like `post-append:1` or `post-fsync:2,compact-tmp:1`.
    /// Counts are 1-based: `SITE:1` aborts on the first arrival.
    pub fn parse(spec: &str) -> Result<CrashPlan, String> {
        let mut aborts = Vec::new();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (site, count) = part
                .split_once(':')
                .ok_or_else(|| format!("malformed crash spec `{part}` (want SITE:N)"))?;
            let site = CrashSite::parse(site)?;
            let count: u64 = count
                .parse()
                .map_err(|_| format!("invalid crash count `{count}` in `{part}`"))?;
            if count == 0 {
                return Err(format!("crash count must be >= 1 in `{part}`"));
            }
            aborts.push((site, count));
        }
        Ok(CrashPlan {
            aborts,
            counters: Default::default(),
        })
    }

    /// A plan that aborts on the `n`-th arrival at `site`.
    pub fn abort_at(site: CrashSite, n: u64) -> CrashPlan {
        CrashPlan {
            aborts: vec![(site, n.max(1))],
            counters: Default::default(),
        }
    }

    /// `true` when the plan can never fire.
    pub fn is_empty(&self) -> bool {
        self.aborts.is_empty()
    }

    /// The canonical spec text (round-trips through [`CrashPlan::parse`]).
    pub fn spec(&self) -> String {
        let parts: Vec<String> = self
            .aborts
            .iter()
            .map(|(site, n)| format!("{site}:{n}"))
            .collect();
        parts.join(",")
    }

    /// Charges one arrival at `site`; aborts the process if the plan says
    /// this arrival is the one. The abort is announced on stderr first so
    /// a sweep harness can tell an injected crash from an accidental one.
    pub fn hit(&self, site: CrashSite) {
        let arrival = self.counters[site as usize].fetch_add(1, Ordering::SeqCst) + 1;
        if self.aborts.iter().any(|&(s, n)| s == site && n == arrival) {
            eprintln!("crash-point injection: aborting at {site}:{arrival}");
            std::process::abort();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_and_rejects_junk() {
        let plan = CrashPlan::parse("post-append:1,compact-tmp:3").unwrap();
        assert_eq!(plan.spec(), "post-append:1,compact-tmp:3");
        assert!(!plan.is_empty());
        assert!(CrashPlan::parse("").unwrap().is_empty());
        assert!(CrashPlan::parse("nonsense:1").is_err());
        assert!(CrashPlan::parse("post-append").is_err());
        assert!(CrashPlan::parse("post-append:0").is_err());
        assert!(CrashPlan::parse("post-append:x").is_err());
    }

    #[test]
    fn empty_plan_never_aborts() {
        let plan = CrashPlan::default();
        for site in CrashSite::ALL {
            for _ in 0..10 {
                plan.hit(site); // must return
            }
        }
    }

    #[test]
    fn unmatched_sites_and_earlier_arrivals_return() {
        // The plan targets the 1000th arrival; the first few must return,
        // and unrelated sites must never trip.
        let plan = CrashPlan::abort_at(CrashSite::PreRename, 1000);
        for _ in 0..5 {
            plan.hit(CrashSite::PreRename);
            plan.hit(CrashSite::PostFsync);
        }
    }

    #[test]
    fn site_names_parse_back() {
        for site in CrashSite::ALL {
            let plan = CrashPlan::parse(&format!("{}:2", site.name())).unwrap();
            assert_eq!(plan.spec(), format!("{site}:2"));
        }
    }
}
