//! Multi-tenant session plumbing for the `citroen-serve` daemon: the shared
//! state a long-running service amortises across tuning jobs, and the
//! control surface (cancel / deadline) a job lifecycle needs.
//!
//! The determinism contract that makes sharing safe: compilation is a *pure*
//! function of (source module, canonical pass sequence) — `PassManager`
//! threads no RNG and reads no globals — so a cross-tenant cache keyed by
//! (source-module fingerprint, canonical genome) returns exactly the bytes
//! the tenant would have computed locally. A session run against a pre-warmed
//! [`SharedCompileCache`] therefore produces a tuning trajectory (runtimes,
//! best history, best sequences) bit-identical to a cold standalone run at
//! the same seed; only the compile *counters* and wall-clock differ. The
//! serve determinism gate (`citroen-serve bench`) and
//! `crates/core/tests` assert this with [`trace_digest`].

use crate::cache::BoundedCache;
use crate::citroen::ImpactReport;
use crate::task::TuneTrace;
use citroen_ir::module::Module;
use citroen_passes::oracle::InteractionGraph;
use citroen_passes::Stats;
use citroen_rt::par::WorkerPool;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Shared compile cache
// ---------------------------------------------------------------------------

/// A snapshot of the shared cache's lifetime counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SharedCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Of those, hits on an entry a *different* tenant inserted — the
    /// cross-tenant amortisation the daemon exists for.
    pub cross_hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted (LRU).
    pub evictions: u64,
    /// Current entry count.
    pub len: u64,
}

/// The cross-tenant compile cache: (source-module fingerprint, canonical
/// genome) → (owner tenant, compile result). LRU-evicting: a popular
/// module's canonical genomes keep getting hit by new tenants and must not
/// age out on insertion order.
///
/// Entries hold a full optimised [`Module`] clone, so the capacity bound is
/// load-bearing — size it in thousands of entries, not like a string cache.
pub struct SharedCompileCache {
    inner: Mutex<SharedCacheInner>,
}

struct SharedCacheInner {
    cache: BoundedCache<(u64, Vec<u16>), CacheEntry>,
    cross_hits: u64,
    insertions: u64,
}

struct CacheEntry {
    owner: u64,
    stats: Stats,
    fingerprint: u64,
    module: Module,
}

impl SharedCompileCache {
    /// An empty cache holding at most `cap` entries (`0` = unbounded).
    pub fn new(cap: usize) -> SharedCompileCache {
        SharedCompileCache {
            inner: Mutex::new(SharedCacheInner {
                cache: BoundedCache::new(cap),
                cross_hits: 0,
                insertions: 0,
            }),
        }
    }

    /// Look up a compile result for `tenant`. A hit on another tenant's
    /// entry counts towards [`SharedCacheStats::cross_hits`].
    pub fn get(
        &self,
        src_fp: u64,
        genome: &[u16],
        tenant: u64,
    ) -> Option<(Stats, u64, Module)> {
        let mut inner = self.inner.lock().unwrap();
        let entry = inner.cache.get(&(src_fp, genome.to_vec()))?;
        let owner = entry.owner;
        let out = (entry.stats.clone(), entry.fingerprint, entry.module.clone());
        if owner != tenant {
            inner.cross_hits += 1;
        }
        Some(out)
    }

    /// Publish `tenant`'s compile result. First writer wins: re-inserting an
    /// existing key is skipped entirely so the original owner attribution
    /// (and the entry's LRU position) survive concurrent racers.
    pub fn insert(
        &self,
        src_fp: u64,
        genome: Vec<u16>,
        tenant: u64,
        stats: Stats,
        fingerprint: u64,
        module: Module,
    ) {
        let mut inner = self.inner.lock().unwrap();
        let key = (src_fp, genome);
        if inner.cache.peek(&key).is_some() {
            return;
        }
        inner.cache.insert(key, CacheEntry { owner: tenant, stats, fingerprint, module });
        inner.insertions += 1;
    }

    /// Lifetime counters (hits/misses come from the underlying LRU map;
    /// cross-tenant hits and insertions are tracked here).
    pub fn stats(&self) -> SharedCacheStats {
        let inner = self.inner.lock().unwrap();
        SharedCacheStats {
            hits: inner.cache.hits(),
            cross_hits: inner.cross_hits,
            misses: inner.cache.misses(),
            insertions: inner.insertions,
            evictions: inner.cache.evictions(),
            len: inner.cache.len() as u64,
        }
    }
}

// ---------------------------------------------------------------------------
// Session control
// ---------------------------------------------------------------------------

/// How a tuning session ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionExit {
    /// Ran its full budget (or exhausted the search space).
    Completed,
    /// Stopped early by a cancel request.
    Cancelled,
    /// Stopped early by its deadline.
    TimedOut,
}

/// Per-session control block: tenant identity plus the cancel flag and
/// deadline the tuning loop polls between iterations. Cheap to clone — the
/// cancel flag is shared, so a clone held by the server cancels the session
/// holding the original.
#[derive(Clone, Default)]
pub struct SessionCtl {
    /// Tenant id, used for cross-tenant cache-hit attribution.
    pub tenant: u64,
    cancel: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl SessionCtl {
    /// A control block for `tenant` with no deadline.
    pub fn new(tenant: u64) -> SessionCtl {
        SessionCtl { tenant, cancel: Arc::new(AtomicBool::new(false)), deadline: None }
    }

    /// This control block with an absolute deadline.
    pub fn with_deadline(mut self, deadline: Instant) -> SessionCtl {
        self.deadline = Some(deadline);
        self
    }

    /// Request cancellation; the session observes it at its next poll.
    pub fn cancel(&self) {
        self.cancel.store(true, Ordering::SeqCst);
    }

    /// Why the session must stop now, if it must. Checked by the tuning loop
    /// at iteration boundaries (a few ms apart), so cancellation latency is
    /// one iteration, not one job.
    pub fn interrupted(&self) -> Option<SessionExit> {
        if self.cancel.load(Ordering::SeqCst) {
            return Some(SessionExit::Cancelled);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Some(SessionExit::TimedOut);
        }
        None
    }
}

// ---------------------------------------------------------------------------
// Session environment and result
// ---------------------------------------------------------------------------

/// Everything a daemon shares *into* a tuning session. The default (all
/// `None`, inert ctl) reproduces a standalone `run_citroen` exactly — the
/// legacy entry point is a thin wrapper over this.
#[derive(Clone, Default)]
pub struct SessionEnv {
    /// Cross-tenant compile cache, consulted before compiling any canonical
    /// genome and fed every local compile; a session's only compile cache.
    /// `None` = sessions don't share, and a session keeps a private cache
    /// only when it canonicalises.
    pub shared_cache: Option<Arc<SharedCompileCache>>,
    /// A pre-loaded interaction graph (the `citroen-analyze oracle --json`
    /// artifact), loaded once by the daemon. `None` = each session derives
    /// its canonicaliser inputs from its own task.
    pub graph: Option<Arc<InteractionGraph>>,
    /// A shared worker pool for `batch > 1` sessions (q = 1 sessions map on
    /// their own thread). `None` = a batched session spawns its own.
    pub pool: Option<Arc<WorkerPool>>,
    /// Cancel / deadline / tenant identity.
    pub ctl: SessionCtl,
}

/// What a session hands back to the daemon.
pub struct SessionResult {
    /// The tuning trace (runtimes, best history, best sequences).
    pub trace: TuneTrace,
    /// The ARD impact report.
    pub report: ImpactReport,
    /// How the session ended.
    pub exit: SessionExit,
    /// The tuned module (index into `Task::hot_modules` under an allocation
    /// policy, else 0) measured at each trace step; `usize::MAX` marks a
    /// joint step that measured a fresh genome for every tuned module.
    pub allocation_log: Vec<usize>,
}

/// A deterministic 64-bit digest of a tuning trajectory: every noisy
/// runtime (bit pattern), the best-history curve, the best sequences, and
/// the coverage-drop count. Two runs are "bit-identical" for the service
/// gates iff their digests match — f64s are hashed via [`f64::to_bits`], so
/// there is no epsilon anywhere.
pub fn trace_digest(trace: &TuneTrace) -> u64 {
    // FNV-1a, the same construction the IR fingerprinter uses.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for byte in v.to_le_bytes() {
            h ^= byte as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    mix(trace.runtimes.len() as u64);
    for r in &trace.runtimes {
        mix(r.to_bits());
    }
    for b in &trace.best_history {
        mix(b.to_bits());
    }
    mix(trace.best_seqs.len() as u64);
    for seq in &trace.best_seqs {
        mix(seq.len() as u64);
        for p in seq {
            mix(p.0 as u64);
        }
    }
    mix(trace.coverage_dropped as u64);
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use citroen_passes::PassId;

    fn entry(v: u64) -> (Stats, u64, Module) {
        let mut s = Stats::new();
        s.inc("gvn", "eliminated", v);
        (s, v, Module::default())
    }

    #[test]
    fn shared_cache_attributes_cross_tenant_hits() {
        let c = SharedCompileCache::new(8);
        let (s, fp, m) = entry(3);
        assert!(c.get(1, &[1, 2], 7).is_none());
        c.insert(1, vec![1, 2], 7, s, fp, m);
        // Same tenant: a hit, but not a cross hit.
        let (got, got_fp, _) = c.get(1, &[1, 2], 7).unwrap();
        assert_eq!(got_fp, 3);
        assert_eq!(got.keys(), vec!["gvn.eliminated".to_string()]);
        // Different tenant: cross hit.
        assert!(c.get(1, &[1, 2], 8).is_some());
        // Different source module: miss even with the same genome.
        assert!(c.get(2, &[1, 2], 7).is_none());
        let st = c.stats();
        assert_eq!((st.hits, st.cross_hits, st.misses), (2, 1, 2));
        assert_eq!((st.insertions, st.len), (1, 1));
    }

    #[test]
    fn shared_cache_first_writer_keeps_ownership() {
        let c = SharedCompileCache::new(8);
        let (s, fp, m) = entry(1);
        c.insert(1, vec![5], 7, s, fp, m);
        let (s2, fp2, m2) = entry(2);
        c.insert(1, vec![5], 8, s2, fp2, m2);
        // Tenant 7 still owns the entry (and its payload): 8's insert was
        // dropped, so 8 reading it is a cross hit and sees 7's value.
        let (_, got_fp, _) = c.get(1, &[5], 8).unwrap();
        assert_eq!(got_fp, 1);
        assert_eq!(c.stats().cross_hits, 1);
        assert_eq!(c.stats().insertions, 1);
    }

    #[test]
    fn session_ctl_cancel_and_deadline() {
        let ctl = SessionCtl::new(3);
        assert_eq!(ctl.interrupted(), None);
        let handle = ctl.clone();
        handle.cancel();
        assert_eq!(ctl.interrupted(), Some(SessionExit::Cancelled));

        let expired = SessionCtl::new(4).with_deadline(Instant::now());
        assert_eq!(expired.interrupted(), Some(SessionExit::TimedOut));
        // Cancel outranks deadline (it is checked first).
        expired.cancel();
        assert_eq!(expired.interrupted(), Some(SessionExit::Cancelled));
    }

    #[test]
    fn trace_digest_is_sensitive_and_stable() {
        let mut a = TuneTrace::default();
        a.record(2.0, vec![vec![PassId(1)]]);
        a.record(1.5, vec![vec![PassId(2)]]);
        let mut b = TuneTrace::default();
        b.record(2.0, vec![vec![PassId(1)]]);
        b.record(1.5, vec![vec![PassId(2)]]);
        assert_eq!(trace_digest(&a), trace_digest(&b));
        // One ULP of runtime difference flips the digest.
        let mut c = TuneTrace::default();
        c.record(2.0, vec![vec![PassId(1)]]);
        c.record(f64::from_bits(1.5f64.to_bits() + 1), vec![vec![PassId(2)]]);
        assert_ne!(trace_digest(&a), trace_digest(&c));
        // A different best sequence flips it too.
        let mut d = TuneTrace::default();
        d.record(2.0, vec![vec![PassId(1)]]);
        d.record(1.5, vec![vec![PassId(3)]]);
        assert_ne!(trace_digest(&a), trace_digest(&d));
    }
}
