//! The no-op memo: pass runs already known to change nothing.
//!
//! A pass run that records no statistics and leaves the module's
//! [`StateKey`] unchanged did nothing, and the same pass on the same state
//! does nothing again, so [`PassManager::resume`](crate::PassManager::resume)
//! may skip it. The skip is exact, for three reasons:
//!
//! * **The key covers everything a pass reads.** A pass reads only the
//!   module (`Pass::run(&self, ..)`, and no pass holds interior state). The
//!   key is the source module's identity, [`fingerprint`] and
//!   [`value_types`]. The fingerprint covers every printed field and the
//!   function attributes. [`value_types`] covers each function's value-type
//!   table, of which the printer shows only some types and never the
//!   length. The source identity covers what neither hash covers: global
//!   contents and flags, which no pass writes (the `no_pass_touches_globals`
//!   test), so they are the source module's. NaN payloads are the one field
//!   the key treats alike, as the fingerprint does for the compile cache
//!   and the execution memo.
//! * **Statistics.** No pass reads `Stats`, and [`Stats::inc`] ignores a
//!   zero increment, so a run that left [`Stats::total`] unchanged left the
//!   statistics unchanged.
//! * **The result.** A skip leaves the state as the run would have: same
//!   module up to the key, same statistics.
//!
//! The memo is bounded by [`NOOP_MEMO_CAP`] and evicts by generations: new
//! entries go to the young generation; when it is full, the old generation
//! is dropped whole and the young one becomes old. A hit in the old
//! generation moves its entry back to the young one. Every operation is
//! O(1) amortised, which matters against pass runs of ~10 µs; a per-insert
//! least-recently-used scan would cost more than the runs it saves.
//!
//! [`fingerprint`]: citroen_ir::print::fingerprint
//! [`value_types`]: citroen_ir::print::value_types
//! [`Stats::inc`]: crate::Stats::inc
//! [`Stats::total`]: crate::Stats::total

use crate::manager::PassId;
use citroen_ir::module::Module;
use std::collections::HashSet;
use std::sync::Mutex;

/// Entries a memo holds at most, over both generations. A generation
/// holds 3,584 entries, 7/8 of 4,096: the most the standard hash set keeps
/// in a 4,096-slot table before it doubles the table, so a full memo is two
/// such tables of 16-byte entries, about 140 KB. In a daemon run of 480
/// `serve_mix`-like jobs over six programs, memos that never evict held
/// 5,700–6,300 entries per program, and memos of this size answered 99% of
/// the lookups those did.
pub const NOOP_MEMO_CAP: usize = 2 * 3584;

/// The memo lock is held only for a set lookup or insert, neither of which
/// can panic, so a poisoned lock is a bug.
const POISONED: &str = "no-op memo lock poisoned";

/// What a pass can read of a module state, hashed: see the module doc.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct StateKey {
    fingerprint: u64,
    /// The source identity mixed with [`citroen_ir::print::value_types`].
    rest: u64,
}

impl StateKey {
    /// The key of `m`, a state reached by passes from the source module
    /// `source` identifies. Within one memo, `source` must tell apart every
    /// two source modules that differ (a module's index in its program).
    pub fn of(source: u64, m: &Module) -> StateKey {
        let rest = avalanche(citroen_ir::print::value_types(m) ^ avalanche(source));
        StateKey { fingerprint: citroen_ir::print::fingerprint(m), rest }
    }

    /// The state's [`citroen_ir::print::fingerprint`].
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The memo entry of `pass` on this state. For one state, distinct
    /// passes give distinct entries (an odd multiple is a bijection); two
    /// states of equal fingerprint share an entry only by a 64-bit hash
    /// collision.
    fn with(self, pass: PassId) -> Entry {
        [self.fingerprint, self.rest ^ (pass.0 as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15)]
    }
}

/// The SplitMix64 finaliser: every input bit moves every output bit.
fn avalanche(mut x: u64) -> u64 {
    x = (x ^ x >> 30).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ x >> 27).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ x >> 31
}

/// A snapshot of a memo's counters: a no-op memo's, an execution memo's, or
/// a sum of several.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Lookups the memo answered.
    pub hits: u64,
    /// Lookups it could not answer.
    pub misses: u64,
    /// Entries evicted.
    pub evictions: u64,
    /// Current entry count.
    pub len: u64,
}

impl std::ops::Add for MemoStats {
    type Output = MemoStats;
    fn add(self, o: MemoStats) -> MemoStats {
        MemoStats {
            hits: self.hits + o.hits,
            misses: self.misses + o.misses,
            evictions: self.evictions + o.evictions,
            len: self.len + o.len,
        }
    }
}

/// A `(state, pass)` pair: the fingerprint, and the rest of the state
/// key mixed with the pass.
type Entry = [u64; 2];

struct Generations {
    young: HashSet<Entry>,
    old: HashSet<Entry>,
    /// Entries per generation.
    half: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl Generations {
    /// Add an entry absent from both generations.
    fn push(&mut self, e: Entry) {
        if self.young.len() >= self.half {
            self.evictions += self.old.len() as u64;
            std::mem::swap(&mut self.young, &mut self.old);
            self.young.clear();
        }
        self.young.insert(e);
    }
}

/// A bounded, thread-safe set of `(state, pass)` pairs whose pass run left
/// the state unchanged.
pub struct NoopMemo {
    gens: Mutex<Generations>,
}

impl Default for NoopMemo {
    fn default() -> NoopMemo {
        NoopMemo::with_cap(NOOP_MEMO_CAP)
    }
}

impl NoopMemo {
    /// An empty memo of [`NOOP_MEMO_CAP`] entries.
    pub fn new() -> NoopMemo {
        NoopMemo::default()
    }

    /// An empty memo of at most `cap` entries (at least 2).
    fn with_cap(cap: usize) -> NoopMemo {
        let half = (cap / 2).max(1);
        NoopMemo {
            gens: Mutex::new(Generations {
                young: HashSet::new(),
                old: HashSet::new(),
                half,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    /// Whether `pass` is known to change nothing on `state`, counting the
    /// hit or miss.
    pub fn skips(&self, state: StateKey, pass: PassId) -> bool {
        let e = state.with(pass);
        let mut g = self.gens.lock().expect(POISONED);
        let hit = if g.young.contains(&e) {
            true
        } else if g.old.remove(&e) {
            g.push(e);
            true
        } else {
            false
        };
        if hit {
            g.hits += 1;
        } else {
            g.misses += 1;
        }
        hit
    }

    /// Record that `pass` changed nothing on `state`.
    pub fn record(&self, state: StateKey, pass: PassId) {
        let e = state.with(pass);
        let mut g = self.gens.lock().expect(POISONED);
        // Another thread may have recorded the pair since this one missed.
        if !g.young.contains(&e) && !g.old.contains(&e) {
            g.push(e);
        }
    }

    /// Lifetime counters and occupancy.
    pub fn stats(&self) -> MemoStats {
        let g = self.gens.lock().expect(POISONED);
        MemoStats {
            hits: g.hits,
            misses: g.misses,
            evictions: g.evictions,
            len: (g.young.len() + g.old.len()) as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(i: u64) -> StateKey {
        StateKey { fingerprint: i, rest: 0 }
    }

    #[test]
    fn generations_bound_the_memo_and_keep_what_is_hit() {
        let memo = NoopMemo::with_cap(4);
        for i in 0..4 {
            memo.record(key(i), PassId(0));
        }
        // Two generations of two: 0 and 1 aged, 2 and 3 are young.
        assert_eq!(memo.stats(), MemoStats { len: 4, ..Default::default() });
        assert!(memo.skips(key(0), PassId(0)), "an old entry answers");
        // Its move to the young generation aged 2 and 3 and dropped 1.
        assert_eq!(memo.stats().evictions, 1);
        assert!(!memo.skips(key(1), PassId(0)));
        assert!(memo.skips(key(3), PassId(0)));
        assert!(!memo.skips(key(3), PassId(1)), "the pass is part of the key");
        memo.record(key(3), PassId(0));
        let s = memo.stats();
        assert_eq!((s.hits, s.misses), (2, 2));
        assert!(s.len <= 4, "{s:?}");
        for i in 10..1000 {
            memo.record(key(i), PassId(0));
            assert!(memo.stats().len <= 4);
        }
        let s = memo.stats();
        assert_eq!(s.len + s.evictions, 990 + 4, "every entry is resident or evicted");
    }
}
