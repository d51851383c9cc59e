//! Work classes: the bit universe behind the pass-subsumption matrix.
//!
//! Each class-owning pass has one bit naming the kind of transformable
//! work it consumes (dead pure code, const-foldable ops, promotable
//! allocas, rotatable loop headers, …). Three per-pass masks over this
//! universe drive the static subsumption derivation and the
//! `SeqCanonicalizer` dataflow (DESIGN.md §9–10):
//!
//! - [`crate::Pass::fires_on`] — the classes whose presence is *necessary*
//!   for the pass to change anything. `Some(mask)` is a theorem: on a
//!   module with none of those classes present, `run` must be a no-op.
//!   A pass declares a mask when its classes cover its fire test exactly —
//!   usually because the pass runs its rewrite to a fixpoint, but not
//!   necessarily (`loop-rotate` consumes while-shaped headers it never
//!   recreates, so [`ROT`] is a sound fire class even though rotation is
//!   not a fixpoint rewrite). Everything else answers `None` (unknown —
//!   never dropped).
//! - [`crate::Pass::clears`] — classes *provably absent* after the pass
//!   runs, regardless of input. A pass that runs to a fixpoint clears its
//!   own bit (so `p, p` collapses); any other owner clears its bit only if
//!   it provably exhausts the class; passes ending
//!   in an unconditional `dce_function` sweep additionally clear [`DEAD`].
//! - [`crate::Pass::produces`] — classes the pass may *create*. The
//!   always-sound default is "everything"; it is narrowed only where the
//!   pass's edit set makes the claim easy (e.g. `sink` moves pure
//!   scalar instructions and therefore cannot mint dead code).
//!
//! Every consequence of these masks is fuzz-executed as a theorem
//! (`citroen-analyze subsume`), and a violated claim fails CI rather than
//! silently mis-pruning.

/// Unused pure instructions (what `dce` removes).
pub const DEAD: u64 = 1 << 0;
/// Instructions dead only through cycles/control (what `adce` removes
/// beyond [`DEAD`]).
pub const ADCE: u64 = 1 << 1;
/// Stores overwritten before any read (what `dse` removes).
pub const DSE: u64 = 1 << 2;
/// Pure instructions sinkable into their single use block.
pub const SINK: u64 = 1 << 3;
/// Lattice-provable constants and one-way branches (what `sccp` rewrites).
pub const SCCP: u64 = 1 << 4;
/// Promotable allocas and unreachable blocks (what `mem2reg` consumes).
pub const M2R: u64 = 1 << 5;
/// Instructions with all-constant operands (what `constprop` folds).
pub const CP: u64 = 1 << 6;
/// Block-local redundant pure expressions (what `early-cse` unifies).
pub const ECSE: u64 = 1 << 7;
/// Underivable function attributes (what `function-attrs` infers).
pub const FA: u64 = 1 << 8;
/// Self-recursive calls in tail position (what `tailcallelim` marks).
pub const TCE: u64 = 1 << 9;
/// Loops lacking preheaders/dedicated exits (what `loop-simplify` fixes).
pub const LS: u64 = 1 << 10;
/// Side-effect-free loops with unused results (what `loop-deletion` drops).
pub const LD: u64 = 1 << 11;
/// Foldable branches, unreachable/mergeable/forwarding blocks and
/// single-incoming φs (what `simplifycfg` rewrites).
pub const CFGS: u64 = 1 << 12;
/// Loop-invariant hoistable instructions (what `licm` moves to preheaders).
pub const LICM: u64 = 1 << 13;
/// Constant-trip induction loops within the unroll budget (what
/// `loop-unroll` expands).
pub const IVL: u64 = 1 << 14;
/// While-shaped rotatable headers (what `loop-rotate` converts to do-while).
pub const ROT: u64 = 1 << 15;

/// Every tracked work class.
pub const ALL: u64 = (1 << 16) - 1;

/// Number of tracked classes.
pub const NUM_CLASSES: u32 = 16;

/// Short stable names, bit-index order (used in the interaction-graph JSON).
pub const NAMES: [&str; NUM_CLASSES as usize] = [
    "dead", "adce", "dse", "sink", "sccp", "m2r", "cp", "ecse", "fa", "tce", "ls", "ld",
    "cfgs", "licm", "ivl", "rot",
];

/// Render a mask as `dead|cp|…` (or `-` when empty, `*` when ALL).
pub fn mask_names(mask: u64) -> String {
    if mask == 0 {
        return "-".into();
    }
    if mask & ALL == ALL {
        return "*".into();
    }
    let mut out = Vec::new();
    for (i, n) in NAMES.iter().enumerate() {
        if mask & (1 << i) != 0 {
            out.push(*n);
        }
    }
    out.join("|")
}

/// Parse the output of [`mask_names`] back into a mask.
pub fn mask_from_names(s: &str) -> Option<u64> {
    match s {
        "-" => Some(0),
        "*" => Some(ALL),
        _ => {
            let mut mask = 0u64;
            for part in s.split('|') {
                let i = NAMES.iter().position(|n| *n == part)?;
                mask |= 1 << i;
            }
            Some(mask)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bits_are_distinct_and_covered_by_all() {
        let bits =
            [DEAD, ADCE, DSE, SINK, SCCP, M2R, CP, ECSE, FA, TCE, LS, LD, CFGS, LICM, IVL, ROT];
        let mut seen = 0u64;
        for b in bits {
            assert_eq!(seen & b, 0, "duplicate bit {b:#x}");
            seen |= b;
        }
        assert_eq!(seen, ALL);
    }

    #[test]
    fn mask_names_round_trip() {
        for mask in [0, ALL, DEAD, DEAD | CP | LD, ADCE | FA, CFGS | LICM, IVL | ROT] {
            assert_eq!(mask_from_names(&mask_names(mask)), Some(mask));
        }
        assert_eq!(mask_from_names("bogus"), None);
        assert_eq!(mask_from_names("dead|bogus"), None);
    }
}
