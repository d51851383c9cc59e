//! The pass-subsumption work model: which work classes each pass needs,
//! clears and may create, and the static subsumption matrix they imply.
//!
//! A subsumption edge `(p, q)` is a theorem: right after `p`, pass `q`
//! leaves the module fingerprint unchanged and records no statistics, on
//! any module. The sequence canonicaliser drops `q` there, and the
//! `citroen-analyze subsume` campaign executes every such drop.

/// Per-pass work-class masks: the statically-declared subsumption model
/// (`Pass::{fires_on, clears, produces}` in the passes crate). Bit `i` of a
/// mask refers to `classes[i]`; every claim encoded here is fuzz-executed
/// as a theorem by `citroen-analyze subsume`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkModel {
    /// Work-class names, bit-index order.
    pub classes: Vec<String>,
    /// Per pass: classes whose presence is necessary for it to fire
    /// (`None` = unknown, never dropped). Registry id order.
    pub fires_on: Vec<Option<u64>>,
    /// Per pass: classes provably absent after it runs.
    pub clears: Vec<u64>,
    /// Per pass: classes it may create.
    pub produces: Vec<u64>,
}

impl WorkModel {
    /// The static subsumption matrix implied by the masks: `(p, q)` pairs
    /// where `q` provably cannot fire immediately after `p` on *any* module
    /// (`fires_on[q] ⊆ clears[p]`). This generalises the idempotence
    /// diagonal — `(p, p)` is an edge for every self-clearing pass.
    pub fn subsumed_pairs(&self) -> Vec<(usize, usize)> {
        let mut out = Vec::new();
        for p in 0..self.clears.len() {
            for (q, fires) in self.fires_on.iter().enumerate() {
                if let Some(fq) = fires {
                    if fq & !self.clears[p] == 0 {
                        out.push((p, q));
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn work_model_matrix() {
        let work = WorkModel {
            classes: vec!["dead".into(), "cp".into()],
            fires_on: vec![Some(0b01), None, Some(0b10)],
            clears: vec![0b01, 0b11, 0b10],
            produces: vec![0b11, 0b00, 0b11],
        };
        // dce clears dead → subsumes dce; gvn clears both → subsumes dce and
        // constprop; constprop clears cp → subsumes itself. gvn itself has an
        // unknown fire mask and is never a subsumption target.
        assert_eq!(
            work.subsumed_pairs(),
            vec![(0, 0), (1, 0), (1, 2), (2, 2)]
        );
    }
}
