//! Function-level analyses: CFG shape, dominators, dominance frontiers,
//! natural loops, and def/use information. These are the substrate the
//! transformation passes (mem2reg, LICM, loop passes, …) are built on.

use crate::inst::{BlockId, Inst, Operand, ValueId};
use crate::module::Function;
use std::collections::HashMap;

/// Predecessor/successor lists and a reverse postorder of the CFG.
#[derive(Debug, Clone)]
pub struct Cfg {
    /// Predecessors of each block.
    pub preds: Vec<Vec<BlockId>>,
    /// Successors of each block.
    pub succs: Vec<Vec<BlockId>>,
    /// Reverse postorder over blocks reachable from the entry.
    pub rpo: Vec<BlockId>,
    /// `rpo_index[b] == position of b in rpo`, or `usize::MAX` if unreachable.
    pub rpo_index: Vec<usize>,
}

impl Cfg {
    /// Compute the CFG of `f`.
    pub fn compute(f: &Function) -> Cfg {
        let n = f.blocks.len();
        if n == 0 {
            // Declarations have no CFG.
            return Cfg { preds: vec![], succs: vec![], rpo: vec![], rpo_index: vec![] };
        }
        let mut preds = vec![Vec::new(); n];
        let mut succs = vec![Vec::new(); n];
        for (b, blk) in f.iter_blocks() {
            for s in blk.term.successors() {
                succs[b.idx()].push(s);
                preds[s.idx()].push(b);
            }
        }
        // Iterative DFS postorder from the entry.
        let mut post = Vec::with_capacity(n);
        let mut visited = vec![false; n];
        let mut stack: Vec<(BlockId, usize)> = vec![(BlockId(0), 0)];
        visited[0] = true;
        while let Some(&mut (b, ref mut i)) = stack.last_mut() {
            if *i < succs[b.idx()].len() {
                let s = succs[b.idx()][*i];
                *i += 1;
                if !visited[s.idx()] {
                    visited[s.idx()] = true;
                    stack.push((s, 0));
                }
            } else {
                post.push(b);
                stack.pop();
            }
        }
        let rpo: Vec<BlockId> = post.into_iter().rev().collect();
        let mut rpo_index = vec![usize::MAX; n];
        for (i, b) in rpo.iter().enumerate() {
            rpo_index[b.idx()] = i;
        }
        Cfg { preds, succs, rpo, rpo_index }
    }

    /// Whether block `b` is reachable from the entry.
    pub fn reachable(&self, b: BlockId) -> bool {
        self.rpo_index[b.idx()] != usize::MAX
    }
}

/// Dominator tree plus dominance frontiers (Cooper–Harvey–Kennedy).
#[derive(Debug, Clone)]
pub struct DomTree {
    /// Immediate dominator of each block (`idom[entry] == entry`);
    /// `None` for unreachable blocks.
    pub idom: Vec<Option<BlockId>>,
    /// Dominance frontier of each block.
    pub frontier: Vec<Vec<BlockId>>,
    /// Children in the dominator tree.
    pub children: Vec<Vec<BlockId>>,
    rpo_index: Vec<usize>,
}

impl DomTree {
    /// Compute dominators of `f` given its CFG.
    pub fn compute(f: &Function, cfg: &Cfg) -> DomTree {
        let n = f.blocks.len();
        let mut idom: Vec<Option<BlockId>> = vec![None; n];
        if n == 0 {
            return DomTree { idom, frontier: vec![], children: vec![], rpo_index: vec![] };
        }
        idom[0] = Some(BlockId(0));

        let intersect = |idom: &[Option<BlockId>], mut a: BlockId, mut b: BlockId| -> BlockId {
            while a != b {
                while cfg.rpo_index[a.idx()] > cfg.rpo_index[b.idx()] {
                    a = idom[a.idx()].unwrap();
                }
                while cfg.rpo_index[b.idx()] > cfg.rpo_index[a.idx()] {
                    b = idom[b.idx()].unwrap();
                }
            }
            a
        };

        let mut changed = true;
        while changed {
            changed = false;
            for &b in cfg.rpo.iter().skip(1) {
                let mut new_idom: Option<BlockId> = None;
                for &p in &cfg.preds[b.idx()] {
                    if idom[p.idx()].is_none() {
                        continue; // unprocessed or unreachable
                    }
                    new_idom = Some(match new_idom {
                        None => p,
                        Some(cur) => intersect(&idom, cur, p),
                    });
                }
                if let Some(ni) = new_idom {
                    if idom[b.idx()] != Some(ni) {
                        idom[b.idx()] = Some(ni);
                        changed = true;
                    }
                }
            }
        }

        // Dominance frontiers.
        let mut frontier = vec![Vec::new(); n];
        for &b in &cfg.rpo {
            if cfg.preds[b.idx()].len() >= 2 {
                for &p in &cfg.preds[b.idx()] {
                    if idom[p.idx()].is_none() {
                        continue;
                    }
                    let mut runner = p;
                    while runner != idom[b.idx()].unwrap() {
                        if !frontier[runner.idx()].contains(&b) {
                            frontier[runner.idx()].push(b);
                        }
                        runner = idom[runner.idx()].unwrap();
                    }
                }
            }
        }

        let mut children = vec![Vec::new(); n];
        for &b in cfg.rpo.iter().skip(1) {
            if let Some(d) = idom[b.idx()] {
                children[d.idx()].push(b);
            }
        }
        DomTree { idom, frontier, children, rpo_index: cfg.rpo_index.clone() }
    }

    /// Whether `a` dominates `b` (reflexive).
    pub fn dominates(&self, a: BlockId, b: BlockId) -> bool {
        let mut cur = b;
        loop {
            if cur == a {
                return true;
            }
            match self.idom[cur.idx()] {
                Some(d) if d != cur => cur = d,
                _ => return cur == a,
            }
        }
    }

    /// Whether block `b` is reachable (has a computed idom).
    pub fn reachable(&self, b: BlockId) -> bool {
        self.idom[b.idx()].is_some()
    }

    /// Reverse-postorder index (useful for scheduling decisions).
    pub fn rpo_index(&self, b: BlockId) -> usize {
        self.rpo_index[b.idx()]
    }
}

/// One natural loop.
#[derive(Debug, Clone)]
pub struct Loop {
    /// Loop header block.
    pub header: BlockId,
    /// Latch blocks (sources of back edges to the header).
    pub latches: Vec<BlockId>,
    /// All blocks in the loop body (including the header).
    pub blocks: Vec<BlockId>,
    /// Loop nesting depth (outermost = 1).
    pub depth: u32,
    /// Unique preheader, if the header has exactly one out-of-loop predecessor.
    pub preheader: Option<BlockId>,
}

impl Loop {
    /// Whether `b` belongs to this loop.
    pub fn contains(&self, b: BlockId) -> bool {
        self.blocks.contains(&b)
    }
}

/// The set of natural loops of a function.
#[derive(Debug, Clone, Default)]
pub struct LoopInfo {
    /// Loops, outermost first within a nest.
    pub loops: Vec<Loop>,
    /// Innermost loop containing each block, if any (index into `loops`).
    pub innermost: Vec<Option<usize>>,
}

impl LoopInfo {
    /// Find natural loops via back edges (edges whose target dominates source).
    pub fn compute(f: &Function, cfg: &Cfg, dom: &DomTree) -> LoopInfo {
        let n = f.blocks.len();
        // Group back edges by header.
        let mut latches_by_header: HashMap<BlockId, Vec<BlockId>> = HashMap::new();
        for &b in &cfg.rpo {
            for &s in &cfg.succs[b.idx()] {
                if dom.dominates(s, b) {
                    latches_by_header.entry(s).or_default().push(b);
                }
            }
        }
        let mut loops = Vec::new();
        let mut headers_sorted: Vec<BlockId> = latches_by_header.keys().copied().collect();
        headers_sorted.sort_unstable_by_key(|b| b.0);
        for header in headers_sorted {
            let latches = latches_by_header[&header].clone();
            // Collect body: reverse reachability from latches without passing header.
            let mut body = vec![header];
            let mut stack = latches.clone();
            while let Some(b) = stack.pop() {
                if !body.contains(&b) {
                    body.push(b);
                    for &p in &cfg.preds[b.idx()] {
                        if dom.reachable(p) {
                            stack.push(p);
                        }
                    }
                }
            }
            body.sort_unstable_by_key(|b| b.0);
            // Preheader: unique out-of-loop predecessor of the header.
            let outside: Vec<BlockId> = cfg.preds[header.idx()]
                .iter()
                .copied()
                .filter(|p| !body.contains(p))
                .collect();
            let preheader = if outside.len() == 1 { Some(outside[0]) } else { None };
            loops.push(Loop { header, latches, blocks: body, depth: 1, preheader });
        }
        // Depth: number of loops containing the header.
        let headers: Vec<BlockId> = loops.iter().map(|l| l.header).collect();
        for (i, h) in headers.iter().enumerate() {
            let depth = loops.iter().filter(|l| l.contains(*h)).count() as u32;
            loops[i].depth = depth;
        }
        // Sort outermost (shallowest) first, ties by header id, so passes
        // iterate loops in a deterministic order.
        loops.sort_by_key(|l| (l.depth, l.header.0));
        let mut innermost: Vec<Option<usize>> = vec![None; n];
        for (i, l) in loops.iter().enumerate() {
            for &b in &l.blocks {
                match innermost[b.idx()] {
                    Some(j) if loops[j].depth >= l.depth => {}
                    _ => innermost[b.idx()] = Some(i),
                }
            }
        }
        LoopInfo { loops, innermost }
    }
}

/// Definition site of a value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DefSite {
    /// Function parameter.
    Param,
    /// Defined by instruction `inst` of block `block`.
    Inst {
        /// Defining block.
        block: BlockId,
        /// Instruction index within the block.
        inst: usize,
    },
}

/// Def/use summary: definition site and use count per value.
#[derive(Debug, Clone)]
pub struct DefUse {
    /// Definition site of each value (`None` if never defined — verifier error).
    pub def: Vec<Option<DefSite>>,
    /// Number of uses of each value (instruction + terminator operands).
    pub uses: Vec<u32>,
}

impl DefUse {
    /// Compute def/use info for `f`.
    pub fn compute(f: &Function) -> DefUse {
        let nv = f.value_ty.len();
        let mut def = vec![None; nv];
        let mut uses = vec![0u32; nv];
        for d in def.iter_mut().take(f.params.len()) {
            *d = Some(DefSite::Param);
        }
        let mut count = |op: &Operand| {
            if let Operand::Value(v) = op {
                uses[v.idx()] += 1;
            }
        };
        for (b, blk) in f.iter_blocks() {
            for (i, inst) in blk.insts.iter().enumerate() {
                if let Some(d) = inst.dst() {
                    def[d.idx()] = Some(DefSite::Inst { block: b, inst: i });
                }
                inst.for_each_operand(&mut count);
            }
            blk.term.for_each_operand(&mut count);
        }
        DefUse { def, uses }
    }

    /// Whether value `v` has no uses.
    pub fn is_dead(&self, v: ValueId) -> bool {
        self.uses[v.idx()] == 0
    }
}

/// Convenience bundle of all standard analyses, recomputed on demand.
pub struct FunctionAnalysis {
    /// CFG shape.
    pub cfg: Cfg,
    /// Dominator tree and frontiers.
    pub dom: DomTree,
    /// Natural loops.
    pub loops: LoopInfo,
}

impl FunctionAnalysis {
    /// Run all analyses on `f`.
    pub fn compute(f: &Function) -> FunctionAnalysis {
        let cfg = Cfg::compute(f);
        let dom = DomTree::compute(f, &cfg);
        let loops = LoopInfo::compute(f, &cfg, &dom);
        FunctionAnalysis { cfg, dom, loops }
    }
}

/// Find the alloca instructions of `f` along with their defining sites.
pub fn allocas(f: &Function) -> Vec<(ValueId, BlockId, usize, u32)> {
    let mut out = Vec::new();
    for (b, blk) in f.iter_blocks() {
        for (i, inst) in blk.insts.iter().enumerate() {
            if let Inst::Alloca { dst, bytes } = inst {
                out.push((*dst, b, i, *bytes));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{counted_loop_mem, FunctionBuilder};
    use crate::inst::CmpOp;
    use crate::types::I64;

    fn diamond() -> Function {
        // entry -> (t | f) -> join
        let mut b = FunctionBuilder::new("d", vec![I64], Some(I64));
        let t = b.block();
        let fb = b.block();
        let j = b.block();
        let c = b.cmp(CmpOp::Sgt, b.param(0), Operand::imm64(0));
        b.cond_br(c, t, fb);
        b.switch_to(t);
        b.br(j);
        b.switch_to(fb);
        b.br(j);
        b.switch_to(j);
        let p = b.phi(I64, vec![(t, Operand::imm64(1)), (fb, Operand::imm64(2))]);
        b.ret(Some(p));
        b.finish()
    }

    use crate::inst::Operand;

    #[test]
    fn cfg_diamond() {
        let f = diamond();
        let cfg = Cfg::compute(&f);
        assert_eq!(cfg.succs[0].len(), 2);
        assert_eq!(cfg.preds[3].len(), 2);
        assert_eq!(cfg.rpo.len(), 4);
        assert_eq!(cfg.rpo[0], BlockId(0));
        assert!(cfg.reachable(BlockId(3)));
    }

    #[test]
    fn dom_diamond() {
        let f = diamond();
        let cfg = Cfg::compute(&f);
        let dom = DomTree::compute(&f, &cfg);
        // entry dominates everything; join's idom is entry.
        assert_eq!(dom.idom[3], Some(BlockId(0)));
        assert!(dom.dominates(BlockId(0), BlockId(3)));
        assert!(!dom.dominates(BlockId(1), BlockId(3)));
        // t and f have join in their dominance frontier.
        assert!(dom.frontier[1].contains(&BlockId(3)));
        assert!(dom.frontier[2].contains(&BlockId(3)));
        assert!(dom.frontier[3].is_empty());
    }

    #[test]
    fn loop_detection() {
        let mut b = FunctionBuilder::new("l", vec![I64], Some(I64));
        let n = b.param(0);
        counted_loop_mem(&mut b, n, |_, _| {});
        b.ret(Some(Operand::imm64(0)));
        let f = b.finish();
        let cfg = Cfg::compute(&f);
        let dom = DomTree::compute(&f, &cfg);
        let li = LoopInfo::compute(&f, &cfg, &dom);
        assert_eq!(li.loops.len(), 1);
        let l = &li.loops[0];
        assert_eq!(l.header, BlockId(1)); // the check block
        assert_eq!(l.depth, 1);
        assert_eq!(l.blocks.len(), 2); // check + body
        assert_eq!(l.preheader, Some(BlockId(0)));
    }

    #[test]
    fn nested_loop_depth() {
        let mut b = FunctionBuilder::new("n", vec![I64], Some(I64));
        let n = b.param(0);
        counted_loop_mem(&mut b, n, |b, _| {
            counted_loop_mem(b, n, |_, _| {});
        });
        b.ret(Some(Operand::imm64(0)));
        let f = b.finish();
        let a = FunctionAnalysis::compute(&f);
        assert_eq!(a.loops.loops.len(), 2);
        assert_eq!(a.loops.loops[0].depth, 1);
        assert_eq!(a.loops.loops[1].depth, 2);
        // innermost mapping points at the deeper loop for inner blocks.
        let inner = &a.loops.loops[1];
        let idx = a.loops.innermost[inner.header.idx()].unwrap();
        assert_eq!(a.loops.loops[idx].header, inner.header);
    }

    #[test]
    fn defuse_counts() {
        let f = diamond();
        let du = DefUse::compute(&f);
        // param 0 used once (in the cmp)
        assert_eq!(du.uses[0], 1);
        assert_eq!(du.def[0], Some(DefSite::Param));
        // cmp result used by terminator
        assert_eq!(du.uses[1], 1);
        // phi used by ret
        assert_eq!(du.uses[2], 1);
        assert!(!du.is_dead(ValueId(2)));
    }
}
