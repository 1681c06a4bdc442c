//! The whole-program dependence graph.
//!
//! Nodes are individual IR instructions and terminators plus a handful of
//! summary nodes; edges over-approximate "if the value / execution of A is
//! perturbed, the behavior of B may change":
//!
//! - **data**: def → use, from the per-function [`ReachingDefs`];
//! - **control**: branch terminator → every node in a control-dependent
//!   block ([`ControlDeps`], Ferrante–Ottenstein–Warren over the existing
//!   post-dominator tree);
//! - **call**: call instruction → `CallCtl(callee)` → every node of the
//!   callee (a perturbed argument or a control-dependent call perturbs
//!   everything the callee does), and `Return` terminator → `Ret(callee)`
//!   → call instruction (the result flows back). Indirect calls, `spawn`
//!   and `join` conservatively use every address-taken function;
//! - **global**: stores → `Global(g)` → loads, flow- and
//!   context-insensitively;
//! - **channel**: syscall site → syscall site when the writer's channel
//!   set may alias the reader's ([`site_effects`]) — data flowing through
//!   vOS files, sockets, the clock, and the RNG;
//! - **end**: instruction → `End` when perturbing it can change the
//!   process end state (exit code or trap-vs-normal): `exit` sites,
//!   trap-capable instructions (`/`, `%`, indexing, indirect calls),
//!   thread and non-local control (`spawn`/`join`/`lock`/`unlock`/
//!   `setjmp`/`longjmp`), and loop branches (step-count divergence hits
//!   the interpreter step limit).

use crate::cdep::ControlDeps;
use crate::reachdef::{DefSite, ReachingDefs, UsePos, TERM_IDX};
use crate::resource::{may_alias, site_effects, Resolver, SiteEffects, ValSet};
use ldx_ir::{BlockId, CallGraph, FuncId, GlobalId, Instr, IrProgram, SiteId, Terminator};
use ldx_lang::Syscall;
use std::collections::{BTreeMap, BTreeSet, HashMap};

/// A node of the program dependence graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Node {
    /// One IR instruction.
    Ins {
        /// Containing function.
        func: FuncId,
        /// Containing block.
        block: BlockId,
        /// Instruction index within the block.
        idx: usize,
    },
    /// One block terminator.
    Term {
        /// Containing function.
        func: FuncId,
        /// The block.
        block: BlockId,
    },
    /// "Some call of this function is perturbed": taints the whole body.
    CallCtl(FuncId),
    /// "The return value of this function is perturbed."
    Ret(FuncId),
    /// A global variable, flow-insensitively.
    Global(GlobalId),
    /// The process end state: exit code, or trapping vs. finishing.
    End,
}

/// Dense node id within a [`Pdg`].
pub type NodeId = u32;

/// What we know statically about one syscall site.
#[derive(Debug, Clone)]
pub struct SiteInfo {
    /// The PDG node of the syscall instruction.
    pub node: NodeId,
    /// The syscall kind.
    pub sys: Syscall,
    /// Containing function.
    pub func: FuncId,
    /// The site id used by the progress counters and causality records.
    pub site: SiteId,
    /// vOS channels the site may read / write.
    pub effects: SiteEffects,
    /// Abstract values of the operands, in order.
    pub args: Vec<ValSet>,
}

/// The whole-program dependence graph plus its syscall-site table.
#[derive(Debug)]
pub struct Pdg {
    nodes: Vec<Node>,
    index: NodeIndex,
    succs: Vec<Vec<NodeId>>,
    /// Syscall sites keyed by `(function, site id)` — the same key
    /// causality records carry.
    pub sites: BTreeMap<(FuncId, SiteId), SiteInfo>,
    edge_count: usize,
}

impl Pdg {
    /// Builds the dependence graph for `program`.
    pub fn build(program: &IrProgram) -> Self {
        Builder::new(program).build()
    }

    /// All nodes, indexed by [`NodeId`].
    pub fn nodes(&self) -> &[Node] {
        &self.nodes
    }

    /// The id of `node`, if present.
    pub fn node_id(&self, node: &Node) -> Option<NodeId> {
        self.index.get(node)
    }

    /// Successors of `n`.
    pub fn succs(&self, n: NodeId) -> &[NodeId] {
        &self.succs[n as usize]
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.edge_count
    }

    /// All nodes reachable from the seeds (the seeds themselves included).
    pub fn reachable(&self, seeds: impl IntoIterator<Item = NodeId>) -> Vec<bool> {
        let mut seen = vec![false; self.nodes.len()];
        let mut stack: Vec<NodeId> = Vec::new();
        for s in seeds {
            if !seen[s as usize] {
                seen[s as usize] = true;
                stack.push(s);
            }
        }
        while let Some(n) = stack.pop() {
            for &s in self.succs(n) {
                if !seen[s as usize] {
                    seen[s as usize] = true;
                    stack.push(s);
                }
            }
        }
        seen
    }
}

/// Node ids by node. Instructions and terminators have dense ids, laid
/// out function by function and block by block: a block's instructions in
/// order, then its terminator. The few summary nodes are looked up.
#[derive(Debug, Default)]
struct NodeIndex {
    /// Per function, the first id of each block, then the id after its
    /// last block's terminator.
    blocks: Vec<Vec<NodeId>>,
    summary: HashMap<Node, NodeId>,
}

impl NodeIndex {
    /// The id of an instruction or terminator node.
    fn dense(&self, func: FuncId, block: BlockId, idx: Option<usize>) -> Option<NodeId> {
        let starts = self.blocks.get(func.index())?;
        let (start, next) = (*starts.get(block.index())?, *starts.get(block.index() + 1)?);
        match idx {
            None => Some(next - 1),
            Some(idx) => (idx < (next - 1 - start) as usize).then(|| start + idx as NodeId),
        }
    }

    fn get(&self, node: &Node) -> Option<NodeId> {
        match *node {
            Node::Ins { func, block, idx } => self.dense(func, block, Some(idx)),
            Node::Term { func, block } => self.dense(func, block, None),
            _ => self.summary.get(node).copied(),
        }
    }
}

struct Builder<'p> {
    program: &'p IrProgram,
    nodes: Vec<Node>,
    index: NodeIndex,
    /// Sorted and deduplicated once, when the graph is built.
    edges: Vec<(NodeId, NodeId)>,
    sites: BTreeMap<(FuncId, SiteId), SiteInfo>,
}

impl<'p> Builder<'p> {
    fn new(program: &'p IrProgram) -> Self {
        Builder {
            program,
            nodes: Vec::new(),
            index: NodeIndex::default(),
            edges: Vec::new(),
            sites: BTreeMap::new(),
        }
    }

    /// The id of an instruction node.
    fn ins(&self, func: FuncId, block: BlockId, idx: usize) -> NodeId {
        self.index.blocks[func.index()][block.index()] + idx as NodeId
    }

    /// The id of a terminator node.
    fn term(&self, func: FuncId, block: BlockId) -> NodeId {
        self.index.blocks[func.index()][block.index() + 1] - 1
    }

    /// The id of a summary node, created on first use.
    fn node(&mut self, n: Node) -> NodeId {
        if let Some(&id) = self.index.summary.get(&n) {
            return id;
        }
        let id = self.nodes.len() as NodeId;
        self.nodes.push(n);
        self.index.summary.insert(n, id);
        id
    }

    fn edge(&mut self, from: NodeId, to: NodeId) {
        if from != to {
            self.edges.push((from, to));
        }
    }

    fn build(mut self) -> Pdg {
        // Lay out every instruction/terminator node first, so ids are
        // stable and iteration order is deterministic.
        for (fid, func) in self.program.iter_funcs() {
            let mut starts = Vec::with_capacity(func.blocks.len() + 1);
            for b in func.block_ids() {
                starts.push(self.nodes.len() as NodeId);
                let instrs = func.block(b).instrs.len();
                self.nodes.extend((0..instrs).map(|idx| Node::Ins {
                    func: fid,
                    block: b,
                    idx,
                }));
                self.nodes.push(Node::Term {
                    func: fid,
                    block: b,
                });
            }
            starts.push(self.nodes.len() as NodeId);
            self.index.blocks.push(starts);
        }
        let end = self.node(Node::End);

        let callgraph = CallGraph::compute(self.program);
        let address_taken = self.address_taken();

        let funcs: Vec<FuncId> = self.program.iter_funcs().map(|(fid, _)| fid).collect();
        for fid in funcs {
            self.build_function(fid, &address_taken, &callgraph, end);
        }
        self.channel_edges();

        self.edges.sort_unstable();
        self.edges.dedup();
        let mut succs: Vec<Vec<NodeId>> = vec![Vec::new(); self.nodes.len()];
        let edge_count = self.edges.len();
        for &(a, b) in &self.edges {
            succs[a as usize].push(b);
        }
        Pdg {
            nodes: self.nodes,
            index: self.index,
            succs,
            sites: self.sites,
            edge_count,
        }
    }

    /// Functions whose address is taken (`&f` anywhere): conservative
    /// targets of indirect calls and `spawn`.
    fn address_taken(&self) -> Vec<FuncId> {
        let mut out = BTreeSet::new();
        for (_, func) in self.program.iter_funcs() {
            for b in func.block_ids() {
                for instr in &func.block(b).instrs {
                    if let Instr::FuncRef { func: f, .. } = instr {
                        out.insert(*f);
                    }
                }
            }
        }
        out.into_iter().collect()
    }

    fn build_function(
        &mut self,
        fid: FuncId,
        address_taken: &[FuncId],
        callgraph: &CallGraph,
        end: NodeId,
    ) {
        let func = self.program.func(fid);
        let rd = ReachingDefs::compute(func);
        let cdeps = ControlDeps::compute(func);
        let mut resolver = Resolver::new(func, &rd);

        // Data edges: def → use.
        for (pos, _local, defs) in rd.iter_uses() {
            let to = if pos.idx == TERM_IDX {
                self.term(fid, pos.block)
            } else {
                self.ins(fid, pos.block, pos.idx)
            };
            for &d in defs {
                if let DefSite::Instr(b, idx) = rd.def(d).site {
                    let from = self.ins(fid, b, idx);
                    self.edge(from, to);
                }
                // Param defs carry no edge: arguments are covered by the
                // coarse CallCtl(fid) → body rule below.
            }
        }

        // Control edges: controlling branch → every node of the block.
        for (b, controllers) in cdeps.iter() {
            // The block's instructions and terminator: a run of ids.
            let targets = self.ins(fid, b, 0)..=self.term(fid, b);
            for &a in controllers {
                let from = self.term(fid, a);
                for t in targets.clone() {
                    self.edge(from, t);
                }
            }
        }

        // CallCtl(fid) → every node of the body.
        let callctl = self.node(Node::CallCtl(fid));
        for b in func.block_ids() {
            for n in self.ins(fid, b, 0)..=self.term(fid, b) {
                self.edge(callctl, n);
            }
        }

        // Per-instruction rules.
        let in_loop = {
            let forest = ldx_ir::LoopForest::compute(func);
            let mut flags = vec![false; func.blocks.len()];
            for l in forest.loops() {
                for &b in &l.body {
                    flags[b.index()] = true;
                }
            }
            flags
        };
        for b in func.block_ids() {
            for (idx, instr) in func.block(b).instrs.iter().enumerate() {
                let here = self.ins(fid, b, idx);
                match instr {
                    Instr::Call { func: callee, .. } => {
                        let ctl = self.node(Node::CallCtl(*callee));
                        self.edge(here, ctl);
                        let ret = self.node(Node::Ret(*callee));
                        self.edge(ret, here);
                        // Perturbed arguments to a recursive callee can
                        // change recursion depth (stack overflow).
                        if callgraph.is_recursive(*callee) {
                            self.edge(here, end);
                        }
                    }
                    Instr::CallIndirect { .. } => {
                        for &h in address_taken {
                            let ctl = self.node(Node::CallCtl(h));
                            self.edge(here, ctl);
                            let ret = self.node(Node::Ret(h));
                            self.edge(ret, here);
                        }
                        // A perturbed callee value can trap (NotCallable).
                        self.edge(here, end);
                    }
                    Instr::StoreGlobal { global, .. } => {
                        let g = self.node(Node::Global(*global));
                        self.edge(here, g);
                    }
                    Instr::StoreIndexGlobal { global, .. } => {
                        let g = self.node(Node::Global(*global));
                        self.edge(here, g);
                        // Perturbed index can trap (IndexOutOfBounds).
                        self.edge(here, end);
                    }
                    Instr::LoadGlobal { global, .. } => {
                        let g = self.node(Node::Global(*global));
                        self.edge(g, here);
                    }
                    Instr::Binary { op, .. } => {
                        if matches!(op, ldx_lang::BinaryOp::Div | ldx_lang::BinaryOp::Rem) {
                            // Perturbed divisor can trap (DivisionByZero).
                            self.edge(here, end);
                        }
                    }
                    Instr::Index { .. } | Instr::StoreIndexLocal { .. } => {
                        // Perturbed index can trap (IndexOutOfBounds).
                        self.edge(here, end);
                    }
                    Instr::Syscall {
                        sys, args, site, ..
                    } => {
                        let arg_vals: Vec<ValSet> = args
                            .iter()
                            .map(|&a| resolver.resolve(UsePos { block: b, idx }, a))
                            .collect();
                        let effects = site_effects(*sys, &arg_vals);
                        self.sites.insert(
                            (fid, *site),
                            SiteInfo {
                                node: here,
                                sys: *sys,
                                func: fid,
                                site: *site,
                                effects,
                                args: arg_vals,
                            },
                        );
                        match sys {
                            Syscall::Exit
                            | Syscall::Setjmp
                            | Syscall::Longjmp
                            | Syscall::Lock
                            | Syscall::Unlock => {
                                self.edge(here, end);
                            }
                            Syscall::Spawn => {
                                self.edge(here, end);
                                for &h in address_taken {
                                    let ctl = self.node(Node::CallCtl(h));
                                    self.edge(here, ctl);
                                }
                            }
                            Syscall::Join => {
                                self.edge(here, end);
                                for &h in address_taken {
                                    let ret = self.node(Node::Ret(h));
                                    self.edge(ret, here);
                                }
                            }
                            _ => {}
                        }
                    }
                    _ => {}
                }
            }
            let term = self.term(fid, b);
            match &func.block(b).term {
                Terminator::Return(_) => {
                    let ret = self.node(Node::Ret(fid));
                    self.edge(term, ret);
                }
                Terminator::Branch { .. } => {
                    // A perturbed branch inside a loop changes the step
                    // count, which can cross the interpreter step limit.
                    if in_loop[b.index()] {
                        self.edge(term, end);
                    }
                }
                Terminator::Jump { .. } => {}
            }
        }
    }

    /// Channel edges: writer site → reader site for each may-aliasing
    /// channel pair.
    fn channel_edges(&mut self) {
        let entries: Vec<(NodeId, SiteEffects)> = self
            .sites
            .values()
            .map(|s| (s.node, s.effects.clone()))
            .collect();
        for (wn, we) in &entries {
            if we.writes.is_empty() {
                continue;
            }
            for (rn, re) in &entries {
                if wn == rn {
                    continue;
                }
                let hit = we
                    .writes
                    .iter()
                    .any(|w| re.reads.iter().any(|r| may_alias(w, r)));
                if hit {
                    self.edge(*wn, *rn);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_node_is_found_by_its_id() {
        let program = ldx_ir::lower(
            &ldx_lang::compile(
                r#"global g = 0;
                fn f(x) { if (x > 1) { g = x; } return x; }
                fn main() {
                    let v = int(read(open("/in", 0), 4));
                    while (v > 0) { v = f(v) - 1; }
                    write(1, str(g));
                }"#,
            )
            .unwrap(),
        );
        let pdg = Pdg::build(&program);
        for (id, node) in pdg.nodes().iter().enumerate() {
            assert_eq!(pdg.node_id(node), Some(id as NodeId), "{node:?}");
        }
        let main = program.main();
        let blocks = program.func(main).blocks.len() as u32;
        let past = |block, idx| Node::Ins {
            func: main,
            block: BlockId(block),
            idx,
        };
        assert_eq!(pdg.node_id(&past(0, 10_000)), None);
        assert_eq!(
            pdg.node_id(&Node::Term {
                func: main,
                block: BlockId(blocks)
            }),
            None
        );
        assert_eq!(pdg.node_id(&Node::CallCtl(FuncId(99))), None);
    }
}
