//! The static counter analysis (paper Algorithm 1 + the loop transformation
//! of Algorithm 3, expressed on basic blocks).
//!
//! For every block `b` of every function the analysis computes
//! `in_cnt[b]`/`out_cnt[b]`: the maximum number of syscalls along any path
//! from the function entry to the beginning/end of `b`, where
//!
//! * a syscall instruction contributes `+1`,
//! * a direct call to a non-recursive function `F` contributes `FCNT[F]`
//!   (the callee's own maximum — functions are processed in reverse
//!   topological call-graph order so `FCNT` is available),
//! * recursive and indirect calls contribute `0` (they run under a fresh
//!   counter frame at runtime, paper §5–6).
//!
//! Loops are made acyclic first: back edges and the exit edges of
//! *instrumented* loops are deleted and dummy edges from each latch to each
//! exit target are added (paper Algorithm 3). Our dummy edges carry weight
//! `+1` — a deliberate strengthening of the paper's scheme so that every
//! counter value after a loop is *strictly* larger than any value inside
//! it, which removes an alignment ambiguity at loop exits (see DESIGN.md).

use ldx_ir::cfg::topo_order;
use ldx_ir::{BlockId, CallGraph, FuncBody, FuncId, Instr, IrProgram, LoopForest, Terminator};
use std::collections::{HashMap, HashSet};

/// Per-function results of the counter analysis.
#[derive(Debug, Clone)]
pub struct FuncCounters {
    /// Counter value at the entry of each block.
    pub in_cnt: Vec<u64>,
    /// Counter value at the end of each block.
    pub out_cnt: Vec<u64>,
    /// The function's total increment (`FCNT`): the maximum `out_cnt` over
    /// return blocks, to which every return path is compensated.
    pub fcnt: u64,
    /// The function's natural loops.
    pub forest: LoopForest,
    /// Indices (into `forest.loops()`) of the loops that require
    /// instrumentation — those that can dynamically perform syscalls.
    pub instrumented_loops: Vec<usize>,
    /// Whether calling this function can dynamically reach a syscall, even
    /// through fresh frames (used to decide loop instrumentation in
    /// callers).
    pub may_syscall: bool,
}

/// Whole-program counter analysis.
#[derive(Debug, Clone)]
pub struct CounterAnalysis {
    /// Per-function counters, indexed by [`FuncId`].
    pub per_func: Vec<FuncCounters>,
    /// The call graph used to order the analysis and detect recursion.
    pub callgraph: CallGraph,
}

impl CounterAnalysis {
    /// Runs the analysis on an (uninstrumented) program.
    ///
    /// # Panics
    ///
    /// Panics if a function's CFG is irreducible after back-edge removal,
    /// which lowering from structured Lx can never produce.
    pub fn compute(program: &IrProgram) -> Self {
        let callgraph = CallGraph::compute(program);
        let n = program.functions.len();

        // `may_syscall` fixpoint: true if the function contains a syscall
        // or an indirect call (conservatively assumed to reach syscalls),
        // or calls a function for which it is true.
        let mut may_syscall = vec![false; n];
        loop {
            let mut changed = false;
            for (id, func) in program.iter_funcs() {
                if may_syscall[id.index()] {
                    continue;
                }
                let now = func.instrs().any(|(_, i)| match i {
                    Instr::Syscall { .. } | Instr::CallIndirect { .. } => true,
                    Instr::Call { func: callee, .. } => may_syscall[callee.index()],
                    _ => false,
                });
                if now {
                    may_syscall[id.index()] = true;
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }

        let mut fcnt: Vec<Option<u64>> = vec![None; n];
        let mut per_func: Vec<Option<FuncCounters>> = (0..n).map(|_| None).collect();

        for &fid in &callgraph.reverse_topological_functions() {
            let counters =
                analyze_function(program.func(fid), fid, &callgraph, &fcnt, &may_syscall);
            fcnt[fid.index()] = Some(counters.fcnt);
            per_func[fid.index()] = Some(counters);
        }

        CounterAnalysis {
            per_func: per_func
                .into_iter()
                .map(|c| c.expect("all analyzed"))
                .collect(),
            callgraph,
        }
    }

    /// The counters for function `f`.
    pub fn func(&self, f: FuncId) -> &FuncCounters {
        &self.per_func[f.index()]
    }

    /// `FCNT` of function `f`.
    pub fn fcnt(&self, f: FuncId) -> u64 {
        self.per_func[f.index()].fcnt
    }

    /// The program's maximum static counter value: `FCNT` of `main`
    /// (reported as "Max. Cnt." in paper Table 1).
    pub fn max_cnt(&self, program: &IrProgram) -> u64 {
        self.fcnt(program.main())
    }
}

/// The increment an instruction contributes to its frame's counter.
pub(crate) fn instr_increment(
    instr: &Instr,
    fid: FuncId,
    callgraph: &CallGraph,
    fcnt: &[Option<u64>],
) -> u64 {
    match instr {
        Instr::Syscall { .. } => 1,
        Instr::Call { func: callee, .. } => {
            if callgraph.is_recursive_call(fid, *callee) {
                0 // fresh frame at runtime
            } else {
                fcnt[callee.index()].expect("callee analyzed before caller (reverse topo order)")
            }
        }
        // Indirect calls run under a fresh frame; everything else does not
        // touch the counter.
        _ => 0,
    }
}

/// Whether an instruction means the enclosing loop must be instrumented:
/// anything that can dynamically reach a syscall.
fn is_dynamic_site(
    instr: &Instr,
    fid: FuncId,
    callgraph: &CallGraph,
    may_syscall: &[bool],
) -> bool {
    match instr {
        Instr::Syscall { .. } => true,
        Instr::CallIndirect { .. } => true,
        Instr::Call { func: callee, .. } => {
            may_syscall[callee.index()] || callgraph.is_recursive_call(fid, *callee)
        }
        _ => false,
    }
}

fn analyze_function(
    func: &FuncBody,
    fid: FuncId,
    callgraph: &CallGraph,
    fcnt: &[Option<u64>],
    may_syscall: &[bool],
) -> FuncCounters {
    let nblocks = func.blocks.len();
    let forest = LoopForest::compute(func);

    // Decide which loops need instrumentation: those whose body contains a
    // dynamic syscall site.
    let instrumented_loops: Vec<usize> = forest
        .loops()
        .iter()
        .enumerate()
        .filter(|(_, l)| {
            l.body.iter().any(|&b| {
                func.block(b)
                    .instrs
                    .iter()
                    .any(|i| is_dynamic_site(i, fid, callgraph, may_syscall))
            })
        })
        .map(|(i, _)| i)
        .collect();

    // Build the acyclic edge list: remove every back edge; for instrumented
    // loops also remove exit edges and add +1 dummy edges latch -> exit
    // target.
    let mut removed_exits: HashSet<(BlockId, BlockId)> = HashSet::new();
    let mut dummy_edges: Vec<(BlockId, BlockId)> = Vec::new();
    for &i in &instrumented_loops {
        let l = &forest.loops()[i];
        for &(u, v) in &l.exit_edges {
            removed_exits.insert((u, v));
        }
        let mut exit_targets: Vec<BlockId> = l.exit_edges.iter().map(|&(_, v)| v).collect();
        exit_targets.sort();
        exit_targets.dedup();
        for &t in &l.latches {
            for &n in &exit_targets {
                dummy_edges.push((t, n));
            }
        }
    }

    let mut acyclic_edges: Vec<(BlockId, BlockId)> = Vec::new();
    for b in func.block_ids() {
        for s in func.block(b).term.successors() {
            if forest.is_back_edge(b, s) || removed_exits.contains(&(b, s)) {
                continue;
            }
            acyclic_edges.push((b, s));
        }
    }

    let mut all_edges = acyclic_edges.clone();
    all_edges.extend(dummy_edges.iter().copied());
    let order =
        topo_order(nblocks, &all_edges).expect("CFG reducible: acyclic after back-edge removal");

    // Predecessor lists over the acyclic graph, with dummy flag.
    let mut preds: Vec<Vec<(BlockId, bool)>> = vec![Vec::new(); nblocks];
    for &(u, v) in &acyclic_edges {
        preds[v.index()].push((u, false));
    }
    for &(u, v) in &dummy_edges {
        preds[v.index()].push((u, true));
    }

    let mut in_cnt = vec![0u64; nblocks];
    let mut out_cnt = vec![0u64; nblocks];
    for &b in &order {
        let input = preds[b.index()]
            .iter()
            .map(|&(p, dummy)| out_cnt[p.index()] + u64::from(dummy))
            .max()
            .unwrap_or(0);
        in_cnt[b.index()] = input;
        let delta: u64 = func
            .block(b)
            .instrs
            .iter()
            .map(|i| instr_increment(i, fid, callgraph, fcnt))
            .sum();
        out_cnt[b.index()] = input + delta;
    }

    // FCNT: the maximum over return blocks (every return path will be
    // compensated up to it by the pass).
    let fcnt_value = func
        .block_ids()
        .filter(|&b| matches!(func.block(b).term, Terminator::Return(_)))
        .map(|b| out_cnt[b.index()])
        .max()
        .unwrap_or(0);

    FuncCounters {
        in_cnt,
        out_cnt,
        fcnt: fcnt_value,
        forest,
        instrumented_loops,
        may_syscall: may_syscall[fid.index()],
    }
}

/// Classification of one CFG edge, consumed by the rewriting pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum EdgeKind {
    /// A plain edge needing `cnt += delta` compensation (delta > 0), plus
    /// possibly entering instrumented loops (outermost first).
    Plain {
        /// Compensation amount (0 = none needed).
        delta: u64,
        /// Instrumented loops entered by this edge, outermost first.
        enters: Vec<usize>,
    },
    /// A back edge of an instrumented loop.
    Backedge {
        /// Forest index of the loop.
        lp: usize,
        /// Counter reset amount (`out_cnt[latch] - in_cnt[header]`).
        sub: u64,
    },
    /// An exit edge of instrumented loops (innermost first), raising the
    /// counter by `add`.
    Exit {
        /// Instrumented loops exited, innermost first.
        exits: Vec<usize>,
        /// Counter raise (`in_cnt[target] - out_cnt[source]`).
        add: u64,
    },
}

/// Classifies every real edge of `func` given its analysis results.
pub(crate) fn classify_edges(
    func: &FuncBody,
    counters: &FuncCounters,
) -> HashMap<(BlockId, BlockId), EdgeKind> {
    let forest = &counters.forest;
    let mut result = HashMap::new();
    for b in func.block_ids() {
        for s in func.block(b).term.successors() {
            let kind = if forest.is_back_edge(b, s) {
                // Back edge: instrumented loops get the barrier + reset;
                // uninstrumented loops have nothing to reset (no increments
                // inside), which the analysis guarantees.
                match counters.instrumented_loops.iter().find(|&&i| {
                    forest.loops()[i].header == s && forest.loops()[i].latches.contains(&b)
                }) {
                    Some(&i) => EdgeKind::Backedge {
                        lp: i,
                        sub: counters.out_cnt[b.index()] - counters.in_cnt[s.index()],
                    },
                    None => {
                        debug_assert_eq!(
                            counters.out_cnt[b.index()],
                            counters.in_cnt[s.index()],
                            "uninstrumented loop must not change the counter"
                        );
                        EdgeKind::Plain {
                            delta: 0,
                            enters: vec![],
                        }
                    }
                }
            } else {
                // Which instrumented loops does this edge exit / enter?
                let mut exits: Vec<usize> = counters
                    .instrumented_loops
                    .iter()
                    .copied()
                    .filter(|&i| {
                        let l = &forest.loops()[i];
                        l.contains(b) && !l.contains(s)
                    })
                    .collect();
                // Innermost (smallest body) first.
                exits.sort_by_key(|&i| forest.loops()[i].body.len());

                let mut enters: Vec<usize> = counters
                    .instrumented_loops
                    .iter()
                    .copied()
                    .filter(|&i| {
                        let l = &forest.loops()[i];
                        !l.contains(b) && l.contains(s)
                    })
                    .collect();
                // Outermost (largest body) first.
                enters.sort_by_key(|&i| std::cmp::Reverse(forest.loops()[i].body.len()));

                let delta = counters.in_cnt[s.index()] - counters.out_cnt[b.index()];
                if exits.is_empty() {
                    EdgeKind::Plain { delta, enters }
                } else {
                    debug_assert!(
                        enters.is_empty(),
                        "an edge cannot exit one loop and enter another in lowered Lx"
                    );
                    EdgeKind::Exit { exits, add: delta }
                }
            };
            result.insert((b, s), kind);
        }
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldx_ir::lower;
    use ldx_lang::compile;

    fn analyze(src: &str) -> (IrProgram, CounterAnalysis) {
        let p = lower(&compile(src).unwrap());
        let a = CounterAnalysis::compute(&p);
        (p, a)
    }

    #[test]
    fn straight_line_counts_syscalls() {
        let (p, a) = analyze(
            r#"fn main() {
                let fd = open("f", 0);
                let d = read(fd, 4);
                close(fd);
            }"#,
        );
        assert_eq!(a.fcnt(p.main()), 3);
        assert_eq!(a.max_cnt(&p), 3);
    }

    #[test]
    fn branch_takes_maximum() {
        // True arm: 2 syscalls; false arm: 1 syscall. Join must see max=2
        // (plus the unconditional open/close around it).
        let (p, a) = analyze(
            r#"fn main() {
                let fd = open("f", 0);
                if (len(read(fd, 4)) > 2) {
                    write(1, "a");
                    write(1, "b");
                } else {
                    write(1, "c");
                }
                close(fd);
            }"#,
        );
        // open + read + max(2, 1) + close = 5.
        assert_eq!(a.fcnt(p.main()), 5);
    }

    #[test]
    fn callee_fcnt_propagates_to_caller() {
        // Mirrors the paper's Fig. 2: SRaise has 2 syscalls (open+read);
        // MRaise = SRaise + max(1, 0 compensated) = 3.
        let (p, a) = analyze(
            r#"
            fn sraise(salary) {
                let fd = open("contract", 0);
                let rate = int(read(fd, 4));
                return salary * rate / 100;
            }
            fn mraise(salary) {
                let r = sraise(salary);
                if (salary > 1000) {
                    write(2, "senior");
                }
                return r + 1;
            }
            fn main() {
                let fd = open("employee", 0);
                let title = read(fd, 8);
                let raise = 0;
                if (title == "STAFF") {
                    raise = sraise(100);
                } else {
                    raise = mraise(100);
                    let dept = read(fd, 8);
                }
                send(connect("hr"), "name");
                send(connect("hr"), str(raise));
            }
            "#,
        );
        let sraise = p.func_id("sraise").unwrap();
        let mraise = p.func_id("mraise").unwrap();
        assert_eq!(a.fcnt(sraise), 2);
        assert_eq!(a.fcnt(mraise), 3);
        // main: open + read + max(sraise=2, mraise+read=4) + 4 sinks
        // (2 connects + 2 sends) = 10.
        assert_eq!(a.fcnt(p.main()), 10);
    }

    #[test]
    fn recursive_calls_contribute_zero() {
        let (p, a) = analyze(
            r#"
            fn walk(n) {
                if (n <= 0) { return 0; }
                write(1, str(n));
                return walk(n - 1);
            }
            fn main() { walk(3); }
            "#,
        );
        let walk = p.func_id("walk").unwrap();
        // One syscall in walk itself; the recursive call adds 0.
        assert_eq!(a.fcnt(walk), 1);
        assert_eq!(a.fcnt(p.main()), 1);
    }

    #[test]
    fn indirect_calls_contribute_zero_but_mark_may_syscall() {
        let (p, a) = analyze(
            r#"
            fn h(x) { write(1, str(x)); return 0; }
            fn main() { let f = &h; f(1); }
            "#,
        );
        assert_eq!(a.fcnt(p.main()), 0);
        assert!(a.func(p.main()).may_syscall);
    }

    #[test]
    fn loop_with_syscall_is_instrumented() {
        let (p, a) = analyze(
            r#"fn main() {
                let i = 0;
                while (i < 5) {
                    write(1, str(i));
                    i = i + 1;
                }
                close(1);
            }"#,
        );
        let fc = a.func(p.main());
        assert_eq!(fc.forest.loops().len(), 1);
        assert_eq!(fc.instrumented_loops, vec![0]);
        // Beyond the loop the counter must exceed every in-loop value:
        // in-loop max is 1 (one write), dummy edge forces exit >= 2, then
        // close adds 1 => fcnt = 3.
        assert_eq!(fc.fcnt, 3);
    }

    #[test]
    fn syscall_free_loop_is_not_instrumented() {
        let (p, a) = analyze(
            r#"fn main() {
                let s = 0;
                for (let i = 0; i < 100; i = i + 1) { s = s + i; }
                write(1, str(s));
            }"#,
        );
        let fc = a.func(p.main());
        assert_eq!(fc.forest.loops().len(), 1);
        assert!(fc.instrumented_loops.is_empty());
        assert_eq!(fc.fcnt, 1);
    }

    #[test]
    fn loop_calling_syscall_function_is_instrumented() {
        let (p, a) = analyze(
            r#"
            fn emit(x) { write(1, str(x)); return 0; }
            fn main() {
                for (let i = 0; i < 3; i = i + 1) { emit(i); }
            }"#,
        );
        let fc = a.func(p.main());
        assert_eq!(fc.instrumented_loops.len(), 1);
    }

    #[test]
    fn loop_with_indirect_call_is_instrumented() {
        let (p, a) = analyze(
            r#"
            fn emit(x) { write(1, str(x)); return 0; }
            fn main() {
                let f = &emit;
                for (let i = 0; i < 3; i = i + 1) { f(i); }
            }"#,
        );
        let fc = a.func(p.main());
        assert_eq!(fc.instrumented_loops.len(), 1);
    }

    #[test]
    fn nested_loops_counter_matches_paper_figure4() {
        // The paper's Fig. 4: read sizes, nested loops each with one
        // syscall in the inner body, a write between loops, send at end.
        let (p, a) = analyze(
            r#"fn main() {
                let fd = open("in", 0);
                let nm = read(fd, 8);
                let n = int(nm);
                let m = n;
                let total = 0;
                for (let i = 0; i < n; i = i + 1) {
                    for (let j = 0; j < m; j = j + 1) {
                        let d = read(fd, 4);
                        total = total + int(d);
                    }
                    write(1, str(total));
                }
                send(connect("out"), str(total));
            }"#,
        );
        let fc = a.func(p.main());
        assert_eq!(fc.instrumented_loops.len(), 2);
        // open(1) read(2); inner loop: read -> 3; exit inner (>=4), write
        // -> 5 inside outer; exit outer >= 6; connect 7, send 8.
        assert_eq!(fc.fcnt, 8);
    }

    #[test]
    fn mutual_recursion_fcnt_is_local_only() {
        let (p, a) = analyze(
            r#"
            fn ping(n) { write(1, "p"); if (n > 0) { pong(n - 1); } return 0; }
            fn pong(n) { write(1, "o"); if (n > 0) { ping(n - 1); } return 0; }
            fn main() { ping(4); }
            "#,
        );
        let ping = p.func_id("ping").unwrap();
        let pong = p.func_id("pong").unwrap();
        assert_eq!(a.fcnt(ping), 1);
        assert_eq!(a.fcnt(pong), 1);
        // main's call to ping is NOT recursive (different SCC): adds 1.
        assert_eq!(a.fcnt(p.main()), 1);
    }

    #[test]
    fn classify_edges_finds_backedge_and_exit() {
        let (p, a) = analyze(
            r#"fn main() {
                let i = 0;
                while (i < 5) {
                    write(1, str(i));
                    i = i + 1;
                }
                close(1);
            }"#,
        );
        let f = p.func(p.main());
        let fc = a.func(p.main());
        let edges = classify_edges(f, fc);
        let backedges: Vec<_> = edges
            .values()
            .filter(|k| matches!(k, EdgeKind::Backedge { .. }))
            .collect();
        assert_eq!(backedges.len(), 1);
        assert!(matches!(backedges[0], EdgeKind::Backedge { sub: 1, .. }));
        let exits: Vec<_> = edges
            .values()
            .filter_map(|k| match k {
                EdgeKind::Exit { add, .. } => Some(*add),
                _ => None,
            })
            .collect();
        assert_eq!(exits.len(), 1);
        assert_eq!(exits[0], 2, "exit raises past in-loop max (+1 strict)");
        let enters: Vec<_> = edges
            .values()
            .filter(|k| matches!(k, EdgeKind::Plain { enters, .. } if !enters.is_empty()))
            .collect();
        assert_eq!(enters.len(), 1);
    }

    #[test]
    fn compensated_branch_edges_have_positive_delta() {
        let (p, a) = analyze(
            r#"fn main() {
                let x = getpid();
                if (x > 0) {
                    write(1, "a");
                    write(1, "b");
                }
                close(1);
            }"#,
        );
        let f = p.func(p.main());
        let fc = a.func(p.main());
        let edges = classify_edges(f, fc);
        // The empty else edge must be compensated by +2.
        let max_delta = edges
            .values()
            .filter_map(|k| match k {
                EdgeKind::Plain { delta, .. } => Some(*delta),
                _ => None,
            })
            .max()
            .unwrap();
        assert_eq!(max_delta, 2);
    }
}
