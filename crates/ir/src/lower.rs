//! Lowering from the resolved Lx AST to the CFG IR.
//!
//! Lowering is syntax-directed and produces a *reducible* CFG: every loop in
//! the output is a natural loop whose header is the condition block, which
//! is what the paper's Algorithm 3 assumes. Short-circuiting `&&`/`||`
//! become explicit diamonds, `for` loops desugar to `while` loops with the
//! step in a dedicated latch block (so `continue` re-runs the step), and
//! unreachable blocks (e.g. after `return`) are pruned so that later CFG
//! analyses see only real control flow.

use crate::instr::{BasicBlock, Const, Instr, Terminator};
use crate::program::{BlockId, FuncBody, FuncId, GlobalId, IrProgram, LocalId, SiteId};
use ldx_lang::{
    builtin, BinaryOp, Block, BuiltinKind, Expr, ExprKind, LValue, ResolvedProgram, Stmt, StmtKind,
    UnaryOp,
};
use std::collections::HashMap;

/// Lowers a resolved program to IR.
///
/// # Panics
///
/// Panics only on internal invariant violations; every user-visible error is
/// rejected earlier by [`ldx_lang::resolve`].
pub fn lower(resolved: &ResolvedProgram) -> IrProgram {
    let program = resolved.program();

    let globals: Vec<(String, Const)> = program
        .globals()
        .map(|(name, init)| (name.to_string(), const_eval(init)))
        .collect();
    let global_ids: HashMap<&str, GlobalId> = globals
        .iter()
        .enumerate()
        .map(|(i, (n, _))| (n.as_str(), GlobalId(i as u32)))
        .collect();

    let func_ids: HashMap<&str, FuncId> = program
        .functions()
        .enumerate()
        .map(|(i, f)| (f.name.as_str(), FuncId(i as u32)))
        .collect();

    let functions = program
        .functions()
        .map(|f| {
            let mut ctx = Lowerer::new(f.name.clone(), &f.params, &func_ids, &global_ids);
            ctx.lower_body(&f.body);
            ctx.finish()
        })
        .collect();

    IrProgram::new(functions, globals)
}

fn const_eval(e: &Expr) -> Const {
    match &e.kind {
        ExprKind::Int(v) => Const::Int(*v),
        ExprKind::Str(s) => Const::Str(s.clone()),
        ExprKind::Unary {
            op: UnaryOp::Neg,
            operand,
        } => match const_eval(operand) {
            Const::Int(v) => Const::Int(-v),
            other => other,
        },
        ExprKind::Unary {
            op: UnaryOp::Not,
            operand,
        } => match const_eval(operand) {
            Const::Int(v) => Const::Int(i64::from(v == 0)),
            other => other,
        },
        ExprKind::Array(elems) => Const::Array(elems.iter().map(const_eval).collect()),
        other => unreachable!("non-constant global initializer survived resolve: {other:?}"),
    }
}

/// Break/continue targets for the innermost loop.
struct LoopCtx {
    continue_target: BlockId,
    break_target: BlockId,
}

struct Lowerer<'a> {
    func: FuncBody,
    current: BlockId,
    scopes: Vec<HashMap<String, LocalId>>,
    loops: Vec<LoopCtx>,
    func_ids: &'a HashMap<&'a str, FuncId>,
    global_ids: &'a HashMap<&'a str, GlobalId>,
}

impl<'a> Lowerer<'a> {
    fn new(
        name: String,
        params: &[String],
        func_ids: &'a HashMap<&'a str, FuncId>,
        global_ids: &'a HashMap<&'a str, GlobalId>,
    ) -> Self {
        let mut func = FuncBody {
            name,
            param_count: params.len(),
            local_count: 0,
            blocks: vec![BasicBlock::new(Terminator::Return(None))],
            entry: BlockId(0),
            site_count: 0,
            loop_count: 0,
        };
        let mut top = HashMap::new();
        for p in params {
            let id = func.alloc_local();
            top.insert(p.clone(), id);
        }
        Lowerer {
            func,
            current: BlockId(0),
            scopes: vec![top],
            loops: Vec::new(),
            func_ids,
            global_ids,
        }
    }

    fn finish(mut self) -> FuncBody {
        prune_unreachable(&mut self.func);
        self.func
    }

    fn fresh_site(&mut self) -> SiteId {
        let id = SiteId(self.func.site_count);
        self.func.site_count += 1;
        id
    }

    fn temp(&mut self) -> LocalId {
        self.func.alloc_local()
    }

    fn emit(&mut self, instr: Instr) {
        self.func.block_mut(self.current).instrs.push(instr);
    }

    fn new_block(&mut self) -> BlockId {
        self.func
            .push_block(BasicBlock::new(Terminator::Return(None)))
    }

    fn terminate(&mut self, term: Terminator) {
        self.func.block_mut(self.current).term = term;
    }

    /// Terminates the current block and switches to `next`.
    fn jump_to(&mut self, next: BlockId) {
        self.terminate(Terminator::Jump(next));
        self.current = next;
    }

    fn lookup_var(&self, name: &str) -> Option<LocalId> {
        self.scopes.iter().rev().find_map(|s| s.get(name)).copied()
    }

    fn lower_body(&mut self, body: &Block) {
        self.lower_block(body);
        // The trailing block keeps its default `Return(None)` terminator,
        // giving every function an implicit `return;` at the end.
    }

    fn lower_block(&mut self, block: &Block) {
        self.scopes.push(HashMap::new());
        for stmt in &block.stmts {
            self.lower_stmt(stmt);
        }
        self.scopes.pop();
    }

    fn lower_stmt(&mut self, stmt: &Stmt) {
        match &stmt.kind {
            StmtKind::Let { name, init } => {
                let fresh_from = self.func.local_count;
                let value = self.lower_expr(init);
                let slot = self.func.alloc_local();
                self.store_local(slot, value, fresh_from);
                self.scopes
                    .last_mut()
                    .expect("scope stack never empty")
                    .insert(name.clone(), slot);
            }
            StmtKind::Assign { target, value } => {
                let fresh_from = self.func.local_count;
                let value = self.lower_expr(value);
                match target {
                    LValue::Var(name) => {
                        if let Some(slot) = self.lookup_var(name) {
                            self.store_local(slot, value, fresh_from);
                        } else {
                            let global = self.global_ids[name.as_str()];
                            self.emit(Instr::StoreGlobal { global, src: value });
                        }
                    }
                    LValue::Index { name, index } => {
                        let index = self.lower_expr(index);
                        if let Some(slot) = self.lookup_var(name) {
                            self.emit(Instr::StoreIndexLocal {
                                local: slot,
                                index,
                                src: value,
                            });
                        } else {
                            let global = self.global_ids[name.as_str()];
                            self.emit(Instr::StoreIndexGlobal {
                                global,
                                index,
                                src: value,
                            });
                        }
                    }
                }
            }
            StmtKind::If {
                cond,
                then_block,
                else_block,
            } => {
                let cond = self.lower_expr(cond);
                let then_bb = self.new_block();
                let else_bb = self.new_block();
                let join_bb = self.new_block();
                self.terminate(Terminator::Branch {
                    cond,
                    then_bb,
                    else_bb,
                });

                self.current = then_bb;
                self.lower_block(then_block);
                self.terminate(Terminator::Jump(join_bb));

                self.current = else_bb;
                self.lower_block(else_block);
                self.terminate(Terminator::Jump(join_bb));

                self.current = join_bb;
            }
            StmtKind::While { cond, body } => {
                let header = self.new_block();
                let body_bb = self.new_block();
                let after = self.new_block();

                self.jump_to(header);
                let cond = self.lower_expr(cond);
                self.terminate(Terminator::Branch {
                    cond,
                    then_bb: body_bb,
                    else_bb: after,
                });

                self.current = body_bb;
                self.loops.push(LoopCtx {
                    continue_target: header,
                    break_target: after,
                });
                self.lower_block(body);
                self.loops.pop();
                self.terminate(Terminator::Jump(header));

                self.current = after;
            }
            StmtKind::For {
                init,
                cond,
                step,
                body,
            } => {
                self.scopes.push(HashMap::new());
                if let Some(init) = init {
                    self.lower_stmt(init);
                }
                let header = self.new_block();
                let body_bb = self.new_block();
                let step_bb = self.new_block();
                let after = self.new_block();

                self.jump_to(header);
                let cond = match cond {
                    Some(c) => self.lower_expr(c),
                    None => {
                        let t = self.temp();
                        self.emit(Instr::Const {
                            dst: t,
                            value: Const::Int(1),
                        });
                        t
                    }
                };
                self.terminate(Terminator::Branch {
                    cond,
                    then_bb: body_bb,
                    else_bb: after,
                });

                self.current = body_bb;
                self.loops.push(LoopCtx {
                    continue_target: step_bb,
                    break_target: after,
                });
                self.lower_block(body);
                self.loops.pop();
                self.terminate(Terminator::Jump(step_bb));

                self.current = step_bb;
                if let Some(step) = step {
                    self.lower_stmt(step);
                }
                self.terminate(Terminator::Jump(header));

                self.scopes.pop();
                self.current = after;
            }
            StmtKind::Return(value) => {
                let slot = value.as_ref().map(|e| self.lower_expr(e));
                self.terminate(Terminator::Return(slot));
                // Anything after the return is unreachable; give it a fresh
                // block that `prune_unreachable` will delete.
                self.current = self.new_block();
            }
            StmtKind::Break => {
                let target = self
                    .loops
                    .last()
                    .expect("resolver rejects break outside loops")
                    .break_target;
                self.terminate(Terminator::Jump(target));
                self.current = self.new_block();
            }
            StmtKind::Continue => {
                let target = self
                    .loops
                    .last()
                    .expect("resolver rejects continue outside loops")
                    .continue_target;
                self.terminate(Terminator::Jump(target));
                self.current = self.new_block();
            }
            StmtKind::Expr(e) => {
                self.lower_expr(e);
            }
        }
    }

    /// Stores `value`, just lowered, into the variable `slot`. When the
    /// value is a temporary (a local numbered from `fresh_from` on) that
    /// the current block's last instruction computes without side
    /// effects, that instruction writes `slot` itself and no `Copy` is
    /// emitted: its operands are read before its result is written, so
    /// `x = x + 1` and `x = set(x, i, v)` stay correct. Anything else
    /// keeps its temporary and a `Copy`: a bare variable, a `&&`/`||`
    /// diamond (its result is written before the right side is read),
    /// and calls and syscalls.
    fn store_local(&mut self, slot: LocalId, value: LocalId, fresh_from: usize) {
        if value.index() >= fresh_from {
            if let Some(
                Instr::Const { dst, .. }
                | Instr::Unary { dst, .. }
                | Instr::Binary { dst, .. }
                | Instr::Index { dst, .. }
                | Instr::MakeArray { dst, .. }
                | Instr::LoadGlobal { dst, .. }
                | Instr::FuncRef { dst, .. }
                | Instr::CallLib { dst, .. },
            ) = self.func.block_mut(self.current).instrs.last_mut()
            {
                if *dst == value {
                    *dst = slot;
                    return;
                }
            }
        }
        self.emit(Instr::Copy {
            dst: slot,
            src: value,
        });
    }

    fn lower_expr(&mut self, expr: &Expr) -> LocalId {
        match &expr.kind {
            ExprKind::Int(v) => {
                let dst = self.temp();
                self.emit(Instr::Const {
                    dst,
                    value: Const::Int(*v),
                });
                dst
            }
            ExprKind::Str(s) => {
                let dst = self.temp();
                self.emit(Instr::Const {
                    dst,
                    value: Const::Str(s.clone()),
                });
                dst
            }
            ExprKind::Var(name) => {
                if let Some(slot) = self.lookup_var(name) {
                    slot
                } else {
                    let dst = self.temp();
                    let global = self.global_ids[name.as_str()];
                    self.emit(Instr::LoadGlobal { dst, global });
                    dst
                }
            }
            ExprKind::FuncRef(name) => {
                let dst = self.temp();
                let func = self.func_ids[name.as_str()];
                self.emit(Instr::FuncRef { dst, func });
                dst
            }
            ExprKind::Array(elems) => {
                let slots: Vec<LocalId> = elems.iter().map(|e| self.lower_expr(e)).collect();
                let dst = self.temp();
                self.emit(Instr::MakeArray { dst, elems: slots });
                dst
            }
            ExprKind::Unary { op, operand } => {
                let operand = self.lower_expr(operand);
                let dst = self.temp();
                self.emit(Instr::Unary {
                    dst,
                    op: *op,
                    operand,
                });
                dst
            }
            ExprKind::Binary { op, lhs, rhs } if op.short_circuits() => {
                self.lower_short_circuit(*op, lhs, rhs)
            }
            ExprKind::Binary { op, lhs, rhs } => {
                let lhs = self.lower_expr(lhs);
                let rhs = self.lower_expr(rhs);
                let dst = self.temp();
                self.emit(Instr::Binary {
                    dst,
                    op: *op,
                    lhs,
                    rhs,
                });
                dst
            }
            ExprKind::Index { base, index } => {
                let base = self.lower_expr(base);
                let index = self.lower_expr(index);
                let dst = self.temp();
                self.emit(Instr::Index { dst, base, index });
                dst
            }
            ExprKind::Call { callee, args } => {
                let arg_slots: Vec<LocalId> = args.iter().map(|a| self.lower_expr(a)).collect();
                let dst = self.temp();
                if let Some(&func) = self.func_ids.get(callee.as_str()) {
                    let site = self.fresh_site();
                    self.emit(Instr::Call {
                        dst,
                        func,
                        args: arg_slots,
                        site,
                        fresh_frame: false,
                    });
                } else {
                    match builtin(callee).expect("resolver validated builtin").kind {
                        BuiltinKind::Syscall(sys) => {
                            let site = self.fresh_site();
                            self.emit(Instr::Syscall {
                                dst,
                                sys,
                                args: arg_slots,
                                site,
                            });
                        }
                        BuiltinKind::Lib(lib) => {
                            self.emit(Instr::CallLib {
                                dst,
                                lib,
                                args: arg_slots,
                            });
                        }
                    }
                }
                dst
            }
            ExprKind::CallIndirect { callee, args } => {
                let callee = self.lower_expr(callee);
                let arg_slots: Vec<LocalId> = args.iter().map(|a| self.lower_expr(a)).collect();
                let dst = self.temp();
                let site = self.fresh_site();
                self.emit(Instr::CallIndirect {
                    dst,
                    callee,
                    args: arg_slots,
                    site,
                });
                dst
            }
        }
    }

    /// Lowers `a && b` / `a || b` into a diamond producing 0 or 1.
    fn lower_short_circuit(&mut self, op: BinaryOp, lhs: &Expr, rhs: &Expr) -> LocalId {
        let dst = self.temp();
        let lhs_val = self.lower_expr(lhs);

        let rhs_bb = self.new_block();
        let short_bb = self.new_block();
        let join_bb = self.new_block();

        match op {
            BinaryOp::And => self.terminate(Terminator::Branch {
                cond: lhs_val,
                then_bb: rhs_bb,
                else_bb: short_bb,
            }),
            BinaryOp::Or => self.terminate(Terminator::Branch {
                cond: lhs_val,
                then_bb: short_bb,
                else_bb: rhs_bb,
            }),
            _ => unreachable!("only && and || short-circuit"),
        }

        // Short-circuit arm: the result is decided by `lhs` alone.
        self.current = short_bb;
        self.emit(Instr::Const {
            dst,
            value: Const::Int(i64::from(op == BinaryOp::Or)),
        });
        self.terminate(Terminator::Jump(join_bb));

        // Full-evaluation arm: result is the truthiness of `rhs`.
        self.current = rhs_bb;
        let rhs_val = self.lower_expr(rhs);
        let zero = self.temp();
        self.emit(Instr::Const {
            dst: zero,
            value: Const::Int(0),
        });
        self.emit(Instr::Binary {
            dst,
            op: BinaryOp::Ne,
            lhs: rhs_val,
            rhs: zero,
        });
        self.terminate(Terminator::Jump(join_bb));

        self.current = join_bb;
        dst
    }
}

/// Removes blocks unreachable from the entry and compacts block ids.
fn prune_unreachable(func: &mut FuncBody) {
    let n = func.blocks.len();
    let mut reachable = vec![false; n];
    let mut stack = vec![func.entry];
    while let Some(b) = stack.pop() {
        if reachable[b.index()] {
            continue;
        }
        reachable[b.index()] = true;
        for s in func.block(b).term.successors() {
            stack.push(s);
        }
    }
    if reachable.iter().all(|&r| r) {
        return;
    }
    let mut remap = vec![BlockId(u32::MAX); n];
    let mut kept = Vec::with_capacity(n);
    for (i, block) in func.blocks.drain(..).enumerate() {
        if reachable[i] {
            remap[i] = BlockId(kept.len() as u32);
            kept.push(block);
        }
    }
    for block in &mut kept {
        match &mut block.term {
            Terminator::Jump(b) => *b = remap[b.index()],
            Terminator::Branch {
                then_bb, else_bb, ..
            } => {
                *then_bb = remap[then_bb.index()];
                *else_bb = remap[else_bb.index()];
            }
            Terminator::Return(_) => {}
        }
    }
    func.entry = remap[func.entry.index()];
    func.blocks = kept;
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldx_lang::compile;

    fn lower_src(src: &str) -> IrProgram {
        lower(&compile(src).unwrap())
    }

    fn main_body(p: &IrProgram) -> &FuncBody {
        p.func(p.main())
    }

    #[test]
    fn lowers_straight_line_code() {
        let p = lower_src("fn main() { let x = 1 + 2; }");
        let f = main_body(&p);
        assert_eq!(f.blocks.len(), 1);
        assert!(matches!(f.block(f.entry).term, Terminator::Return(None)));
        assert!(f
            .block(f.entry)
            .instrs
            .iter()
            .any(|i| matches!(i, Instr::Binary { .. })));
    }

    /// Every instruction of `main` that writes the variable initialised
    /// by `let x = 42;`.
    fn writes_of_x(p: &IrProgram) -> Vec<Instr> {
        let f = main_body(p);
        let x = f
            .instrs()
            .find_map(|(_, i)| match i {
                Instr::Const {
                    dst,
                    value: Const::Int(42),
                } => Some(*dst),
                _ => None,
            })
            .expect("`let x = 42;`");
        f.instrs()
            .filter(|(_, i)| i.defined_local().map(|(l, _)| l) == Some(x))
            .map(|(_, i)| i.clone())
            .collect()
    }

    #[test]
    fn set_assignment_is_one_lib_call_writing_its_variable() {
        let p = lower_src("fn main() { let x = 42; x = [1, 2]; let i = 0; x = set(x, i, 7); }");
        let writes = writes_of_x(&p);
        assert_eq!(writes.len(), 3, "{writes:?}");
        let Instr::CallLib { dst, args, .. } = &writes[2] else {
            panic!("{writes:?}")
        };
        assert_eq!(args[0], *dst);
        assert!(!main_body(&p)
            .instrs()
            .any(|(_, i)| matches!(i, Instr::Copy { .. })));
    }

    #[test]
    fn inner_let_reads_the_outer_variable() {
        // Lx forbids shadowing a local, so the outer `x` is a global.
        let p =
            lower_src("global x = 42; fn main() { if (1) { let x = x + 1; write(1, str(x)); } }");
        let f = main_body(&p);
        let loaded = f
            .instrs()
            .find_map(|(_, i)| match i {
                Instr::LoadGlobal {
                    dst,
                    global: GlobalId(0),
                } => Some(*dst),
                _ => None,
            })
            .expect("the outer x is loaded");
        let (inner, lhs) = f
            .instrs()
            .find_map(|(_, i)| match i {
                Instr::Binary { dst, lhs, .. } => Some((*dst, *lhs)),
                _ => None,
            })
            .expect("x + 1");
        assert_eq!(lhs, loaded);
        assert_ne!(inner, loaded);
        assert!(f.instrs().any(|(_, i)| matches!(
            i,
            Instr::CallLib { args, .. } if args == &[inner]
        )));
    }

    #[test]
    fn a_bare_variable_is_copied() {
        let p = lower_src("fn main() { let x = 42; x = x + 1; let y = x; }");
        let writes = writes_of_x(&p);
        assert_eq!(writes.len(), 2, "{writes:?}");
        let Instr::Binary { dst: x, .. } = writes[1] else {
            panic!("{writes:?}")
        };
        let copies: Vec<_> = main_body(&p)
            .instrs()
            .filter(|(_, i)| matches!(i, Instr::Copy { src, .. } if *src == x))
            .collect();
        assert_eq!(copies.len(), 1);
    }

    #[test]
    fn short_circuit_assignment_keeps_its_temporary() {
        let p =
            lower_src("fn f(v) { return v; } fn main() { let a = 1; let x = 42; x = a && f(x); }");
        let writes = writes_of_x(&p);
        assert_eq!(writes.len(), 2, "{writes:?}");
        assert!(matches!(writes[1], Instr::Copy { .. }), "{writes:?}");
    }

    #[test]
    fn calls_and_syscalls_keep_their_temporary() {
        for src in [
            "fn g() { return 1; } fn main() { let x = 42; x = g(); }",
            "fn g() { return 1; } fn main() { let x = 42; let f = &g; x = f(); }",
            "fn main() { let x = 42; x = getpid(); }",
        ] {
            let writes = writes_of_x(&lower_src(src));
            assert_eq!(writes.len(), 2, "{src}: {writes:?}");
            assert!(matches!(writes[1], Instr::Copy { .. }), "{src}: {writes:?}");
        }
    }

    #[test]
    fn if_produces_diamond() {
        let p = lower_src("fn main() { let x = 1; if (x) { x = 2; } else { x = 3; } x = 4; }");
        let f = main_body(&p);
        // entry (branch), then, else, join.
        assert_eq!(f.blocks.len(), 4);
        let succs = f.block(f.entry).term.successors();
        assert_eq!(succs.len(), 2);
        // Both arms jump to the same join block.
        let j0 = f.block(succs[0]).term.successors();
        let j1 = f.block(succs[1]).term.successors();
        assert_eq!(j0, j1);
    }

    #[test]
    fn while_produces_natural_loop() {
        let p = lower_src("fn main() { let i = 0; while (i < 3) { i = i + 1; } }");
        let f = main_body(&p);
        // entry, header, body, after.
        assert_eq!(f.blocks.len(), 4);
        let header = match f.block(f.entry).term {
            Terminator::Jump(h) => h,
            _ => panic!("entry should jump to header"),
        };
        let Terminator::Branch {
            then_bb, else_bb, ..
        } = f.block(header).term
        else {
            panic!("header should branch")
        };
        // The body must jump back to the header (the backedge).
        assert_eq!(f.block(then_bb).term.successors(), vec![header]);
        // The exit block terminates the function.
        assert!(matches!(f.block(else_bb).term, Terminator::Return(None)));
    }

    #[test]
    fn for_desugars_with_step_latch() {
        let p = lower_src("fn main() { for (let i = 0; i < 3; i = i + 1) { write(1, str(i)); } }");
        let f = main_body(&p);
        // entry, header, body, step, after.
        assert_eq!(f.blocks.len(), 5);
        // Find the block that jumps back: it must be the step block, and it
        // must contain the increment.
        let header = match f.block(f.entry).term {
            Terminator::Jump(h) => h,
            _ => panic!(),
        };
        let latch = f
            .block_ids()
            .find(|&b| b != f.entry && f.block(b).term.successors() == vec![header])
            .expect("a latch exists");
        assert!(f.block(latch).instrs.iter().any(|i| matches!(
            i,
            Instr::Binary {
                op: BinaryOp::Add,
                ..
            }
        )));
    }

    #[test]
    fn break_jumps_past_loop_and_prunes_dead_code() {
        let p = lower_src("fn main() { while (1) { break; } }");
        let f = main_body(&p);
        for b in f.block_ids() {
            // No block is unreachable.
            let reached = f.entry == b
                || f.block_ids()
                    .any(|p| f.block(p).term.successors().contains(&b));
            assert!(reached, "block {b} unreachable");
        }
    }

    #[test]
    fn continue_in_for_targets_step_block() {
        let p = lower_src(
            r#"fn main() {
                for (let i = 0; i < 4; i = i + 1) {
                    if (i == 2) { continue; }
                    write(1, str(i));
                }
            }"#,
        );
        let f = main_body(&p);
        let header = match f.block(f.entry).term {
            Terminator::Jump(h) => h,
            _ => panic!(),
        };
        // Exactly one block jumps to the header: the step latch. (The
        // `continue` jumps to the step block, not the header.)
        let latches: Vec<_> = f
            .block_ids()
            .filter(|&b| b != f.entry && f.block(b).term.successors().contains(&header))
            .collect();
        assert_eq!(latches.len(), 1);
    }

    #[test]
    fn return_terminates_and_discards_trailing_code() {
        let p = lower_src("fn f() { return 1; } fn main() { f(); }");
        let fid = p.func_id("f").unwrap();
        let f = p.func(fid);
        assert_eq!(f.blocks.len(), 1);
        assert!(matches!(f.block(f.entry).term, Terminator::Return(Some(_))));
    }

    #[test]
    fn short_circuit_and_produces_control_flow() {
        let p = lower_src("fn main() { let x = getpid() && time(); }");
        let f = main_body(&p);
        assert!(f.blocks.len() >= 4, "&& must lower to a diamond");
        // The rhs syscall must be in a non-entry block (conditionally run).
        let entry_has_time = f
            .block(f.entry)
            .instrs
            .iter()
            .any(|i| i.as_syscall() == Some(ldx_lang::Syscall::Time));
        assert!(!entry_has_time);
    }

    #[test]
    fn syscalls_and_calls_get_distinct_sites() {
        let p = lower_src(
            r#"
            fn helper() { return getpid(); }
            fn main() { helper(); getpid(); helper(); }
            "#,
        );
        let f = main_body(&p);
        let mut sites = Vec::new();
        for (_, i) in f.instrs() {
            match i {
                Instr::Call { site, .. } | Instr::Syscall { site, .. } => sites.push(*site),
                _ => {}
            }
        }
        assert_eq!(sites.len(), 3);
        let mut dedup = sites.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), 3, "sites must be unique");
        assert_eq!(f.site_count, 3);
    }

    #[test]
    fn lib_calls_do_not_consume_sites() {
        let p = lower_src("fn main() { let s = len(\"abc\") + len(\"d\"); }");
        let f = main_body(&p);
        assert_eq!(f.site_count, 0);
        assert_eq!(
            f.instrs()
                .filter(|(_, i)| matches!(i, Instr::CallLib { .. }))
                .count(),
            2
        );
    }

    #[test]
    fn globals_lower_to_slots() {
        let p = lower_src("global a = 5; global msg = \"hi\"; fn main() { a = a + 1; msg = msg; }");
        assert_eq!(p.globals.len(), 2);
        assert_eq!(p.globals[0], ("a".to_string(), Const::Int(5)));
        let f = main_body(&p);
        assert!(f.instrs().any(|(_, i)| matches!(
            i,
            Instr::LoadGlobal {
                global: GlobalId(0),
                ..
            }
        )));
        assert!(f.instrs().any(|(_, i)| matches!(
            i,
            Instr::StoreGlobal {
                global: GlobalId(0),
                ..
            }
        )));
    }

    #[test]
    fn global_array_assignment_is_store_index_global() {
        let p = lower_src("global buf = [0, 0]; fn main() { buf[1] = 7; }");
        let f = main_body(&p);
        assert!(f
            .instrs()
            .any(|(_, i)| matches!(i, Instr::StoreIndexGlobal { .. })));
    }

    #[test]
    fn indirect_call_lowered_from_variable_call() {
        let p = lower_src("fn double(x) { return x * 2; } fn main() { let f = &double; f(3); }");
        let f = main_body(&p);
        assert!(f
            .instrs()
            .any(|(_, i)| matches!(i, Instr::CallIndirect { .. })));
        assert!(f.instrs().any(|(_, i)| matches!(i, Instr::FuncRef { .. })));
    }

    #[test]
    fn const_global_arrays() {
        let p = lower_src("global t = [1, \"two\", [3]]; fn main() {}");
        let Const::Array(elems) = &p.globals[0].1 else {
            panic!()
        };
        assert_eq!(elems.len(), 3);
        assert_eq!(elems[0], Const::Int(1));
    }

    #[test]
    fn negated_global_initializer() {
        let p = lower_src("global g = -3; fn main() {}");
        assert_eq!(p.globals[0].1, Const::Int(-3));
    }

    #[test]
    fn nested_loops_lower_reducibly() {
        let p = lower_src(
            r#"fn main() {
                let n = int(read(open("f", 0), 4));
                for (let i = 0; i < n; i = i + 1) {
                    let j = 0;
                    while (j < n) {
                        write(1, str(j));
                        j = j + 1;
                    }
                }
            }"#,
        );
        let f = main_body(&p);
        // Every block reachable, every successor valid.
        for b in f.block_ids() {
            for s in f.block(b).term.successors() {
                assert!(s.index() < f.blocks.len());
            }
        }
    }

    #[test]
    fn spawn_sites_are_found_in_any_function() {
        let threaded = lower_src(
            "fn work(n) { write(1, str(n)); } fn go() { return spawn(&work, 1); } \
             fn main() { join(go()); }",
        );
        assert!(threaded.spawns_threads());
        assert!(!lower_src("fn main() { write(1, \"x\"); }").spawns_threads());
    }
}
