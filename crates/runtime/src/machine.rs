//! The Lx interpreter: an explicit-activation-stack machine maintaining
//! the LDX progress counter at runtime.

use crate::globals::{const_to_value, Globals};
use crate::hooks::{SysOutcome, SyscallCtx, SyscallHooks};
use crate::libfns::eval_lib;
use crate::progress::{LoopUid, ProgressKey};
use crate::stats::RunStats;
use crate::threads::{StopSignal, ThreadKey, ThreadRegistry};
use crate::trap::Trap;
use crate::value::{eval_binary, eval_index, eval_unary, store_index, Value};
use ldx_ir::{BlockId, FuncId, Instr, IrProgram, LocalId, SiteId, Terminator};
use ldx_lang::{LibFn, Syscall};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Resource limits for one execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecConfig {
    /// Per-thread interpreter step budget (runaway-loop guard).
    pub max_steps: u64,
    /// Maximum activation (call) depth per thread.
    pub max_activations: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            max_steps: 200_000_000,
            max_activations: 4096,
        }
    }
}

/// The result of a completed execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunOutcome {
    /// The exit code (from `exit(code)`, else 0).
    pub exit_code: i64,
    /// `main`'s return value (Int 0 when the program called `exit`).
    pub result: Value,
    /// Merged dynamic statistics across all threads.
    pub stats: RunStats,
}

/// Shared per-execution environment.
struct Env {
    program: Arc<IrProgram>,
    hooks: Arc<dyn SyscallHooks>,
    globals: Arc<Globals>,
    registry: Arc<ThreadRegistry>,
    stop: StopSignal,
    config: ExecConfig,
    stats: Mutex<RunStats>,
    gen_counter: AtomicU64,
}

/// Runs an Lx program to completion under the given hooks.
///
/// This is the single entry point every execution model uses: native runs
/// pass [`crate::NativeHooks`]; the dual-execution engine passes its
/// master/slave hooks; baselines pass theirs.
///
/// # Errors
///
/// Returns the first [`Trap`] raised by any thread.
pub fn run_program(
    program: Arc<IrProgram>,
    hooks: Arc<dyn SyscallHooks>,
    config: ExecConfig,
) -> Result<RunOutcome, Trap> {
    let globals = Arc::new(Globals::new(&program));
    let env = Arc::new(Env {
        program,
        hooks,
        globals,
        registry: Arc::new(ThreadRegistry::new()),
        stop: StopSignal::new(),
        config,
        stats: Mutex::new(RunStats::default()),
        gen_counter: AtomicU64::new(0),
    });

    let root = ThreadKey::root();
    let main = env.program.main();
    let mut machine = Machine::new(Arc::clone(&env), root.clone());
    let result = machine.run_function(main, std::iter::empty());
    machine.finish();
    env.hooks.thread_finished(&root);

    // A trap in the main thread must stop the others before we join them.
    if let Err(trap) = &result {
        env.stop.request_trap(trap.clone());
    }
    if let Some(trap) = env.registry.drain() {
        env.stop.request_trap(trap);
    }

    if let Some(trap) = env.stop.trap() {
        return Err(trap);
    }
    let value = match result {
        Ok(MachineEnd::Finished(v)) => v,
        Ok(MachineEnd::Stopped) => Value::Int(0),
        Err(_) => unreachable!("trap handled above"),
    };
    let stats = env.stats.lock().clone();
    Ok(RunOutcome {
        exit_code: env.stop.exit_code(),
        result: value,
        stats,
    })
}

/// How a machine's run ended.
enum MachineEnd {
    /// The entry function returned this value.
    Finished(Value),
    /// The cooperative stop signal fired (exit/abort).
    Stopped,
}

enum Flow {
    Continue,
    Ended(MachineEnd),
}

struct Activation {
    func: FuncId,
    block: BlockId,
    idx: usize,
    locals: Vec<Value>,
    /// Destination slot *in the caller's frame* for the return value.
    ret_dst: LocalId,
    /// Whether this activation opened a fresh counter frame.
    fresh: bool,
    /// Instrumented loops currently active in this activation.
    loops: Vec<(LoopUid, u64, u64)>,
    /// Unique instance id (setjmp validity check).
    gen: u64,
}

struct JmpBuf {
    depth: usize,
    gen: u64,
    block: BlockId,
    idx: usize,
    dst: LocalId,
    counter_frames: Vec<u64>,
    loops_snapshot: Vec<Vec<(LoopUid, u64, u64)>>,
}

struct Machine {
    env: Arc<Env>,
    thread: ThreadKey,
    counter_frames: Vec<u64>,
    activations: Vec<Activation>,
    jmpbufs: Vec<JmpBuf>,
    stats: RunStats,
    spawn_count: u32,
    /// The key handed to `loop_barrier`, rebuilt in place at every backedge
    /// so a key deeper than the inline words allocates once per thread.
    backedge_key: ProgressKey,
}

impl Machine {
    fn new(env: Arc<Env>, thread: ThreadKey) -> Self {
        Machine {
            env,
            thread,
            counter_frames: vec![0],
            activations: Vec::new(),
            jmpbufs: Vec::new(),
            stats: RunStats::default(),
            spawn_count: 0,
            backedge_key: ProgressKey::empty(),
        }
    }

    fn finish(&mut self) {
        self.env.stats.lock().merge(&self.stats);
    }

    fn run_function(
        &mut self,
        func: FuncId,
        args: impl Iterator<Item = Value>,
    ) -> Result<MachineEnd, Trap> {
        let locals = self.frame(func, args);
        self.push_activation(func, locals, LocalId(0), false)?;
        self.execute()
    }

    /// A new frame for `func`: its arguments, then its other locals, in
    /// one allocation.
    fn frame(&self, func: FuncId, args: impl Iterator<Item = Value>) -> Vec<Value> {
        let body = self.env.program.func(func);
        let mut locals = Vec::with_capacity(body.local_count);
        locals.extend(args);
        debug_assert_eq!(body.param_count, locals.len());
        locals.resize(body.local_count, Value::Int(0));
        locals
    }

    /// The arguments' values for a call from the current frame.
    fn args<'s>(&'s self, args: &'s [LocalId]) -> impl Iterator<Item = Value> + 's {
        args.iter().map(|a| self.local(*a).clone())
    }

    fn local(&self, id: LocalId) -> &Value {
        &self.activations.last().expect("active frame").locals[id.index()]
    }

    /// Moves a local out of the current frame, leaving `Int(0)` behind.
    fn take_local(&mut self, id: LocalId) -> Value {
        let slot = &mut self.activations.last_mut().expect("active frame").locals[id.index()];
        std::mem::replace(slot, Value::Int(0))
    }

    fn set_local(&mut self, id: LocalId, v: Value) {
        self.activations.last_mut().expect("active frame").locals[id.index()] = v;
    }

    fn push_activation(
        &mut self,
        func: FuncId,
        locals: Vec<Value>,
        ret_dst: LocalId,
        fresh: bool,
    ) -> Result<(), Trap> {
        if self.activations.len() >= self.env.config.max_activations {
            return Err(Trap::StackOverflow {
                limit: self.env.config.max_activations,
            });
        }
        let entry = self.env.program.func(func).entry;
        if fresh {
            self.counter_frames.push(0);
            self.stats.max_counter_depth =
                self.stats.max_counter_depth.max(self.counter_frames.len());
        }
        self.activations.push(Activation {
            func,
            block: entry,
            idx: 0,
            locals,
            ret_dst,
            fresh,
            loops: Vec::new(),
            gen: self.env.gen_counter.fetch_add(1, Ordering::Relaxed),
        });
        self.stats.max_activation_depth =
            self.stats.max_activation_depth.max(self.activations.len());
        Ok(())
    }

    /// Builds the current progress key (no allocation unless the key
    /// outgrows its inline words).
    fn current_key(&self) -> ProgressKey {
        let mut key = ProgressKey::empty();
        Self::write_key(&self.counter_frames, &self.activations, &mut key);
        key
    }

    /// Rewrites `key` from the counter frames and the active loops of each
    /// activation, word by word.
    fn write_key(counter_frames: &[u64], activations: &[Activation], key: &mut ProgressKey) {
        debug_assert_eq!(
            counter_frames.len(),
            1 + activations.iter().filter(|a| a.fresh).count()
        );
        key.clear();
        let mut counters = counter_frames.iter().copied();
        let mut frame = key.open_frame();
        for act in activations {
            if act.fresh {
                key.close_frame(frame, counters.next().expect("counter per fresh frame"));
                frame = key.open_frame();
            }
            for &l in &act.loops {
                key.push_loop(l);
            }
        }
        key.close_frame(frame, counters.next().expect("counter per fresh frame"));
    }

    fn cnt(&mut self) -> &mut u64 {
        self.counter_frames.last_mut().expect("counter stack")
    }

    fn execute(&mut self) -> Result<MachineEnd, Trap> {
        let program = Arc::clone(&self.env.program);
        let observe_steps = self.env.hooks.observes_steps();
        loop {
            if self.env.stop.should_stop() {
                return Ok(MachineEnd::Stopped);
            }
            self.stats.steps += 1;
            if self.stats.steps > self.env.config.max_steps {
                return Err(Trap::StepLimitExceeded {
                    limit: self.env.config.max_steps,
                });
            }
            let (func, block, idx) = {
                let act = self.activations.last().expect("active frame");
                (act.func, act.block, act.idx)
            };
            let body = &program.functions[func.index()];
            let bb = &body.blocks[block.index()];
            if observe_steps {
                self.env.hooks.on_step(&self.thread, func, block.0, idx);
            }
            if idx < bb.instrs.len() {
                self.activations.last_mut().expect("active frame").idx += 1;
                match self.exec_instr(func, &bb.instrs[idx])? {
                    Flow::Continue => {}
                    Flow::Ended(end) => return Ok(end),
                }
            } else {
                match self.exec_terminator(&bb.term)? {
                    Flow::Continue => {}
                    Flow::Ended(end) => return Ok(end),
                }
            }
        }
    }

    fn goto(&mut self, block: BlockId) {
        let act = self.activations.last_mut().expect("active frame");
        act.block = block;
        act.idx = 0;
    }

    fn exec_terminator(&mut self, term: &Terminator) -> Result<Flow, Trap> {
        match term {
            Terminator::Jump(b) => {
                self.goto(*b);
                Ok(Flow::Continue)
            }
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                let target = if self.local(*cond).truthy() {
                    *then_bb
                } else {
                    *else_bb
                };
                self.goto(target);
                Ok(Flow::Continue)
            }
            Terminator::Return(slot) => {
                let value = match slot {
                    Some(s) => self.local(*s).clone(),
                    None => Value::Int(0),
                };
                let act = self.activations.pop().expect("active frame");
                if act.fresh {
                    self.counter_frames.pop();
                }
                let depth = self.activations.len();
                self.jmpbufs.retain(|j| j.depth <= depth);
                if self.activations.is_empty() {
                    return Ok(Flow::Ended(MachineEnd::Finished(value)));
                }
                self.set_local(act.ret_dst, value);
                Ok(Flow::Continue)
            }
        }
    }

    fn exec_instr(&mut self, func: FuncId, instr: &Instr) -> Result<Flow, Trap> {
        match instr {
            Instr::Const { dst, value } => {
                let v = const_to_value(value);
                self.set_local(*dst, v);
            }
            Instr::Copy { dst, src } => {
                let v = self.local(*src).clone();
                self.set_local(*dst, v);
            }
            Instr::LoadGlobal { dst, global } => {
                let v = self.env.globals.get(*global);
                self.set_local(*dst, v);
            }
            Instr::StoreGlobal { global, src } => {
                let v = self.local(*src).clone();
                self.env.globals.set(*global, v);
            }
            Instr::StoreIndexGlobal { global, index, src } => {
                let idx = self.local(*index).clone();
                let v = self.local(*src).clone();
                self.env.globals.store_index(*global, &idx, v)?;
            }
            Instr::StoreIndexLocal { local, index, src } => {
                let idx = self.local(*index).clone();
                let v = self.local(*src).clone();
                let act = self.activations.last_mut().expect("active frame");
                store_index(&mut act.locals[local.index()], &idx, v)?;
            }
            Instr::Unary { dst, op, operand } => {
                let v = eval_unary(*op, self.local(*operand))?;
                self.set_local(*dst, v);
            }
            Instr::Binary { dst, op, lhs, rhs } => {
                let v = eval_binary(*op, self.local(*lhs), self.local(*rhs))?;
                self.set_local(*dst, v);
            }
            Instr::Index { dst, base, index } => {
                let v = eval_index(self.local(*base), self.local(*index))?;
                self.set_local(*dst, v);
            }
            Instr::MakeArray { dst, elems } => {
                let v = Value::arr(elems.iter().map(|e| self.local(*e).clone()).collect());
                self.set_local(*dst, v);
            }
            Instr::FuncRef { dst, func } => {
                self.set_local(*dst, Value::Func(*func));
            }
            Instr::CallLib { dst, lib, args } => {
                // In `x = set(x, i, v)` the result overwrites x, so x moves
                // into the call (after the other arguments are read, so
                // `x = set(x, 0, x)` stores the old x) and an array nothing
                // else holds is updated in place.
                let moves = args.first() == Some(dst);
                let mut argv: [Value; LibFn::MAX_ARITY] =
                    std::array::from_fn(|i| match args.get(i) {
                        Some(a) if i > 0 || !moves => self.local(*a).clone(),
                        _ => Value::Int(0),
                    });
                if moves {
                    argv[0] = self.take_local(*dst);
                }
                let v = eval_lib(*lib, &mut argv[..args.len()])?;
                self.set_local(*dst, v);
            }
            Instr::Call {
                dst,
                func: callee,
                args,
                fresh_frame,
                ..
            } => {
                let locals = self.frame(*callee, self.args(args));
                self.push_activation(*callee, locals, *dst, *fresh_frame)?;
            }
            Instr::CallIndirect {
                dst, callee, args, ..
            } => {
                let callee_v = self.local(*callee).clone();
                let Value::Func(fid) = callee_v else {
                    return Err(Trap::NotCallable {
                        found: callee_v.type_name(),
                    });
                };
                let body = self.env.program.func(fid);
                if body.param_count != args.len() {
                    return Err(Trap::ArityMismatch {
                        callee: body.name.clone(),
                        expected: body.param_count,
                        given: args.len(),
                    });
                }
                let locals = self.frame(fid, self.args(args));
                // Indirect calls always get a fresh counter frame (§6).
                self.push_activation(fid, locals, *dst, true)?;
            }
            Instr::Syscall {
                dst,
                sys,
                args,
                site,
            } => {
                return self.exec_syscall(func, *dst, *sys, args, *site);
            }
            Instr::CntAdd { delta } => {
                *self.cnt() += delta;
            }
            Instr::LoopEnter { loop_id } => {
                let uid = LoopUid::new(func.0, loop_id.0);
                let entry_cnt = *self.cnt();
                self.activations
                    .last_mut()
                    .expect("active frame")
                    .loops
                    .push((uid, 0, entry_cnt));
            }
            Instr::LoopBackedge { loop_id, sub } => {
                Self::write_key(
                    &self.counter_frames,
                    &self.activations,
                    &mut self.backedge_key,
                );
                let key = &self.backedge_key;
                self.stats.barrier_waits += 1;
                self.env.hooks.loop_barrier(&self.thread, key)?;
                let uid = LoopUid::new(func.0, loop_id.0);
                let act = self.activations.last_mut().expect("active frame");
                let entry = act
                    .loops
                    .iter_mut()
                    .rev()
                    .find(|(l, _, _)| *l == uid)
                    .expect("backedge of an entered loop");
                entry.1 += 1;
                let cnt = self.cnt();
                debug_assert!(*cnt >= *sub, "backedge reset underflow");
                *cnt = cnt.saturating_sub(*sub);
            }
            Instr::LoopExit { loop_id, add } => {
                let uid = LoopUid::new(func.0, loop_id.0);
                let act = self.activations.last_mut().expect("active frame");
                let pos = act
                    .loops
                    .iter()
                    .rposition(|(l, _, _)| *l == uid)
                    .expect("exit of an entered loop");
                act.loops.truncate(pos);
                *self.cnt() += add;
            }
        }
        Ok(Flow::Continue)
    }

    fn exec_syscall(
        &mut self,
        func: FuncId,
        dst: LocalId,
        sys: Syscall,
        args: &[LocalId],
        site: SiteId,
    ) -> Result<Flow, Trap> {
        let argv: [Value; Syscall::MAX_ARITY] = std::array::from_fn(|i| {
            args.get(i)
                .map_or(Value::Int(0), |a| self.local(*a).clone())
        });
        let argv = &argv[..args.len()];
        self.stats.syscalls += 1;
        // The dynamic half of the paper's scheme: the counter is
        // "incremented by 1 at each syscall" (§3); the static edge deltas
        // compensate around these increments.
        *self.cnt() += 1;
        let cnt = *self.counter_frames.last().expect("counter stack");
        self.stats.sample_counter(cnt, self.counter_frames.len());

        let ctx = SyscallCtx {
            thread: &self.thread,
            key: self.current_key(),
            func,
            site,
            sys,
            stop: &self.env.stop,
        };
        // A virtual `sleep` also yields the OS scheduler: Lx threads
        // genuinely interleave at sleep points (the substrate's stand-in
        // for real blocking), which is what makes unprotected races in the
        // concurrent workloads nondeterministic run to run.
        if sys == Syscall::Sleep {
            std::thread::yield_now();
        }
        match self.env.hooks.syscall(&ctx, argv)? {
            SysOutcome::Value(v) => {
                self.set_local(dst, v);
                Ok(Flow::Continue)
            }
            SysOutcome::Exit(code) => {
                self.env.stop.request_exit(code);
                Ok(Flow::Ended(MachineEnd::Stopped))
            }
            SysOutcome::DoLocal => match sys {
                Syscall::Spawn => {
                    self.do_spawn(dst, argv)?;
                    Ok(Flow::Continue)
                }
                Syscall::Join => {
                    let tid = argv[0].as_int()?;
                    let v = self.env.registry.join(tid)?;
                    self.set_local(dst, v);
                    Ok(Flow::Continue)
                }
                Syscall::Exit => {
                    let code = argv[0].as_int()?;
                    self.env.stop.request_exit(code);
                    Ok(Flow::Ended(MachineEnd::Stopped))
                }
                Syscall::Setjmp => {
                    let act = self.activations.last().expect("active frame");
                    self.jmpbufs.push(JmpBuf {
                        depth: self.activations.len(),
                        gen: act.gen,
                        block: act.block,
                        idx: act.idx,
                        dst,
                        counter_frames: self.counter_frames.clone(),
                        loops_snapshot: self.activations.iter().map(|a| a.loops.clone()).collect(),
                    });
                    self.set_local(dst, Value::Int(0));
                    Ok(Flow::Continue)
                }
                Syscall::Longjmp => {
                    let v = argv[0].as_int()?;
                    self.do_longjmp(v)?;
                    Ok(Flow::Continue)
                }
                other => Err(Trap::Aborted {
                    reason: format!("hooks returned DoLocal for OS syscall `{other}`"),
                }),
            },
        }
    }

    fn do_spawn(&mut self, dst: LocalId, argv: &[Value]) -> Result<(), Trap> {
        let Value::Func(fid) = &argv[0] else {
            return Err(Trap::BadSpawnTarget {
                detail: format!("first argument is a {}", argv[0].type_name()),
            });
        };
        let body = self.env.program.func(*fid);
        if body.param_count != 1 {
            return Err(Trap::BadSpawnTarget {
                detail: format!(
                    "`{}` takes {} parameters; spawn targets take exactly 1",
                    body.name, body.param_count
                ),
            });
        }
        let child_key = self.thread.child(self.spawn_count);
        self.spawn_count += 1;
        self.stats.threads_spawned += 1;
        let tid = child_key.tid();

        let env = Arc::clone(&self.env);
        let fid = *fid;
        let arg = argv[1].clone();
        let ck = child_key.clone();
        let handle = std::thread::Builder::new()
            .name(child_key.to_string())
            .spawn(move || {
                let mut machine = Machine::new(Arc::clone(&env), ck.clone());
                let result = machine.run_function(fid, std::iter::once(arg));
                machine.finish();
                env.hooks.thread_finished(&ck);
                match result {
                    Ok(MachineEnd::Finished(v)) => Ok(v),
                    Ok(MachineEnd::Stopped) => Ok(Value::Int(0)),
                    Err(trap) => {
                        env.stop.request_trap(trap.clone());
                        Err(trap)
                    }
                }
            })
            .expect("OS thread spawn failed");
        self.env.registry.register(tid, handle);
        self.set_local(dst, Value::Int(tid));
        Ok(())
    }

    fn do_longjmp(&mut self, v: i64) -> Result<(), Trap> {
        let buf = self.jmpbufs.pop().ok_or(Trap::LongjmpWithoutSetjmp)?;
        if buf.depth > self.activations.len() || self.activations[buf.depth - 1].gen != buf.gen {
            return Err(Trap::LongjmpWithoutSetjmp);
        }
        // Unwind to the saved depth; restore the counter state saved at
        // setjmp (paper §6: "saving a copy of the counter stack at the
        // setjmp which will be restored upon the longjmp").
        self.activations.truncate(buf.depth);
        let depth = self.activations.len();
        self.jmpbufs.retain(|j| j.depth <= depth);
        self.counter_frames = buf.counter_frames.clone();
        for (i, loops) in buf.loops_snapshot.iter().enumerate() {
            self.activations[i].loops = loops.clone();
        }
        let act = self.activations.last_mut().expect("jmp target frame");
        act.block = buf.block;
        act.idx = buf.idx;
        let dst = buf.dst;
        self.set_local(dst, Value::Int(if v == 0 { 1 } else { v }));
        Ok(())
    }
}
