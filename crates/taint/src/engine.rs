//! The dynamic taint-tracking interpreter.
//!
//! This is the reproduction's stand-in for the paper's comparison tools
//! (§8.3): LIBDFT and TaintGrind, which track *data dependences* at the
//! instruction level, plus a data+control variant for the ablation. The
//! engine runs a single execution over the same IR as the LDX runtime,
//! shadowing every value with a label set:
//!
//! * **`TaintGrindLike`** — full data-dependence propagation through all
//!   operators and library functions;
//! * **`LibDftLike`** — like TaintGrind, but taint is *dropped* across a
//!   handful of string-library calls ([`ldx_lang::LibFn::libdft_unmodeled`]),
//!   reproducing the paper's observation that LIBDFT's tainted sinks are a
//!   strict subset of TaintGrind's because it "does not correctly model
//!   taint propagation for some library calls";
//! * **`DataAndControl`** — additionally propagates through control
//!   dependences (implicit flows), scoped by immediate postdominators.
//!
//! Lx threads run *inline* (spawn executes the thread function to
//! completion at the spawn point): taint baselines need no real
//! concurrency, and this keeps them deterministic.

use crate::tval::{Labels, TVal};
use ldx_dualex::{SinkSpec, SourceMatcher, SourceSpec};
use ldx_ir::dom::PostDominators;
use ldx_ir::{BlockId, FuncId, Instr, IrProgram, LocalId, SiteId, Terminator};
use ldx_lang::Syscall;
use ldx_runtime::{const_to_value, eval_binary, eval_index, eval_lib, eval_unary, Trap, Value};
use ldx_vos::{SysArg, SysRet, VosConfig, VosState};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Which tool is being emulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaintPolicy {
    /// Data dependences with unmodeled string-library calls.
    LibDftLike,
    /// Full data-dependence propagation.
    TaintGrindLike,
    /// Data plus control dependences (ablation).
    DataAndControl,
}

impl TaintPolicy {
    /// Human-readable tool name.
    pub fn name(self) -> &'static str {
        match self {
            TaintPolicy::LibDftLike => "LIBDFT",
            TaintPolicy::TaintGrindLike => "TAINTGRIND",
            TaintPolicy::DataAndControl => "DATA+CONTROL",
        }
    }
}

/// The result of one tainted execution.
#[derive(Debug, Clone)]
pub struct TaintReport {
    /// Dynamic sink instances with at least one tainted argument.
    pub tainted_sink_instances: u64,
    /// Distinct static sites among them.
    pub tainted_sites: BTreeSet<(FuncId, SiteId)>,
    /// All dynamic sink instances.
    pub total_sink_instances: u64,
    /// Syscalls executed.
    pub syscalls: u64,
    /// The trap that ended execution early, if any.
    pub trap: Option<Trap>,
}

impl TaintReport {
    /// Whether any sink was tainted.
    pub fn any_tainted(&self) -> bool {
        self.tainted_sink_instances > 0
    }
}

/// Runs `program` under taint tracking.
///
/// `sources` use the same matchers as the dual-execution engine (mutations
/// are ignored — tainting labels instead of perturbing). `sinks` likewise.
pub fn taint_execute(
    program: &Arc<IrProgram>,
    config: &VosConfig,
    sources: &[SourceSpec],
    sinks: &SinkSpec,
    policy: TaintPolicy,
) -> TaintReport {
    let mut interp = TaintInterp::new(Arc::clone(program), config, sources, sinks, policy);
    let trap = interp.run().err();
    TaintReport {
        tainted_sink_instances: interp.tainted_sink_instances,
        tainted_sites: interp.tainted_sites,
        total_sink_instances: interp.total_sink_instances,
        syscalls: interp.syscalls,
        trap,
    }
}

/// The segments of `path`, normalized.
fn normalized(path: &str) -> Vec<String> {
    ldx_vos::normalize_path(path).map(str::to_string).collect()
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Resource {
    File(Vec<String>),
    Peer(String),
    Client(i64),
}

struct Activation {
    func: FuncId,
    block: BlockId,
    idx: usize,
    locals: Vec<TVal>,
    ret_dst: LocalId,
    /// Implicit-flow scopes: `(join block, labels)`, popped at the join.
    ctrl: Vec<(Option<BlockId>, Labels)>,
}

struct TaintInterp {
    program: Arc<IrProgram>,
    vos: VosState,
    sources: Vec<(ResolvedSource, Labels)>,
    sinks: SinkSpec,
    sink_sites: BTreeSet<(FuncId, SiteId)>,
    policy: TaintPolicy,
    postdoms: Vec<PostDominators>,
    activations: Vec<Activation>,
    globals: Vec<TVal>,
    fd_resources: HashMap<i64, Resource>,
    thread_results: HashMap<i64, TVal>,
    next_tid: i64,
    steps: u64,
    max_steps: u64,
    exited: bool,
    pub syscalls: u64,
    pub tainted_sink_instances: u64,
    pub tainted_sites: BTreeSet<(FuncId, SiteId)>,
    pub total_sink_instances: u64,
}

#[derive(Debug, Clone)]
enum ResolvedSource {
    FileRead(Vec<String>),
    NetRecv(String),
    ClientRecv(i64),
    SyscallKind(Syscall),
    Site(FuncId, SiteId),
}

impl TaintInterp {
    fn new(
        program: Arc<IrProgram>,
        config: &VosConfig,
        sources: &[SourceSpec],
        sinks: &SinkSpec,
        policy: TaintPolicy,
    ) -> Self {
        let resolved: Vec<(ResolvedSource, Labels)> = sources
            .iter()
            .enumerate()
            .filter_map(|(i, s)| {
                let r = match &s.matcher {
                    SourceMatcher::FileRead(p) => ResolvedSource::FileRead(normalized(p)),
                    SourceMatcher::NetRecv(h) => ResolvedSource::NetRecv(h.clone()),
                    SourceMatcher::ClientRecv(p) => ResolvedSource::ClientRecv(*p),
                    SourceMatcher::SyscallKind(sys) => ResolvedSource::SyscallKind(*sys),
                    SourceMatcher::Site(f, site) => {
                        ResolvedSource::Site(program.func_id(f)?, SiteId(*site))
                    }
                };
                Some((r, 1u64 << (i % 64)))
            })
            .collect();
        let sink_sites = match sinks {
            SinkSpec::Sites(list) => list
                .iter()
                .filter_map(|(f, s)| program.func_id(f).map(|fid| (fid, SiteId(*s))))
                .collect(),
            _ => BTreeSet::new(),
        };
        let postdoms = program
            .functions
            .iter()
            .map(PostDominators::compute)
            .collect();
        let globals = program
            .globals
            .iter()
            .map(|(_, c)| TVal::from_value(&const_to_value(c), 0))
            .collect();
        TaintInterp {
            program,
            vos: VosState::build(config),
            sources: resolved,
            sinks: sinks.clone(),
            sink_sites,
            policy,
            postdoms,
            activations: Vec::new(),
            globals,
            fd_resources: HashMap::new(),
            thread_results: HashMap::new(),
            next_tid: 100,
            steps: 0,
            max_steps: 200_000_000,
            exited: false,
            syscalls: 0,
            tainted_sink_instances: 0,
            tainted_sites: BTreeSet::new(),
            total_sink_instances: 0,
        }
    }

    fn run(&mut self) -> Result<(), Trap> {
        let main = self.program.main();
        self.call(main, Vec::new(), LocalId(0))?;
        self.execute_to_depth(0)
    }

    /// Runs until the activation stack shrinks back to `floor`.
    fn execute_to_depth(&mut self, floor: usize) -> Result<(), Trap> {
        let program = Arc::clone(&self.program);
        while self.activations.len() > floor && !self.exited {
            self.steps += 1;
            if self.steps > self.max_steps {
                return Err(Trap::StepLimitExceeded {
                    limit: self.max_steps,
                });
            }
            let (func, block, idx) = {
                let act = self.activations.last().expect("active frame");
                (act.func, act.block, act.idx)
            };
            let body = &program.functions[func.index()];
            let bb = &body.blocks[block.index()];
            if idx < bb.instrs.len() {
                self.activations.last_mut().expect("frame").idx += 1;
                self.exec_instr(func, &bb.instrs[idx])?;
            } else {
                self.exec_terminator(func, &bb.term)?;
            }
        }
        Ok(())
    }

    fn local(&self, id: LocalId) -> &TVal {
        &self.activations.last().expect("frame").locals[id.index()]
    }

    fn ctrl_labels(&self) -> Labels {
        if self.policy != TaintPolicy::DataAndControl {
            return 0;
        }
        self.activations
            .last()
            .map(|a| a.ctrl.iter().fold(0, |acc, (_, l)| acc | l))
            .unwrap_or(0)
    }

    fn set_local(&mut self, id: LocalId, v: TVal) {
        let ctrl = self.ctrl_labels();
        self.activations.last_mut().expect("frame").locals[id.index()] = v.with_labels(ctrl);
    }

    fn call(&mut self, func: FuncId, args: Vec<TVal>, ret_dst: LocalId) -> Result<(), Trap> {
        if self.activations.len() >= 4096 {
            return Err(Trap::StackOverflow { limit: 4096 });
        }
        let body = self.program.func(func);
        let mut locals = vec![TVal::zero(); body.local_count];
        for (i, a) in args.into_iter().enumerate() {
            locals[i] = a;
        }
        self.activations.push(Activation {
            func,
            block: body.entry,
            idx: 0,
            locals,
            ret_dst,
            ctrl: Vec::new(),
        });
        Ok(())
    }

    fn goto(&mut self, block: BlockId) {
        let act = self.activations.last_mut().expect("frame");
        act.block = block;
        act.idx = 0;
        // Close implicit-flow scopes whose join point we just reached.
        act.ctrl.retain(|(join, _)| *join != Some(block));
    }

    fn exec_terminator(&mut self, func: FuncId, term: &Terminator) -> Result<(), Trap> {
        match term {
            Terminator::Jump(b) => {
                self.goto(*b);
            }
            Terminator::Branch {
                cond,
                then_bb,
                else_bb,
            } => {
                let cv = self.local(*cond).clone();
                let labels = cv.deep_labels();
                let target = if cv.truthy() { *then_bb } else { *else_bb };
                if self.policy == TaintPolicy::DataAndControl && labels != 0 {
                    let act = self.activations.last().expect("frame");
                    let join = self.postdoms[func.index()].ipdom(act.block);
                    self.activations
                        .last_mut()
                        .expect("frame")
                        .ctrl
                        .push((join, labels));
                }
                self.goto(target);
            }
            Terminator::Return(slot) => {
                let value = match slot {
                    Some(s) => self.local(*s).clone(),
                    None => TVal::zero(),
                };
                let act = self.activations.pop().expect("frame");
                if let Some(caller) = self.activations.last_mut() {
                    let ctrl = caller.ctrl.iter().fold(0, |acc, (_, l)| acc | l);
                    let ctrl = if self.policy == TaintPolicy::DataAndControl {
                        ctrl
                    } else {
                        0
                    };
                    caller.locals[act.ret_dst.index()] = value.with_labels(ctrl);
                }
            }
        }
        Ok(())
    }

    fn exec_instr(&mut self, func: FuncId, instr: &Instr) -> Result<(), Trap> {
        match instr {
            Instr::Const { dst, value } => {
                let v = TVal::from_value(&const_to_value(value), 0);
                self.set_local(*dst, v);
            }
            Instr::Copy { dst, src } => {
                let v = self.local(*src).clone();
                self.set_local(*dst, v);
            }
            Instr::LoadGlobal { dst, global } => {
                let v = self.globals[global.index()].clone();
                self.set_local(*dst, v);
            }
            Instr::StoreGlobal { global, src } => {
                let v = self.local(*src).clone().with_labels(self.ctrl_labels());
                self.globals[global.index()] = v;
            }
            Instr::StoreIndexGlobal { global, index, src } => {
                let idx = self.local(*index).clone();
                let v = self
                    .local(*src)
                    .clone()
                    .with_labels(self.ctrl_labels() | idx.deep_labels());
                store_index_tval(&mut self.globals[global.index()], &idx, v)?;
            }
            Instr::StoreIndexLocal { local, index, src } => {
                let idx = self.local(*index).clone();
                let v = self
                    .local(*src)
                    .clone()
                    .with_labels(self.ctrl_labels() | idx.deep_labels());
                let act = self.activations.last_mut().expect("frame");
                store_index_tval(&mut act.locals[local.index()], &idx, v)?;
            }
            Instr::Unary { dst, op, operand } => {
                let t = self.local(*operand);
                let labels = t.deep_labels();
                let v = eval_unary(*op, &t.to_value())?;
                self.set_local(*dst, TVal::from_value(&v, labels));
            }
            Instr::Binary { dst, op, lhs, rhs } => {
                let (l, r) = (self.local(*lhs), self.local(*rhs));
                let labels = l.deep_labels() | r.deep_labels();
                let v = eval_binary(*op, &l.to_value(), &r.to_value())?;
                self.set_local(*dst, TVal::from_value(&v, labels));
            }
            Instr::Index { dst, base, index } => {
                let (b, i) = (self.local(*base), self.local(*index));
                let labels = b.labels() | i.deep_labels();
                let element_labels = match (b, i.as_int()) {
                    (TVal::Arr(elems, _), Some(ix)) => elems
                        .get(usize::try_from(ix).unwrap_or(usize::MAX))
                        .map(TVal::deep_labels)
                        .unwrap_or(0),
                    (TVal::Str(_, l), _) => *l,
                    _ => 0,
                };
                let v = eval_index(&b.to_value(), &i.to_value())?;
                self.set_local(*dst, TVal::from_value(&v, labels | element_labels));
            }
            Instr::MakeArray { dst, elems } => {
                let parts: Vec<TVal> = elems.iter().map(|e| self.local(*e).clone()).collect();
                self.set_local(*dst, TVal::Arr(parts, 0));
            }
            Instr::FuncRef { dst, func } => {
                self.set_local(*dst, TVal::Func(*func, 0));
            }
            Instr::CallLib { dst, lib, args } => {
                let targs: Vec<&TVal> = args.iter().map(|a| self.local(*a)).collect();
                let mut labels = targs.iter().fold(0, |acc, t| acc | t.deep_labels());
                // The LIBDFT emulation drops taint across unmodeled
                // library calls — the paper's observed gap.
                if self.policy == TaintPolicy::LibDftLike && lib.libdft_unmodeled() {
                    labels = 0;
                }
                let mut plain: Vec<Value> = targs.iter().map(|t| t.to_value()).collect();
                let v = eval_lib(*lib, &mut plain)?;
                self.set_local(*dst, TVal::from_value(&v, labels));
            }
            Instr::Call {
                dst,
                func: callee,
                args,
                ..
            } => {
                let targs: Vec<TVal> = args.iter().map(|a| self.local(*a).clone()).collect();
                self.call(*callee, targs, *dst)?;
            }
            Instr::CallIndirect {
                dst, callee, args, ..
            } => {
                let cv = self.local(*callee).clone();
                let TVal::Func(fid, _) = cv else {
                    return Err(Trap::NotCallable {
                        found: "non-function",
                    });
                };
                let body = self.program.func(fid);
                if body.param_count != args.len() {
                    return Err(Trap::ArityMismatch {
                        callee: body.name.clone(),
                        expected: body.param_count,
                        given: args.len(),
                    });
                }
                let targs: Vec<TVal> = args.iter().map(|a| self.local(*a).clone()).collect();
                self.call(fid, targs, *dst)?;
            }
            Instr::Syscall {
                dst,
                sys,
                args,
                site,
            } => {
                self.exec_syscall(func, *dst, *sys, args, *site)?;
            }
            // Instrumentation instructions are no-ops for taint tracking
            // (they exist when the same instrumented program is reused).
            Instr::CntAdd { .. }
            | Instr::LoopEnter { .. }
            | Instr::LoopBackedge { .. }
            | Instr::LoopExit { .. } => {}
        }
        Ok(())
    }

    fn is_sink(&self, func: FuncId, site: SiteId, sys: Syscall, args: &[TVal]) -> bool {
        match &self.sinks {
            SinkSpec::Outputs => sys.is_output(),
            SinkSpec::NetworkOut => sys == Syscall::Send,
            SinkSpec::FileOut => {
                sys == Syscall::Write
                    && args
                        .first()
                        .and_then(TVal::as_int)
                        .is_some_and(|fd| fd >= 3)
            }
            SinkSpec::Sites(_) => self.sink_sites.contains(&(func, site)),
        }
    }

    fn source_labels(&self, func: FuncId, site: SiteId, sys: Syscall, fd: Option<i64>) -> Labels {
        let resource = fd.and_then(|fd| self.fd_resources.get(&fd));
        let mut labels = 0;
        for (src, bit) in &self.sources {
            let hit = match src {
                ResolvedSource::FileRead(segs) => {
                    sys == Syscall::Read && matches!(resource, Some(Resource::File(p)) if p == segs)
                }
                ResolvedSource::NetRecv(host) => {
                    matches!(sys, Syscall::Recv | Syscall::Read)
                        && matches!(resource, Some(Resource::Peer(h)) if h == host)
                }
                ResolvedSource::ClientRecv(port) => {
                    matches!(sys, Syscall::Recv | Syscall::Read)
                        && matches!(resource, Some(Resource::Client(p)) if p == port)
                }
                ResolvedSource::SyscallKind(k) => sys == *k,
                ResolvedSource::Site(f, s) => func == *f && site == *s,
            };
            if hit {
                labels |= bit;
            }
        }
        labels
    }

    fn exec_syscall(
        &mut self,
        func: FuncId,
        dst: LocalId,
        sys: Syscall,
        args: &[LocalId],
        site: SiteId,
    ) -> Result<(), Trap> {
        self.syscalls += 1;
        let targs: Vec<TVal> = args.iter().map(|a| self.local(*a).clone()).collect();

        // Sink bookkeeping.
        if self.is_sink(func, site, sys, &targs) {
            self.total_sink_instances += 1;
            let labels = targs.iter().fold(0, |acc, t| acc | t.deep_labels()) | self.ctrl_labels();
            if labels != 0 {
                self.tainted_sink_instances += 1;
                self.tainted_sites.insert((func, site));
            }
        }

        match sys {
            Syscall::Lock | Syscall::Unlock => {
                self.set_local(dst, TVal::Int(0, 0));
                return Ok(());
            }
            Syscall::Exit => {
                self.exited = true;
                return Ok(());
            }
            Syscall::Spawn => {
                // Inline thread execution (sequential determinization).
                let TVal::Func(fid, _) = targs[0] else {
                    return Err(Trap::BadSpawnTarget {
                        detail: "not a function reference".into(),
                    });
                };
                let body = self.program.func(fid);
                if body.param_count != 1 {
                    return Err(Trap::BadSpawnTarget {
                        detail: "spawn targets take exactly 1 parameter".into(),
                    });
                }
                let tid = self.next_tid;
                self.next_tid += 1;
                let floor = self.activations.len();
                // Run the thread body to completion, capturing its result
                // in a scratch slot of the *current* activation.
                self.call(fid, vec![targs[1].clone()], dst)?;
                self.execute_to_depth(floor)?;
                let result = self.local(dst).clone();
                self.thread_results.insert(tid, result);
                self.set_local(dst, TVal::Int(tid, 0));
                return Ok(());
            }
            Syscall::Join => {
                let tid = targs[0].as_int().unwrap_or(-1);
                let v = self
                    .thread_results
                    .remove(&tid)
                    .ok_or(Trap::BadJoin { tid })?;
                self.set_local(dst, v);
                return Ok(());
            }
            Syscall::Setjmp | Syscall::Longjmp => {
                // The taint baselines do not model non-local jumps; treat
                // setjmp as returning 0 and longjmp as a no-op. (Workloads
                // using longjmp are evaluated with LDX only, like the
                // paper's tool-specific build failures.)
                self.set_local(dst, TVal::Int(0, 0));
                return Ok(());
            }
            _ => {}
        }

        // Virtual OS syscalls.
        let sys_args: Vec<SysArg> = targs
            .iter()
            .map(|t| match t {
                TVal::Int(i, _) => Ok(SysArg::Int(*i)),
                TVal::Str(s, _) => Ok(SysArg::Str(s)),
                other => Err(Trap::TypeError {
                    expected: "integer or string syscall argument",
                    found: other.to_value().type_name(),
                }),
            })
            .collect::<Result<_, _>>()?;
        let ret = self.vos.syscall(sys, &sys_args)?;

        // Track descriptors for source matching.
        match (sys, &ret) {
            (Syscall::Open, SysRet::Int(fd)) if *fd >= 0 => {
                if let Some(SysArg::Str(p)) = sys_args.first() {
                    self.fd_resources.insert(*fd, Resource::File(normalized(p)));
                }
            }
            (Syscall::Connect, SysRet::Int(fd)) if *fd >= 0 => {
                if let Some(SysArg::Str(h)) = sys_args.first() {
                    self.fd_resources.insert(*fd, Resource::Peer(h.to_string()));
                }
            }
            (Syscall::Accept, SysRet::Int(fd)) if *fd >= 0 => {
                if let Some(SysArg::Int(port)) = sys_args.first() {
                    self.fd_resources.insert(*fd, Resource::Client(*port));
                }
            }
            (Syscall::Close, _) => {
                if let Some(SysArg::Int(fd)) = sys_args.first() {
                    self.fd_resources.remove(fd);
                }
            }
            _ => {}
        }

        let fd = match sys_args.first() {
            Some(SysArg::Int(fd)) => Some(*fd),
            _ => None,
        };
        let labels = self.source_labels(func, site, sys, fd);
        let value = match ret {
            SysRet::Int(i) => Value::Int(i),
            SysRet::Str(s) => Value::str(s),
        };
        self.set_local(dst, TVal::from_value(&value, labels));
        Ok(())
    }
}

/// In-place indexed store over tainted arrays.
fn store_index_tval(base: &mut TVal, index: &TVal, v: TVal) -> Result<(), Trap> {
    let Some(i) = index.as_int() else {
        return Err(Trap::TypeError {
            expected: "integer index",
            found: "other",
        });
    };
    match base {
        TVal::Arr(elems, _) => {
            let len = elems.len();
            let idx = usize::try_from(i).map_err(|_| Trap::IndexOutOfBounds { index: i, len })?;
            match elems.get_mut(idx) {
                Some(slot) => {
                    *slot = v;
                    Ok(())
                }
                None => Err(Trap::IndexOutOfBounds { index: i, len }),
            }
        }
        _ => Err(Trap::TypeError {
            expected: "array",
            found: "other",
        }),
    }
}
