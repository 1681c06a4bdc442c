//! Program-level IR containers and the id newtypes used throughout.

use crate::instr::{BasicBlock, Const, Instr};
use ldx_lang::Syscall;
use std::collections::HashMap;
use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident) => {
        $(#[$doc])*
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
        pub struct $name(pub u32);

        impl $name {
            /// The raw index.
            pub fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{}", stringify!($name).chars().next().unwrap().to_ascii_lowercase(), self.0)
            }
        }
    };
}

id_type!(
    /// Identifies a function within an [`IrProgram`].
    FuncId
);
id_type!(
    /// Identifies a basic block within a [`FuncBody`].
    BlockId
);
id_type!(
    /// Identifies a local slot (parameter, named local, or temporary)
    /// within a function frame.
    LocalId
);
id_type!(
    /// Identifies a global variable slot.
    GlobalId
);
id_type!(
    /// Identifies an instrumented natural loop within a function.
    LoopId
);

/// Identifies a call/syscall *site*: a stable per-function sequence number
/// assigned during lowering. `(FuncId, SiteId)` is the "PC" the paper uses
/// when matching syscalls across the master and the slave (§3: syscalls
/// align when counter value, PC, and arguments all agree).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SiteId(pub u32);

impl SiteId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// A lowered function body: a CFG of basic blocks plus frame layout.
#[derive(Debug, Clone, PartialEq)]
pub struct FuncBody {
    /// The function's source name.
    pub name: String,
    /// Number of parameters (occupying locals `0..param_count`).
    pub param_count: usize,
    /// Total number of local slots (params + named locals + temporaries).
    pub local_count: usize,
    /// The basic blocks; `blocks[entry.index()]` is the entry block.
    pub blocks: Vec<BasicBlock>,
    /// The entry block (always block 0 as produced by lowering).
    pub entry: BlockId,
    /// Number of distinct call/syscall sites (for dense site tables).
    pub site_count: u32,
    /// Number of instrumented loops (0 before instrumentation).
    pub loop_count: u32,
}

impl FuncBody {
    /// The block with the given id.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block(&self, id: BlockId) -> &BasicBlock {
        &self.blocks[id.index()]
    }

    /// Mutable access to a block.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn block_mut(&mut self, id: BlockId) -> &mut BasicBlock {
        &mut self.blocks[id.index()]
    }

    /// Appends a new block and returns its id.
    pub fn push_block(&mut self, block: BasicBlock) -> BlockId {
        let id = BlockId(self.blocks.len() as u32);
        self.blocks.push(block);
        id
    }

    /// Allocates a fresh local slot (used by lowering and instrumentation).
    pub fn alloc_local(&mut self) -> LocalId {
        let id = LocalId(self.local_count as u32);
        self.local_count += 1;
        id
    }

    /// Iterates over all block ids in index order.
    pub fn block_ids(&self) -> impl Iterator<Item = BlockId> {
        (0..self.blocks.len() as u32).map(BlockId)
    }

    /// Counts instructions across all blocks (terminators excluded).
    pub fn instr_count(&self) -> usize {
        self.blocks.iter().map(|b| b.instrs.len()).sum()
    }

    /// Iterates over every instruction with its block id.
    pub fn instrs(&self) -> impl Iterator<Item = (BlockId, &Instr)> {
        self.blocks
            .iter()
            .enumerate()
            .flat_map(|(i, b)| b.instrs.iter().map(move |instr| (BlockId(i as u32), instr)))
    }
}

/// A whole lowered program.
#[derive(Debug, Clone, PartialEq)]
pub struct IrProgram {
    /// Function bodies, indexed by [`FuncId`].
    pub functions: Vec<FuncBody>,
    /// Global variable names and constant initializers, indexed by
    /// [`GlobalId`].
    pub globals: Vec<(String, Const)>,
    func_by_name: HashMap<String, FuncId>,
}

impl IrProgram {
    /// Assembles a program; computes the name index.
    pub fn new(functions: Vec<FuncBody>, globals: Vec<(String, Const)>) -> Self {
        let func_by_name = functions
            .iter()
            .enumerate()
            .map(|(i, f)| (f.name.clone(), FuncId(i as u32)))
            .collect();
        IrProgram {
            functions,
            globals,
            func_by_name,
        }
    }

    /// Looks a function up by name.
    pub fn func_id(&self, name: &str) -> Option<FuncId> {
        self.func_by_name.get(name).copied()
    }

    /// The function body for `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn func(&self, id: FuncId) -> &FuncBody {
        &self.functions[id.index()]
    }

    /// The `main` entry point.
    ///
    /// # Panics
    ///
    /// Panics if the program has no `main` (excluded by the resolver).
    pub fn main(&self) -> FuncId {
        self.func_id("main").expect("resolver guarantees `main`")
    }

    /// Iterates over `(FuncId, &FuncBody)` pairs.
    pub fn iter_funcs(&self) -> impl Iterator<Item = (FuncId, &FuncBody)> {
        self.functions
            .iter()
            .enumerate()
            .map(|(i, f)| (FuncId(i as u32), f))
    }

    /// Total instruction count across all functions.
    pub fn instr_count(&self) -> usize {
        self.functions.iter().map(|f| f.instr_count()).sum()
    }

    /// Whether the program has a `spawn` site, i.e. may run more than one
    /// Lx thread.
    pub fn spawns_threads(&self) -> bool {
        self.functions
            .iter()
            .flat_map(|f| f.instrs())
            .any(|(_, instr)| instr.as_syscall() == Some(Syscall::Spawn))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Terminator;

    fn empty_func(name: &str) -> FuncBody {
        FuncBody {
            name: name.to_string(),
            param_count: 0,
            local_count: 0,
            blocks: vec![BasicBlock {
                instrs: vec![],
                term: Terminator::Return(None),
            }],
            entry: BlockId(0),
            site_count: 0,
            loop_count: 0,
        }
    }

    #[test]
    fn id_display() {
        assert_eq!(FuncId(3).to_string(), "f3");
        assert_eq!(BlockId(0).to_string(), "b0");
        assert_eq!(SiteId(9).to_string(), "s9");
    }

    #[test]
    fn program_name_lookup() {
        let p = IrProgram::new(vec![empty_func("main"), empty_func("aux")], vec![]);
        assert_eq!(p.func_id("aux"), Some(FuncId(1)));
        assert_eq!(p.func_id("nope"), None);
        assert_eq!(p.main(), FuncId(0));
    }

    #[test]
    fn alloc_local_grows_frame() {
        let mut f = empty_func("main");
        assert_eq!(f.alloc_local(), LocalId(0));
        assert_eq!(f.alloc_local(), LocalId(1));
        assert_eq!(f.local_count, 2);
    }

    #[test]
    fn push_block_returns_sequential_ids() {
        let mut f = empty_func("main");
        let b = f.push_block(BasicBlock {
            instrs: vec![],
            term: Terminator::Return(None),
        });
        assert_eq!(b, BlockId(1));
        assert_eq!(f.blocks.len(), 2);
    }
}
