//! Heap allocations per virtual syscall. A `write` with an integer and a
//! string argument allocates nothing on its way from the interpreter to
//! the virtual OS: the syscall context borrows the thread key and stop
//! signal, the arguments borrow the interpreter's string, and the world
//! appends to the file without copying the data or its path.
//!
//! A counting allocator keeps a per-thread count of allocations (and
//! reallocations). Each check runs the write loop at 1,000 and at 2,000
//! writes on the calling thread and bounds what the second 1,000 add: the
//! growth of the file's buffer natively, and with a recording also the
//! master's log chunks and world history. When the context, the arguments
//! and the world copied what they were given, each write allocated 8 times
//! natively and on the master, and once in a replayed slave.

use ldx_dualex::{record, replay, DualSpec, Mutation, SinkSpec, SourceSpec};
use ldx_runtime::{run_program, ExecConfig, NativeHooks};
use ldx_vos::{Vos, VosConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

/// Forwards to [`System`], counting the calling thread's allocations.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the count is a const-initialized thread-local `Cell`, which
// neither allocates nor needs a destructor.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Allocations `f` makes on the calling thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// ldxperf's write loop: a 16-byte payload read from `/in`, written `n`
/// times to a file.
fn write_loop(n: u64) -> String {
    format!(
        r#"fn main() {{
    let fd = open("/in", 0);
    let s = read(fd, 16);
    close(fd);
    let out = open("/out/loop.txt", 1);
    for (let i = 0; i < {n}; i = i + 1) {{
        write(out, s);
    }}
    close(out);
}}
"#
    )
}

fn world() -> VosConfig {
    VosConfig::new().file("/in", "abcdefghijklmnop").dir("/out")
}

fn spec() -> DualSpec {
    DualSpec::with_source(SourceSpec::file("/in").with_mutation(Mutation::Identity))
        .sinks(SinkSpec::FileOut)
}

/// The loop's program, plain and instrumented.
fn programs(n: u64) -> (Arc<ldx_ir::IrProgram>, Arc<ldx_ir::IrProgram>) {
    let plain = ldx_ir::lower(&ldx_lang::compile(&write_loop(n)).expect("the loop compiles"));
    let instrumented = ldx_instrument::instrument(&plain).into_program();
    (Arc::new(plain), Arc::new(instrumented))
}

fn native(n: u64) -> u64 {
    let (plain, _) = programs(n);
    let world = world();
    allocations(|| {
        let vos = Arc::new(Vos::new(&world));
        let hooks = Arc::new(NativeHooks::new(Arc::clone(&vos)));
        run_program(plain, hooks, ExecConfig::default()).expect("the loop runs");
        assert_eq!(
            vos.file_contents("/out/loop.txt").map(|f| f.len() as u64),
            Some(16 * n)
        );
    })
}

fn recorded(n: u64) -> u64 {
    let (_, program) = programs(n);
    let (world, spec) = (world(), spec());
    allocations(|| {
        let recording = record(program, &world, &spec);
        std::hint::black_box(&recording);
    })
}

/// The replayed slave alone: the recording is made outside the count.
fn replayed(n: u64) -> u64 {
    let (_, program) = programs(n);
    let (world, spec) = (world(), spec());
    let recording = record(program, &world, &spec);
    allocations(|| {
        let report = replay(&recording, &spec);
        assert!(
            report.causality.is_empty(),
            "an identity run finds no causality"
        );
    })
}

/// What the second 1,000 writes add to a run's allocations.
fn per_thousand(run: impl Fn(u64) -> u64) -> u64 {
    // A warm-up run, so one-time initialization counts in neither.
    run(1);
    run(2000).saturating_sub(run(1000))
}

#[test]
fn a_native_write_allocates_nothing() {
    let extra = per_thousand(native);
    assert!(extra <= 4, "1,000 native writes allocated {extra} times");
}

#[test]
fn a_recorded_write_allocates_nothing_but_its_log() {
    let extra = per_thousand(recorded);
    assert!(extra <= 16, "1,000 recorded writes allocated {extra} times");
}

#[test]
fn a_replayed_write_allocates_nothing() {
    let extra = per_thousand(replayed);
    assert!(extra <= 4, "1,000 replayed writes allocated {extra} times");
}
