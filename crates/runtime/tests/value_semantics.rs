//! Arrays are values: `x = set(x, …)` and `x = push(x, …)` update x's
//! array in place only while x holds the only reference to it, so no other
//! variable, argument, global, array element or thread sees the update.

use ldx_runtime::{run_program, ExecConfig, NativeHooks, Trap, Value};
use ldx_vos::{Vos, VosConfig};
use std::sync::Arc;

fn run(src: &str) -> Result<Value, Trap> {
    let program =
        ldx_instrument::instrument(&ldx_ir::lower(&ldx_lang::compile(src).unwrap())).into_program();
    let hooks = Arc::new(NativeHooks::new(Arc::new(Vos::new(&VosConfig::new()))));
    run_program(Arc::new(program), hooks, ExecConfig::default()).map(|out| out.result)
}

fn returns(src: &str, expected: &str) {
    assert_eq!(run(src), Ok(Value::str(expected)), "{src}");
}

#[test]
fn a_copy_keeps_the_old_array() {
    returns(
        r#"fn main() {
            let a = [1, 2];
            let b = a;
            a = set(a, 0, 9);
            a = push(a, 3);
            return str(b) + "|" + str(a);
        }"#,
        "[1, 2]|[9, 2, 3]",
    );
}

#[test]
fn an_argument_keeps_the_callers_array() {
    returns(
        r#"
        fn f(a) {
            a = set(a, 0, 9);
            a = push(a, 3);
            return a;
        }
        fn main() {
            let b = [1, 2];
            let c = f(b);
            return str(b) + "|" + str(c);
        }"#,
        "[1, 2]|[9, 2, 3]",
    );
}

#[test]
fn a_global_keeps_its_array() {
    returns(
        r#"
        global g = [1, 2];
        fn main() {
            let a = g;
            a = set(a, 0, 9);
            let b = g;
            g = set(g, 1, 8);
            return str(a) + "|" + str(b) + "|" + str(g);
        }"#,
        "[9, 2]|[1, 2]|[1, 8]",
    );
}

#[test]
fn an_element_keeps_its_array() {
    returns(
        r#"fn main() {
            let outer = [[1, 2], [3]];
            let a = outer[0];
            a = set(a, 0, 9);
            a = push(a, 4);
            return str(outer) + "|" + str(a);
        }"#,
        "[[1, 2], [3]]|[9, 2, 4]",
    );
}

#[test]
fn a_spawned_thread_keeps_its_array() {
    returns(
        r#"
        fn work(a) {
            a = set(a, 0, 9);
            a = push(a, 7);
            return str(a);
        }
        fn main() {
            let a = [1, 2];
            let t = spawn(&work, a);
            a = set(a, 1, 5);
            let r = join(t);
            return str(a) + "|" + r;
        }"#,
        "[1, 5]|[9, 2, 7]",
    );
}

#[test]
fn an_array_stored_into_itself_is_the_old_array() {
    returns(
        r#"fn main() {
            let x = [1, 2];
            x = set(x, 0, x);
            let y = [1, 2];
            y = push(y, y);
            return str(x) + "|" + str(y);
        }"#,
        "[[1, 2], 2]|[1, 2, [1, 2]]",
    );
}

#[test]
fn push_in_a_loop_keeps_every_element() {
    let out = run(r#"fn main() {
            let x = array(0, 0);
            for (let i = 0; i < 10000; i = i + 1) {
                x = push(x, i);
            }
            let ok = len(x) == 10000;
            for (let i = 0; i < 10000; i = i + 1) {
                if (x[i] != i) { ok = 0; }
            }
            return ok;
        }"#);
    assert_eq!(out, Ok(Value::Int(1)));
}

#[test]
fn an_out_of_bounds_set_traps_as_before() {
    for (index, src) in [
        (5, "fn main() { let x = [1, 2]; x = set(x, 5, 0); }"),
        (-1, "fn main() { let x = [1, 2]; x = set(x, -1, 0); }"),
        (2, "fn main() { let x = [1, 2]; let y = set(x, 2, 0); }"),
    ] {
        assert_eq!(
            run(src),
            Err(Trap::IndexOutOfBounds { index, len: 2 }),
            "{src}"
        );
    }
}
