//! Property-based tests over randomly generated programs (DESIGN.md
//! invariants I1/I2/I5).
//!
//! The generator (`ldx_workloads::random_program_source`) produces
//! structured programs with branches, syscall-bearing loops, and helper
//! calls; the properties must hold for *every* shape:
//!
//! * **static counter consistency** — after instrumentation, the counter
//!   value at every block is path-independent and returns end at `FCNT`;
//! * **identity quiescence** — dual execution with an identity mutation
//!   shares every outcome and reports nothing;
//! * **alignment soundness under mutation** — a real mutation may cause
//!   divergence but never deadlocks, never traps the engine, and the
//!   executions always terminate.

use ldx_dualex::{dual_execute, DualSpec, Mutation, SinkSpec, SourceSpec};
use ldx_runtime::ExecConfig;
use ldx_vos::VosConfig;
use ldx_workloads::{random_program_source, GeneratorConfig};
use proptest::prelude::*;
use std::sync::Arc;

fn world(value: &str) -> VosConfig {
    VosConfig::new()
        .file("/gen/input", value.to_string())
        .dir("/gen")
}

fn build(seed: u64) -> Arc<ldx_ir::IrProgram> {
    let src = random_program_source(seed, &GeneratorConfig::default());
    let resolved = ldx_lang::compile(&src).expect("generated programs compile");
    Arc::new(ldx_instrument::instrument(&ldx_ir::lower(&resolved)).into_program())
}

fn spec(mutation: Mutation) -> DualSpec {
    DualSpec {
        sources: vec![SourceSpec {
            matcher: ldx_dualex::SourceMatcher::FileRead("/gen/input".into()),
            mutation,
        }],
        sinks: SinkSpec::FileOut,
        exec: ExecConfig {
            max_steps: 5_000_000,
            ..ExecConfig::default()
        },
        ..DualSpec::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    #[test]
    fn static_counter_consistency(seed in 0u64..5000) {
        let src = random_program_source(seed, &GeneratorConfig::default());
        let resolved = ldx_lang::compile(&src).expect("generated programs compile");
        let ip = ldx_instrument::instrument(&ldx_ir::lower(&resolved));
        ldx_instrument::check_counter_consistency(&ip)
            .unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
    }

    #[test]
    fn identity_mutation_is_quiet(seed in 0u64..2000, input in 0i64..1000) {
        let program = build(seed);
        let report = dual_execute(program, &world(&input.to_string()), &spec(Mutation::Identity));
        prop_assert!(report.master.is_ok(), "seed {seed}: {:?}", report.master);
        prop_assert!(report.slave.is_ok(), "seed {seed}: {:?}", report.slave);
        prop_assert!(!report.leaked(), "seed {seed}: {:?}", report.causality);
        prop_assert_eq!(report.syscall_diffs, 0);
        prop_assert_eq!(report.decoupled, 0);
        prop_assert_eq!(report.timeouts, 0, "a coupling wait timed out");
    }

    #[test]
    fn mutation_never_wedges_the_engine(seed in 0u64..2000, input in 0i64..1000) {
        let program = build(seed);
        let report = dual_execute(
            program,
            &world(&input.to_string()),
            &spec(Mutation::OffByOne),
        );
        // Both executions terminate normally whatever paths the mutation
        // flips; divergence shows up as tolerated syscall differences.
        prop_assert!(report.master.is_ok(), "seed {seed}: {:?}", report.master);
        prop_assert!(report.slave.is_ok(), "seed {seed}: {:?}", report.slave);
        prop_assert_eq!(report.timeouts, 0, "a coupling wait timed out");
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 12,
        .. ProptestConfig::default()
    })]

    /// Dual execution of a deterministic (single-threaded) program is
    /// itself deterministic: two runs with the same spec agree on the
    /// verdict, the tainted-sink count, and the sharing statistics.
    #[test]
    fn dual_execution_is_deterministic(seed in 0u64..600, input in 0i64..400) {
        let program = build(seed);
        let w = world(&input.to_string());
        let s = spec(Mutation::OffByOne);
        let a = dual_execute(Arc::clone(&program), &w, &s);
        let b = dual_execute(Arc::clone(&program), &w, &s);
        prop_assert_eq!(a.leaked(), b.leaked());
        prop_assert_eq!(a.tainted_sinks(), b.tainted_sinks());
        prop_assert_eq!(a.shared, b.shared);
        prop_assert_eq!(a.syscall_diffs, b.syscall_diffs);
        prop_assert_eq!(a.decoupled, b.decoupled);
    }

    /// Enforcement mode changes timing, never verdicts.
    #[test]
    fn enforcement_mode_preserves_verdicts(seed in 0u64..400, input in 0i64..300) {
        let program = build(seed);
        let w = world(&input.to_string());
        let detection = spec(Mutation::OffByOne);
        let mut enforcement = detection.clone();
        enforcement.enforcement = true;
        let d = dual_execute(Arc::clone(&program), &w, &detection);
        let e = dual_execute(Arc::clone(&program), &w, &enforcement);
        prop_assert_eq!(d.leaked(), e.leaked(), "seed {}", seed);
        prop_assert_eq!(d.tainted_sinks(), e.tainted_sinks(), "seed {}", seed);
    }

    /// The mutation's effect must be *monotone in detection*: if the
    /// mutated input produces exactly the same final output file as the
    /// original (checked natively), LDX must not report; if the outputs
    /// differ, it must report.
    #[test]
    fn detection_matches_native_output_difference(seed in 0u64..800, input in 0i64..500) {
        use ldx_runtime::{run_program, NativeHooks};
        use ldx_vos::Vos;

        let program = build(seed);
        let original = input.to_string();
        let mutated = match Mutation::OffByOne.apply(&ldx_runtime::Value::str(original.as_str())) {
            ldx_runtime::Value::Str(s) => s,
            _ => unreachable!(),
        };

        let native_out = |input: &str| {
            let vos = Arc::new(Vos::new(&world(input)));
            let hooks = Arc::new(NativeHooks::new(Arc::clone(&vos)));
            run_program(Arc::clone(&program), hooks, ExecConfig::default()).expect("runs");
            vos.file_contents("/gen/out").unwrap_or_default()
        };
        let out_original = native_out(&original);
        let out_mutated = native_out(&mutated);

        let report = dual_execute(
            Arc::clone(&program),
            &world(&original),
            &spec(Mutation::OffByOne),
        );
        prop_assert_eq!(
            report.leaked(),
            out_original != out_mutated,
            "seed {}: outputs {:?} vs {:?}, records {:?}",
            seed, out_original, out_mutated, report.causality
        );
    }
}
