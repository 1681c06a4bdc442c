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
//!   executions always terminate;
//! * **schedule independence** — running the slave after the master on
//!   one OS thread gives the report of running both concurrently, for
//!   generated programs and for the corpus without Lx threads;
//! * **replay equivalence** — slaves with different mutations replayed,
//!   in any order, against one recorded master report what fresh dual
//!   executions do, and with the flight recorder on
//!   a replay logs what a one-thread run logs;
//! * **shared-master equivalence** — every job of a batch whose jobs share
//!   masters (live slaves of one master on one worker; a master per job on
//!   two) reports what a dedicated dual execution of its spec does, trace
//!   lines included when the flight recorder is on;
//! * **array value semantics** — straight-line `set`/`push`/copy programs
//!   over three array variables print what a Rust model of Lx arrays
//!   prints, however the interpreter shares or updates arrays in place.

use ldx::{BatchEngine, BatchJob};
use ldx_dualex::{
    dual_execute, record, replay, DualReport, DualSpec, Mutation, SinkSpec, SourceSpec,
};
use ldx_runtime::ExecConfig;
use ldx_vos::VosConfig;
use ldx_workloads::{random_program_source, GeneratorConfig, Suite};
use proptest::prelude::*;
use std::sync::Arc;

/// A way to run one dual execution.
type Run = fn(Arc<ldx_ir::IrProgram>, &VosConfig, &DualSpec) -> DualReport;

/// The two ways: master and slave at once on two threads, and the slave
/// after the master on one.
const SCHEDULES: [(&str, Run); 2] = [("two threads", dual_execute), ("one thread", one_thread)];

fn one_thread(program: Arc<ldx_ir::IrProgram>, config: &VosConfig, spec: &DualSpec) -> DualReport {
    replay(&record(program, config, spec), spec)
}

/// Everything a report says about the two executions (the flight log
/// aside: its progress deltas are how far the master had run ahead).
fn verdict(r: &DualReport) -> String {
    format!(
        "records={:?} shared={} decoupled={} diffs={} master_sinks={} timeouts={} \
         master={:?} slave={:?}",
        r.causality
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>(),
        r.shared,
        r.decoupled,
        r.syscall_diffs,
        r.master_sinks,
        r.timeouts,
        r.master,
        r.slave,
    )
}

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

/// The mutations replayed against one recording.
const REPLAYED: [Mutation; 4] = [
    Mutation::OffByOne,
    Mutation::BitFlip,
    Mutation::Zero,
    Mutation::Identity,
];

/// Replays every spec against one recording of the first one's master,
/// forwards and backwards, and checks each report against a fresh dual
/// execution; returns the first mismatch.
fn replays_match_fresh_runs(
    program: &Arc<ldx_ir::IrProgram>,
    w: &VosConfig,
    specs: &[DualSpec],
) -> Result<(), String> {
    let fresh: Vec<String> = specs
        .iter()
        .map(|s| verdict(&dual_execute(Arc::clone(program), w, s)))
        .collect();
    let recording = record(Arc::clone(program), w, &specs[0]);
    let forwards: Vec<usize> = (0..specs.len()).collect();
    for order in [forwards.clone(), forwards.into_iter().rev().collect()] {
        for i in order {
            let replayed = verdict(&replay(&recording, &specs[i]));
            if replayed != fresh[i] {
                return Err(format!(
                    "{:?}:\nreplayed {replayed}\nfresh    {}",
                    specs[i].sources, fresh[i]
                ));
            }
        }
    }
    Ok(())
}

/// With the flight recorder on, each of two replays against one recording
/// logs what a one-thread run of the same spec logs: a replay leaves the
/// recording as it found it.
fn replayed_flight_log_matches(
    program: &Arc<ldx_ir::IrProgram>,
    w: &VosConfig,
    spec: &DualSpec,
) -> Result<(), String> {
    let spec = spec.clone().recorded();
    let one = one_thread(Arc::clone(program), w, &spec);
    let recording = record(Arc::clone(program), w, &spec);
    for _ in 0..2 {
        let replayed = replay(&recording, &spec);
        if replayed.flight != one.flight {
            return Err(format!(
                "{:?}: flight logs differ\nreplayed {:?}\none-thread {:?}",
                spec.sources, replayed.flight, one.flight
            ));
        }
    }
    Ok(())
}

/// What a report shows: its `verdict`, and its trace lines (empty with
/// the flight recorder off).
fn shown(r: &DualReport) -> String {
    format!("{}\ntrace: {:?}", verdict(r), r.trace_lines())
}

/// Runs `jobs` as one batch at widths 1 and 2 (at width 1, jobs of one
/// program, world and sinks share a master), and checks every report against a
/// dedicated `dual_execute` of its job; returns the first mismatch.
fn shared_masters_match_dedicated_runs(jobs: &[BatchJob]) -> Result<(), String> {
    let dedicated: Vec<String> = jobs
        .iter()
        .map(|job| {
            shown(&dual_execute(
                Arc::clone(&job.program),
                &job.world,
                &job.spec,
            ))
        })
        .collect();
    for width in [1, 2] {
        let batch = BatchEngine::new(width).run(jobs.to_vec());
        for ((job, want), got) in jobs.iter().zip(&dedicated).zip(&batch.results) {
            let got = shown(&got.report);
            if got != *want {
                return Err(format!(
                    "width {width}, {} {:?}:\nbatched   {got}\ndedicated {want}",
                    job.label, job.spec.sources
                ));
            }
        }
    }
    Ok(())
}

/// One job per spec of `specs`, with the flight recorder off and on.
fn jobs_for(
    label: &str,
    program: &Arc<ldx_ir::IrProgram>,
    w: &VosConfig,
    specs: &[DualSpec],
) -> Vec<BatchJob> {
    let with_trace = specs.iter().map(|s| s.clone().recorded());
    specs
        .iter()
        .cloned()
        .chain(with_trace)
        .map(|s| BatchJob::new(label, Arc::clone(program), w.clone(), s))
        .collect()
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

/// The model of an Lx value that the array programs build.
#[derive(Clone)]
enum Model {
    Int(i64),
    Arr(Vec<Model>),
}

impl Model {
    fn size(&self) -> usize {
        match self {
            Model::Int(_) => 1,
            Model::Arr(elems) => 1 + elems.iter().map(Model::size).sum::<usize>(),
        }
    }
}

/// Lx's `str()` form.
impl std::fmt::Display for Model {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Model::Int(v) => write!(f, "{v}"),
            Model::Arr(elems) => {
                let parts: Vec<String> = elems.iter().map(ToString::to_string).collect();
                write!(f, "[{}]", parts.join(", "))
            }
        }
    }
}

/// A straight-line program over `v0`..`v2` that prints the written
/// variable after every statement and all three at the end, and what the
/// model says it prints. Each op is `(kind, x, y, k)`; an op whose index
/// `k` is out of bounds, or that would nest an array larger than 64
/// values, pushes `k` instead, so the program never traps and its output
/// stays small.
fn array_program(ops: &[(u8, usize, usize, i64)]) -> (String, String) {
    let mut vars = [
        vec![Model::Int(0)],
        vec![Model::Int(1), Model::Int(2)],
        vec![],
    ];
    let mut src = String::from(
        "fn main() {\n    let v0 = [0];\n    let v1 = [1, 2];\n    let v2 = array(0, 0);\n",
    );
    let mut expected = String::new();
    for &(kind, x, y, k) in ops {
        let i = k as usize;
        let nested = Model::Arr(vars[y].clone());
        let small = nested.size() <= 64;
        let stmt = match kind {
            0 if i < vars[x].len() => {
                vars[x][i] = Model::Int(k);
                format!("v{x} = set(v{x}, {i}, {k});")
            }
            1 if i < vars[x].len() && small => {
                vars[x][i] = nested;
                format!("v{x} = set(v{x}, {i}, v{y});")
            }
            2 if i < vars[y].len() => {
                vars[x] = vars[y].clone();
                vars[x][i] = Model::Int(k);
                format!("v{x} = set(v{y}, {i}, {k});")
            }
            3 if small => {
                vars[x].push(nested);
                format!("v{x} = push(v{x}, v{y});")
            }
            4 => {
                vars[x] = vars[y].clone();
                format!("v{x} = v{y};")
            }
            _ => {
                vars[x].push(Model::Int(k));
                format!("v{x} = push(v{x}, {k});")
            }
        };
        src += &format!("    {stmt} write(1, str(v{x}) + \";\");\n");
        expected += &format!("{};", Model::Arr(vars[x].clone()));
    }
    src += "    write(1, str(v0) + \"|\" + str(v1) + \"|\" + str(v2));\n}\n";
    let [a, b, c] = vars.map(Model::Arr);
    expected += &format!("{a}|{b}|{c}");
    (src, expected)
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 48,
        .. ProptestConfig::default()
    })]

    /// Arrays are values however the interpreter stores them: `set`,
    /// `push` and copies print what the model prints.
    #[test]
    fn array_updates_match_a_value_model(
        ops in proptest::collection::vec((0u8..6, 0usize..3, 0usize..3, 0i64..6), 1..40)
    ) {
        use ldx_runtime::{run_program, NativeHooks};
        use ldx_vos::Vos;

        let (src, expected) = array_program(&ops);
        let resolved = ldx_lang::compile(&src).expect("array programs compile");
        let program = ldx_instrument::instrument(&ldx_ir::lower(&resolved)).into_program();
        let vos = Arc::new(Vos::new(&VosConfig::new()));
        let hooks = Arc::new(NativeHooks::new(Arc::clone(&vos)));
        run_program(Arc::new(program), hooks, ExecConfig::default()).expect("runs");
        let printed = vos.file_contents("/dev/stdout").unwrap_or_default();
        prop_assert_eq!(printed, expected, "{}", src);
    }

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

    /// The mutation's effect must be *monotone in detection*: if the
    /// mutated input produces exactly the same final output file as the
    /// original (checked natively), LDX must not report; if the outputs
    /// differ, it must report. Under either schedule.
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

        for (schedule, run) in SCHEDULES {
            let report = run(Arc::clone(&program), &world(&original), &spec(Mutation::OffByOne));
            prop_assert_eq!(
                report.leaked(),
                out_original != out_mutated,
                "seed {} input {} {}: outputs {:?} vs {:?}, records {:?}",
                seed, input, schedule, out_original, out_mutated, report.causality
            );
        }
    }

    /// The one-thread schedule reports what the two-thread schedule does.
    #[test]
    fn one_thread_report_equals_two_thread_report(seed in 0u64..800, input in 0i64..500) {
        let program = build(seed);
        let w = world(&input.to_string());
        let s = spec(Mutation::OffByOne);
        let [two, one] = SCHEDULES.map(|(_, run)| verdict(&run(Arc::clone(&program), &w, &s)));
        prop_assert_eq!(two, one, "seed {} input {}", seed, input);
    }

    /// Slaves replayed against one recorded master report what fresh dual
    /// executions report.
    #[test]
    fn replayed_reports_equal_fresh_reports(seed in 0u64..800, input in 0i64..500) {
        let program = build(seed);
        let w = world(&input.to_string());
        let specs: Vec<DualSpec> = REPLAYED.iter().cloned().map(spec).collect();
        let checked = replays_match_fresh_runs(&program, &w, &specs);
        prop_assert!(checked.is_ok(), "seed {} input {}: {}", seed, input, checked.unwrap_err());
        let logged = replayed_flight_log_matches(&program, &w, &specs[0]);
        prop_assert!(logged.is_ok(), "seed {} input {}: {}", seed, input, logged.unwrap_err());
    }

    /// Jobs sharing a master in a batch report what dedicated dual
    /// executions report.
    #[test]
    fn shared_master_reports_equal_dedicated_reports(seed in 0u64..800, input in 0i64..500) {
        let program = build(seed);
        let w = world(&input.to_string());
        let specs: Vec<DualSpec> = REPLAYED.iter().cloned().map(spec).collect();
        let checked = shared_masters_match_dedicated_runs(&jobs_for("gen", &program, &w, &specs));
        prop_assert!(checked.is_ok(), "seed {} input {}: {}", seed, input, checked.unwrap_err());
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

    /// The flight recorder observes, never steers: a recorded run reaches
    /// the same verdict and the same protocol decisions as a plain one.
    #[test]
    fn recording_preserves_verdicts(seed in 0u64..400, input in 0i64..300) {
        let program = build(seed);
        let w = world(&input.to_string());
        let plain = spec(Mutation::OffByOne);
        let recorded = plain.clone().recorded();
        let p = dual_execute(Arc::clone(&program), &w, &plain);
        let r = dual_execute(Arc::clone(&program), &w, &recorded);
        prop_assert_eq!(p.leaked(), r.leaked(), "seed {}", seed);
        prop_assert_eq!(p.tainted_sinks(), r.tainted_sinks(), "seed {}", seed);
        prop_assert_eq!(p.shared, r.shared);
        prop_assert_eq!(p.syscall_diffs, r.syscall_diffs);
        prop_assert_eq!(p.decoupled, r.decoupled);
        prop_assert_eq!(p.timeouts + r.timeouts, 0);
    }
}

/// The replay properties over every corpus program without Lx threads:
/// its own spec, then every source under each replayed mutation.
#[test]
fn replayed_reports_equal_fresh_reports_on_the_corpus() {
    let corpus = ldx_workloads::corpus();
    for w in corpus.iter().filter(|w| w.suite != Suite::Concurrent) {
        let program = w.program();
        let base = w.dual_spec();
        let mutated = REPLAYED.iter().map(|mutation| DualSpec {
            sources: base
                .sources
                .iter()
                .map(|s| s.clone().with_mutation(mutation.clone()))
                .collect(),
            ..base.clone()
        });
        let specs: Vec<DualSpec> = std::iter::once(base.clone()).chain(mutated).collect();
        if let Err(e) = replays_match_fresh_runs(&program, &w.world, &specs) {
            panic!("{}: {e}", w.name);
        }
        if let Err(e) = replayed_flight_log_matches(&program, &w.world, &base) {
            panic!("{}: {e}", w.name);
        }
    }
}

/// The shared-master property over every corpus program without Lx
/// threads, all in one batch: its own spec, then every source under each
/// replayed mutation, each with the flight recorder off and on.
#[test]
fn shared_master_reports_equal_dedicated_reports_on_the_corpus() {
    let corpus = ldx_workloads::corpus();
    let mut jobs = Vec::new();
    for w in corpus.iter().filter(|w| w.suite != Suite::Concurrent) {
        let program = w.program();
        let base = w.dual_spec();
        let mutated = REPLAYED.iter().map(|mutation| DualSpec {
            sources: base
                .sources
                .iter()
                .map(|s| s.clone().with_mutation(mutation.clone()))
                .collect(),
            ..base.clone()
        });
        let specs: Vec<DualSpec> = std::iter::once(base.clone()).chain(mutated).collect();
        jobs.extend(jobs_for(w.name, &program, &w.world, &specs));
    }
    if let Err(e) = shared_masters_match_dedicated_runs(&jobs) {
        panic!("{e}");
    }
}

/// The schedule property over every corpus program without Lx threads,
/// with its own world, sources and sinks.
#[test]
fn one_thread_report_equals_two_thread_report_on_the_corpus() {
    let corpus = ldx_workloads::corpus();
    for w in corpus.iter().filter(|w| w.suite != Suite::Concurrent) {
        let [two, one] =
            SCHEDULES.map(|(_, run)| verdict(&run(w.program(), &w.world, &w.dual_spec())));
        assert_eq!(two, one, "{}", w.name);
    }
}
