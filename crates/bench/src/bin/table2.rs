//! Regenerates paper **Table 2**: effectiveness of dual execution.
//!
//! For every SPEC-like and network/system workload, two mutations run:
//! Input 1 (expected to leak) and Input 2 (expected benign; `-` when no
//! benign mutation exists — the paper's numerical programs). Verdicts are
//! `O` (leak reported) / `X` (no warning). The TightLip baseline is run on
//! the same pairs: its inability to align through path differences makes
//! it report `O` for the benign inputs too. The last columns count the
//! syscall differences LDX tolerated and their fraction of the master's
//! dynamic syscalls.
//!
//! Rows (each a leak + benign + two TightLip runs) execute on the batch
//! engine's pool and print in submission order — byte-identical to a
//! sequential run.
//!
//! Run: `cargo run -p ldx-bench --bin table2`

use ldx::{BatchEngine, InstrumentCache};
use ldx_baselines::tightlip_execute;
use ldx_dualex::dual_execute;
use ldx_runtime::ExecConfig;
use ldx_workloads::{by_suite, Suite};

fn verdict(leak: bool) -> &'static str {
    if leak {
        "O"
    } else {
        "X"
    }
}

fn main() {
    let (_args, obs_args) = ldx::obs::parse_obs_args(std::env::args().skip(1).collect());
    ldx::obs::init(&obs_args);
    println!(
        "{:<10} {:>6} {:>6} {:>9} {:>9} {:>12} {:>8}",
        "program", "ldx-1", "ldx-2", "tightlip1", "tightlip2", "sys-diffs", "diff%"
    );
    let mut workloads = by_suite(Suite::NetSys);
    workloads.extend(by_suite(Suite::SpecLike));

    let engine = BatchEngine::auto();
    let cache = InstrumentCache::new();
    let rows = engine.map_ordered(workloads, |w| {
        let program = cache.program(&w.source).expect("workload compiles");

        // Input 1: the leaking mutation.
        let r1 = dual_execute(program.clone(), &w.world, &w.dual_spec());
        let t1 = tightlip_execute(
            program.clone(),
            &w.world,
            &w.sources,
            &w.sinks,
            ExecConfig::default(),
        );

        // Input 2: the benign mutation, if one exists.
        let (ldx2, tl2, diffs, pct) = match w.benign_spec() {
            Some(spec) => {
                let r2 = dual_execute(program.clone(), &w.world, &spec);
                let t2 = tightlip_execute(
                    program.clone(),
                    &w.world,
                    spec.sources.as_slice(),
                    &w.sinks,
                    ExecConfig::default(),
                );
                let master_sys = r2
                    .master
                    .as_ref()
                    .map(|o| o.stats.syscalls)
                    .unwrap_or(0)
                    .max(1);
                let total_diffs = r2.syscall_diffs + r2.decoupled;
                (
                    verdict(r2.leaked()),
                    verdict(t2.reported),
                    total_diffs,
                    total_diffs as f64 * 100.0 / master_sys as f64,
                )
            }
            None => ("-", "-", 0, 0.0),
        };

        format!(
            "{:<10} {:>6} {:>6} {:>9} {:>9} {:>12} {:>7.2}%",
            w.name,
            verdict(r1.leaked()),
            ldx2,
            verdict(t1.reported),
            tl2,
            diffs,
            pct,
        )
    });

    for line in rows {
        println!("{line}");
    }
    println!(
        "\nexpected shape: LDX column 2 is X wherever a benign mutation exists, \
         while TightLip reports O for both inputs whenever the mutation \
         perturbs the syscall stream (paper §8.2)."
    );
    if let Err(e) = ldx::obs::finish(&obs_args) {
        eprintln!("could not write observability output: {e}");
    }
}
