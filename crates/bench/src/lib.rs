//! Shared helpers for the LDX benchmark harness.
//!
//! The `src/bin/` binaries regenerate the paper's evaluation artifacts:
//!
//! | binary                  | paper artifact |
//! |-------------------------|----------------|
//! | `table1`                | Table 1 — benchmarks & instrumentation |
//! | `table2`                | Table 2 — dual-execution effectiveness vs TightLip |
//! | `table3`                | Table 3 — tainted sinks: LDX vs TAINTGRIND vs LIBDFT |
//! | `table4`                | Table 4 — concurrent programs, 100-run variance |
//! | `figure6`               | Figure 6 — normalized overhead of LDX |
//! | `ablation_mutation`     | §8.3 input-mutation strategy study |
//! | `ablation_compensation` | DESIGN.md ablation: counters without compensation |
//! | `explain_corpus`        | `ldx explain` provenance reports over the corpus |
//!
//! These binaries print the paper's tables and figures. Comparing
//! performance across commits is the job of the `ldxperf` benchmark
//! (`ldxperf/README.md`), which measures parent and change on one host.

use ldx_dualex::{dual_execute, DualReport, DualSpec};
use ldx_ir::IrProgram;
use ldx_runtime::{run_program, ExecConfig, NativeHooks, RunOutcome, Trap};
use ldx_vos::{Vos, VosConfig};
use ldx_workloads::Workload;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Times one closure invocation.
fn time_it<T>(f: impl FnOnce() -> T) -> (Duration, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed(), out)
}

/// Runs a program natively (single execution) and times it.
pub fn run_native_timed(
    program: &Arc<IrProgram>,
    world: &VosConfig,
) -> (Duration, Result<RunOutcome, Trap>) {
    let vos = Arc::new(Vos::new(world));
    let hooks = Arc::new(NativeHooks::new(vos));
    let program = Arc::clone(program);
    time_it(move || run_program(program, hooks, ExecConfig::default()))
}

/// Runs a dual execution and times it.
pub fn run_dual_timed(
    program: &Arc<IrProgram>,
    world: &VosConfig,
    spec: &DualSpec,
) -> (Duration, DualReport) {
    let program = Arc::clone(program);
    time_it(move || dual_execute(program, world, spec))
}

/// The median of repeated duration samples from `f`.
pub fn median_duration(reps: usize, mut f: impl FnMut() -> Duration) -> Duration {
    let mut samples: Vec<Duration> = (0..reps.max(1)).map(|_| f()).collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// Arithmetic mean.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Geometric mean (of positive values).
pub fn geomean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    (xs.iter().map(|x| x.max(1e-12).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Sample standard deviation.
pub fn stddev(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    (xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64).sqrt()
}

/// Scales a workload's world so that its runtime is long enough for
/// meaningful overhead measurement (the corpus defaults are sized for fast
/// correctness tests). Returns `None` for workloads whose input shape
/// cannot be scaled mechanically.
pub fn scaled_world(w: &Workload) -> Option<VosConfig> {
    let mut world = w.world.clone();
    match w.name {
        "minzip" => {
            let mut data = String::new();
            for i in 0..200 {
                let c = char::from(b'a' + (i % 26) as u8);
                for _ in 0..(i % 17 + 1) {
                    data.push(c);
                }
            }
            world.set_file("/data/input.txt", data);
        }
        "minhmm" => {
            let a: String = (0..160)
                .map(|i| "ACGT".chars().nth(i % 4).unwrap())
                .collect();
            let b: String = (0..160)
                .map(|i| "ACGT".chars().nth((i * 7 + 1) % 4).unwrap())
                .collect();
            world.set_file("/data/seqs.txt", format!("{a}\n{b}\n"));
        }
        "minh264" => {
            let mut frames = String::new();
            for r in 0..60 {
                for c in 0..32 {
                    frames.push(char::from(b'a' + ((r * 13 + c * 7) % 26) as u8));
                }
                frames.push('\n');
            }
            world.set_file("/data/frames.txt", frames);
        }
        "minflow" => {
            let mut graph = String::from("24\n");
            for i in 0..90 {
                graph.push_str(&format!("{} {} {}\n", i % 24, (i * 5 + 3) % 24, i % 11 + 1));
            }
            world.set_file("/data/graph.txt", graph);
        }
        "minxform" => {
            let mut doc = String::new();
            for i in 0..60 {
                doc.push_str(&format!("<t{i}>node {i} body</t{i}>"));
            }
            world.set_file("/data/doc.xml", doc);
        }
        "minperl" => {
            let mut script = String::new();
            for i in 0..120 {
                script.push_str(&format!(
                    "set v{} {}\nadd v{} {}\nprint v{}\n",
                    i % 9,
                    i,
                    i % 9,
                    i * 3,
                    i % 9
                ));
            }
            world.set_file("/scripts/job.pl", script);
        }
        "minquantum" => {
            let mut gates = String::new();
            for i in 0..100 {
                let g = ["x", "h", "cz"][i % 3];
                gates.push_str(&format!("{g} {}\n", i % 8));
            }
            world.set_file("/data/gates.txt", gates);
        }
        "minsim" => {
            let mut events = String::new();
            for i in 0..90 {
                let kind = if i % 3 == 0 { "depart" } else { "arrive" };
                events.push_str(&format!("{kind} {}\n", i % 7 + 1));
            }
            world.set_file("/data/events.txt", events);
        }
        "minhttpd" => {
            let requests: Vec<String> = (0..60)
                .map(|i| {
                    if i % 3 == 0 {
                        "GET /admin.html".to_string()
                    } else {
                        "GET /index.html".to_string()
                    }
                })
                .collect();
            world.listen.clear();
            world.listen.push((8080, requests));
        }
        _ => return None,
    }
    Some(world)
}

/// The perf-measurement subset: the paper measures "programs that are not
/// interactive and have non-trivial execution time" — here, the workloads
/// with a scaled world.
pub fn perf_workloads() -> Vec<(Workload, VosConfig)> {
    ldx_workloads::corpus()
        .into_iter()
        .filter_map(|w| scaled_world(&w).map(|world| (w, world)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn statistics_helpers() {
        assert_eq!(mean(&[1.0, 3.0]), 2.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-9);
        assert!(stddev(&[2.0, 2.0, 2.0]) < 1e-12);
        assert!(stddev(&[1.0, 3.0]) > 0.9);
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(geomean(&[]), 0.0);
    }

    #[test]
    fn perf_workloads_run_scaled() {
        let subset = perf_workloads();
        assert!(subset.len() >= 8, "need a meaningful perf subset");
        for (w, world) in subset {
            let program = w.program();
            let (_, out) = run_native_timed(&program, &world);
            let out = out.unwrap_or_else(|e| panic!("scaled `{}` traps: {e}", w.name));
            assert!(
                out.stats.syscalls >= 15 || out.stats.steps >= 3_000,
                "scaled `{}` still trivial ({} syscalls, {} steps)",
                w.name,
                out.stats.syscalls,
                out.stats.steps
            );
        }
    }

    #[test]
    fn median_duration_is_stable() {
        let d = median_duration(3, || Duration::from_millis(1));
        assert_eq!(d, Duration::from_millis(1));
    }
}
