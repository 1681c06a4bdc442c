//! The `ldx` command-line tool: run a causality analysis on an Lx program.
//!
//! ```console
//! $ ldx <program.lx> [experiment.ldx] [--attribute] [--strength] [--taint]
//!       [--explain] [--trace <out.json>] [--metrics <out.json>]
//! $ ldx analyze <program.lx> [--json <out.json>] [--dot <out.dot>]
//! $ ldx explain <program.lx> [experiment.ldx] [--json <out.json>]
//! ```
//!
//! The experiment file describes the world (files, peers, clients) and the
//! analysis (sources, sinks, the trace flag); see [`ldx::specfile`]
//! for the format. Without one, the program runs in an empty world with
//! the default sink specification. With `trace`, the run's event stream
//! is recorded and printed as the alignment trace (`trace:` lines, master
//! then slave).
//!
//! `--attribute` runs one dual execution per source, and `--strength` one
//! per probe of the first source. The `analyze` subcommand runs only the
//! static analysis (`ldx-sdep`) and emits the dependence graph and
//! per-site reachability as JSON (the shape of `schemas/sdep_schema.json`;
//! stdout by default, or `--json`) and Graphviz DOT (`--dot`). See
//! `docs/ANALYSIS.md`.
//!
//! The `explain` subcommand runs the per-source attribution with the
//! flight recorder on and emits the causal provenance chains (mutated
//! source → first decoupled/compared syscall → tainted resources →
//! diverging sink, cross-referenced against the static PDG path) as
//! deterministic JSON (`schemas/explain_schema.json`; stdout by default,
//! or `--json`). `--explain` on the default path prints the terminal
//! rendering after the run; with `--attribute` too, the verdicts and the
//! chains are views of the same attribution runs. See
//! `docs/OBSERVABILITY.md`.
//!
//! `--trace` writes a Chrome `trace_event` JSON of the run (open in
//! Perfetto); `--metrics` writes the flat metrics dump. See
//! `docs/OBSERVABILITY.md`.
//!
//! Exit codes: 0 no causality, 1 causality detected, 2 usage or input
//! error (an unknown flag included), 3 a coupling wait of the run or of
//! an attribution run behind `--attribute`/`--explain`/`explain` was
//! released by the safety valve (`MAX_WAIT` or the stop signal) instead
//! of by its peer.

use ldx::obs;
use ldx::specfile::parse_experiment;
use ldx::{Analysis, DualReport};
use std::process::ExitCode;

/// The error for coupling waits the safety valve released instead of the
/// peer, summed over every dual run behind a verdict; `None` when every
/// wait was released by its peer.
fn valve_error<'a>(reports: impl IntoIterator<Item = &'a DualReport>) -> Option<String> {
    let released: u64 = reports.into_iter().map(|r| r.timeouts).sum();
    (released > 0).then(|| {
        format!(
            "error: {released} coupling wait(s) released by the safety valve; \
             the verdict may be incomplete"
        )
    })
}

/// `ldx analyze <program.lx> [--json <path>] [--dot <path>]`: static
/// analysis only, no execution.
fn run_analyze(args: &[String], obs_args: &obs::ObsArgs) -> ExitCode {
    let mut program_path = None;
    let mut json_path = None;
    let mut dot_path = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json_path = it.next(),
            "--dot" => dot_path = it.next(),
            _ if !arg.starts_with("--") && program_path.is_none() => program_path = Some(arg),
            _ => {
                eprintln!("usage: ldx analyze <program.lx> [--json <out.json>] [--dot <out.dot>]");
                return ExitCode::from(2);
            }
        }
    }
    let Some(program_path) = program_path else {
        eprintln!("usage: ldx analyze <program.lx> [--json <out.json>] [--dot <out.dot>]");
        return ExitCode::from(2);
    };
    let source = match std::fs::read_to_string(program_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {program_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let analysis = match Analysis::for_source(&source) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{program_path}: {e}");
            return ExitCode::from(2);
        }
    };
    let program = analysis.program();
    let sdep = analysis.static_analysis();
    let json = ldx::sdep::analysis_to_json(&program, &sdep, program_path);
    match json_path {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::from(2);
            }
        }
        None => print!("{json}"),
    }
    if let Some(path) = dot_path {
        let dot = ldx::sdep::pdg_to_dot(&program, &sdep);
        if let Err(e) = std::fs::write(path, &dot) {
            eprintln!("cannot write {path}: {e}");
            return ExitCode::from(2);
        }
    }
    if let Err(e) = obs::finish(obs_args) {
        eprintln!("cannot write observability output: {e}");
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}

/// Compiles `program_path` and applies `experiment_path` (when given),
/// printing a diagnostic and returning an exit code on failure.
fn build_analysis(program_path: &str, experiment_path: Option<&str>) -> Result<Analysis, ExitCode> {
    let source = match std::fs::read_to_string(program_path) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot read {program_path}: {e}");
            return Err(ExitCode::from(2));
        }
    };
    let mut analysis = match Analysis::for_source(&source) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{program_path}: {e}");
            return Err(ExitCode::from(2));
        }
    };
    if let Some(experiment_path) = experiment_path {
        let experiment_text = match std::fs::read_to_string(experiment_path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("cannot read {experiment_path}: {e}");
                return Err(ExitCode::from(2));
            }
        };
        let experiment = match parse_experiment(&experiment_text) {
            Ok(e) => e,
            Err(e) => {
                eprintln!("{experiment_path}: {e}");
                return Err(ExitCode::from(2));
            }
        };
        analysis = analysis.world(experiment.world);
        for s in experiment.spec.sources {
            analysis = analysis.source(s);
        }
        analysis = analysis.sinks(experiment.spec.sinks);
        if experiment.spec.record {
            analysis = analysis.recorded();
        }
    }
    Ok(analysis)
}

/// `ldx explain <program.lx> [experiment.ldx] [--json <path>]`: causal
/// provenance chains as deterministic JSON (stdout unless `--json`), with
/// the terminal rendering on stderr.
fn run_explain(args: &[String], obs_args: &obs::ObsArgs) -> ExitCode {
    const USAGE: &str = "usage: ldx explain <program.lx> [experiment.ldx] [--json <out.json>]";
    let mut files = Vec::new();
    let mut json_path = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--json" => json_path = it.next(),
            _ if !arg.starts_with("--") && files.len() < 2 => files.push(arg.as_str()),
            _ => {
                eprintln!("{USAGE}");
                return ExitCode::from(2);
            }
        }
    }
    let Some(&program_path) = files.first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    let analysis = match build_analysis(program_path, files.get(1).copied()) {
        Ok(a) => a,
        Err(code) => return code,
    };
    let attributions = analysis.clone().recorded().attribute_sources();
    let report = analysis.explain_attributions(&attributions, program_path);
    eprint!("{}", report.render_text());
    let json = report.to_json();
    match json_path {
        Some(path) => {
            if let Err(e) = std::fs::write(path, &json) {
                eprintln!("cannot write {path}: {e}");
                return ExitCode::from(2);
            }
        }
        None => print!("{json}"),
    }
    if let Err(e) = obs::finish(obs_args) {
        eprintln!("cannot write observability output: {e}");
        return ExitCode::from(2);
    }
    if let Some(err) = valve_error(attributions.iter().map(|a| &a.report)) {
        eprintln!("{err}");
        return ExitCode::from(3);
    }
    ExitCode::from(u8::from(report.any_causal()))
}

/// The flags of the default path (the observability flags are stripped
/// before).
const FLAGS: &[&str] = &["--attribute", "--strength", "--taint", "--explain"];

/// Splits the default path's arguments into the program, the experiment
/// and the flags; `None` (a usage error) for an unknown flag or a wrong
/// number of files.
fn default_args(args: &[String]) -> Option<(&str, Option<&str>, Vec<&str>)> {
    let (flags, files): (Vec<&str>, Vec<&str>) = args
        .iter()
        .map(String::as_str)
        .partition(|a| a.starts_with("--"));
    if flags.iter().any(|f| !FLAGS.contains(f)) {
        return None;
    }
    match files.as_slice() {
        [program] => Some((program, None, flags)),
        [program, experiment] => Some((program, Some(experiment), flags)),
        _ => None,
    }
}

const USAGE: &str =
    "usage: ldx <program.lx> [experiment.ldx] [--attribute] [--strength] [--taint] \
     [--explain] [--trace <out.json>] [--metrics <out.json>]\n\
     \x20      ldx analyze <program.lx> [--json <out.json>] [--dot <out.dot>]\n\
     \x20      ldx explain <program.lx> [experiment.ldx] [--json <out.json>]";

fn main() -> ExitCode {
    let (args, obs_args) = obs::cli_args(USAGE);
    obs::init(&obs_args);
    if args.first().map(String::as_str) == Some("analyze") {
        return run_analyze(&args[1..], &obs_args);
    }
    if args.first().map(String::as_str) == Some("explain") {
        return run_explain(&args[1..], &obs_args);
    }
    let Some((program_path, experiment_path, flags)) = default_args(&args) else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };

    let mut analysis = match build_analysis(program_path, experiment_path) {
        Ok(a) => a,
        Err(code) => return code,
    };

    let instr = analysis.instrumentation_report();
    obs::counter_add(
        "instrument.original_instrs",
        instr.total_original_instrs() as u64,
    );
    obs::counter_add("instrument.added_instrs", instr.total_added_instrs() as u64);
    obs::counter_add("instrument.loops", instr.total_loops() as u64);
    obs::counter_max("instrument.max_cnt", instr.max_cnt);

    // The explained chains need the flight log, so with `--explain` the
    // flight recorder is on for the run and every attribution behind it.
    // Only an experiment's `trace` prints the run's log.
    let traced = analysis.spec().record;
    let explain = flags.contains(&"--explain");
    if explain {
        analysis = analysis.recorded();
    }
    let report = analysis.run();
    if traced {
        for line in report.trace_lines() {
            println!("trace: {line}");
        }
    }
    println!(
        "shared={} decoupled={} syscall_diffs={} master_sinks={}",
        report.shared, report.decoupled, report.syscall_diffs, report.master_sinks
    );

    // One attribution serves both flags, so every explained chain belongs
    // to the verdict printed beside it.
    let attributions = if explain || flags.contains(&"--attribute") {
        analysis.attribute_sources()
    } else {
        Vec::new()
    };
    if flags.contains(&"--attribute") {
        for attr in &attributions {
            println!(
                "source #{} {:?}: {}",
                attr.index,
                attr.source.matcher,
                if attr.causal { "CAUSAL" } else { "inert" }
            );
        }
    }
    if flags.contains(&"--taint") {
        for policy in [
            ldx::TaintPolicy::TaintGrindLike,
            ldx::TaintPolicy::LibDftLike,
        ] {
            let t = analysis.run_taint(policy);
            println!(
                "{}: {} / {} sinks tainted",
                policy.name(),
                t.tainted_sink_instances,
                t.total_sink_instances
            );
        }
    }
    if flags.contains(&"--strength") {
        let s = analysis.causal_strength(&[]);
        println!(
            "strength: {}/{} probes observable (score {:.2})",
            s.flipped,
            s.probed,
            s.score()
        );
    }
    if explain {
        let report = analysis.explain_attributions(&attributions, program_path);
        print!("{}", report.render_text());
    }

    if let Err(e) = obs::finish(&obs_args) {
        eprintln!("cannot write observability output: {e}");
        return ExitCode::from(2);
    }

    if report.leaked() {
        println!("CAUSALITY DETECTED ({} records):", report.causality.len());
        for c in &report.causality {
            println!("  {c}");
        }
    } else {
        println!("no causality between the configured sources and sinks");
    }
    let runs = std::iter::once(&report).chain(attributions.iter().map(|a| &a.report));
    if let Some(err) = valve_error(runs) {
        eprintln!("{err}");
        return ExitCode::from(3);
    }
    ExitCode::from(u8::from(report.leaked()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldx::{FlightLog, Trap};

    fn report(timeouts: u64) -> DualReport {
        DualReport {
            causality: vec![],
            master: Err(Trap::DivisionByZero),
            slave: Err(Trap::DivisionByZero),
            syscall_diffs: 0,
            shared: 0,
            decoupled: 0,
            master_sinks: 0,
            timeouts,
            flight: FlightLog::default(),
        }
    }

    #[test]
    fn unknown_flags_are_a_usage_error() {
        let args = |a: &[&str]| a.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        let known = args(&[&["p.lx", "e.ldx"], FLAGS].concat());
        let parsed = Some(("p.lx", Some("e.ldx"), FLAGS.to_vec()));
        assert_eq!(default_args(&known), parsed);
        assert_eq!(default_args(&args(&["p.lx"])), Some(("p.lx", None, vec![])));
        for unknown in ["--atribute", "--prune", "--"] {
            assert_eq!(default_args(&args(&["p.lx", unknown])), None, "{unknown}");
        }
        assert_eq!(default_args(&args(&[])), None);
        assert_eq!(default_args(&args(&["a", "b", "c"])), None);
    }

    #[test]
    fn valve_releases_are_an_error() {
        assert_eq!(valve_error([&report(0), &report(0)]), None);
        assert_eq!(valve_error([]), None);
        assert_eq!(
            valve_error([&report(0), &report(2), &report(1)]).as_deref(),
            Some(
                "error: 3 coupling wait(s) released by the safety valve; \
                 the verdict may be incomplete"
            )
        );
    }
}
