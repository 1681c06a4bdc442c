//! Quickstart: detect an information leak with LDX.
//!
//! The program below sends a message whose *content* depends on a secret
//! only through a branch — there is no data flow from the secret to the
//! output, so classic taint tracking sees nothing. LDX runs the program
//! twice (mutating the secret in the second run), keeps the executions
//! aligned with its progress counter, and reports the sink difference.
//!
//! Run: `cargo run --example quickstart`

use ldx::vos::{PeerBehavior, VosConfig};
use ldx::{Analysis, SourceSpec};

fn main() -> Result<(), ldx::Error> {
    let analysis = Analysis::for_source(
        r#"
        fn main() {
            let fd = open("/etc/token", 0);
            let secret = trim(read(fd, 16));
            close(fd);

            let msg = "ping";
            if (secret == "hunter2") {
                msg = "pong";            // control dependence only!
            }
            send(connect("api.example"), msg);
        }
        "#,
    )?
    .world(
        VosConfig::new()
            .file("/etc/token", "hunter2")
            .peer("api.example", PeerBehavior::Echo),
    )
    .source(SourceSpec::file("/etc/token"))
    .recorded();

    println!("instrumentation:");
    println!("{}", analysis.instrumentation_report());

    let report = analysis.run();
    println!("alignment trace:");
    for line in report.trace_lines() {
        println!("  {line}");
    }
    println!();
    if report.leaked() {
        println!("LEAK DETECTED:");
        for record in &report.causality {
            println!("  {record}");
        }
    } else {
        println!("no causality between the secret and the outputs");
    }
    println!(
        "\nstats: {} outcomes shared, {} decoupled, {} syscall diffs",
        report.shared, report.decoupled, report.syscall_diffs
    );
    Ok(())
}
