//! The paper's illustrative figures as runnable cases.
//!
//! * Figure 1 (a)–(d): the four examples contrasting counterfactual
//!   causality with program dependences;
//! * Figure 2/3: the employee/raise running example;
//! * Figure 4/5: the nested-loop alignment example.

use ldx_dualex::{DualSpec, Mutation, SinkSpec, SourceSpec};
use ldx_vos::{PeerBehavior, VosConfig};

/// One figure case: a program, its world, its spec, and what LDX and the
/// dependence-based trackers are expected to conclude.
#[derive(Debug, Clone)]
pub struct FigureCase {
    /// Which figure/panel this is.
    pub name: &'static str,
    /// The Lx source.
    pub source: String,
    /// The world.
    pub world: VosConfig,
    /// The dual-execution spec.
    pub spec: DualSpec,
    /// Does LDX (counterfactual causality) report?
    pub ldx_reports: bool,
    /// Does data-dependence tainting report?
    pub data_taint_reports: bool,
    /// Does data+control tainting report?
    pub control_taint_reports: bool,
}

fn world(secret: &str) -> VosConfig {
    VosConfig::new()
        .file("/secret", secret.to_string())
        .peer("out", PeerBehavior::Echo)
}

fn spec_with(mutation: Mutation) -> DualSpec {
    DualSpec::with_source(SourceSpec::file("/secret").with_mutation(mutation))
        .sinks(SinkSpec::NetworkOut)
}

/// The four panels of Figure 1.
pub fn figure1_programs() -> Vec<FigureCase> {
    vec![
        // (a) Strong CC through a data dependence: everyone detects it.
        FigureCase {
            name: "fig1a-data-dep",
            source: r#"fn main() {
                let x = int(read(open("/secret", 0), 8));
                let t = x + 1;
                let y = t * 3;
                send(connect("out"), str(y));
            }"#
            .to_string(),
            world: world("41"),
            spec: spec_with(Mutation::OffByOne),
            ldx_reports: true,
            data_taint_reports: true,
            control_taint_reports: true,
        },
        // (b) Strong CC through a control dependence: one-to-one mapping
        // x -> s, but no data flow. Data tainting misses it.
        FigureCase {
            name: "fig1b-strong-control",
            source: r#"fn main() {
                let x = int(read(open("/secret", 0), 8));
                let s = 0;
                if (x % 2 == 1) { s = 10; } else { s = 20; }
                send(connect("out"), str(s));
            }"#
            .to_string(),
            world: world("1"),
            spec: spec_with(Mutation::OffByOne),
            ldx_reports: true,
            data_taint_reports: false,
            control_taint_reports: true,
        },
        // (c) Weak CC: many source values map to the same sink value
        // (x = s > 50). Control tainting reports it anyway (a useless
        // warning); LDX's off-by-one perturbation does not flip the
        // predicate, so it stays silent — the paper's argument that
        // control dependences over-approximate.
        FigureCase {
            name: "fig1c-weak-control",
            source: r#"fn main() {
                let s = int(read(open("/secret", 0), 8));
                let x = 0;
                if (s > 50) { x = 1; }
                send(connect("out"), str(x));
            }"#
            .to_string(),
            world: world("73"),
            spec: spec_with(Mutation::OffByOne),
            ldx_reports: false,
            data_taint_reports: false,
            control_taint_reports: true,
        },
        // (d) Strong CC missed by both data and control tracking: the
        // *absence* of an update reveals the secret.
        FigureCase {
            name: "fig1d-absence",
            source: r#"fn main() {
                let s = int(read(open("/secret", 0), 8));
                let x = 0;
                if (s != 10) { x = 1; }
                send(connect("out"), str(x));
            }"#
            .to_string(),
            world: world("10"),
            spec: spec_with(Mutation::OffByOne),
            ldx_reports: true,
            data_taint_reports: false,
            // The taken branch (else) performs no tainted assignment, so
            // even control-scope tainting has nothing to taint.
            control_taint_reports: false,
        },
    ]
}

/// The Figure 2/3 running example: employee record processing.
pub fn figure2_employee() -> FigureCase {
    FigureCase {
        name: "fig2-employee",
        source: r#"
            fn sraise(salary, contract) {
                let fd = open(contract, 0);
                let rate = int(read(fd, 4));
                close(fd);
                return salary * rate / 100;
            }
            fn mraise(salary) {
                let r = sraise(salary, "/contracts/manager");
                if (salary > 5000) {
                    write(3, "senior manager");
                }
                return r + 10;
            }
            fn main() {
                let fd = open("/employee", 0);
                let title = trim(read(fd, 8));
                close(fd);
                let pfd = open("/payroll", 0);
                let salary = int(trim(read(pfd, 8)));
                let raise = 0;
                if (title == "STAFF") {
                    raise = sraise(salary, "/contracts/staff");
                } else {
                    raise = mraise(salary);
                    let dept = read(pfd, 8);
                }
                close(pfd);
                send(connect("hr.example"), str(raise));
            }
        "#
        .to_string(),
        world: VosConfig::new()
            .file("/employee", "STAFF")
            .file("/payroll", "1000    SALES   ")
            .file("/contracts/staff", "3   ")
            .file("/contracts/manager", "7   ")
            .peer("hr.example", PeerBehavior::Echo),
        spec: DualSpec::with_source(
            SourceSpec::file("/employee").with_mutation(Mutation::Replace("MANAGER".into())),
        )
        .sinks(SinkSpec::NetworkOut)
        .recorded(),
        ldx_reports: true,
        data_taint_reports: false,
        control_taint_reports: true,
    }
}

/// The Figure 4/5 loop-alignment example: the loop bounds are the sources.
pub fn figure4_loops() -> FigureCase {
    FigureCase {
        name: "fig4-loops",
        source: r#"fn main() {
            let hfd = open("/in-header", 0);
            let header = split(trim(read(hfd, 8)), " ");
            close(hfd);
            let n = int(header[0]);
            let m = int(header[1]);
            let fd = open("/in-data", 0);
            let total = 0;
            for (let i = 0; i < n; i = i + 1) {
                for (let j = 0; j < m; j = j + 1) {
                    let d = read(fd, 2);
                    total = total + int(d);
                }
                write(3, str(total));
            }
            close(fd);
            send(connect("out"), str(total) + "/" + str(n) + "x" + str(m));
        }"#
        .to_string(),
        world: VosConfig::new()
            .file("/in-header", "1 2")
            .file("/in-data", "10203040506070")
            .peer("out", PeerBehavior::Echo),
        spec: DualSpec::with_source(
            SourceSpec::file("/in-header").with_mutation(Mutation::Replace("2 1".into())),
        )
        .sinks(SinkSpec::NetworkOut)
        .recorded(),
        ldx_reports: true,
        data_taint_reports: true,
        control_taint_reports: true,
    }
}
