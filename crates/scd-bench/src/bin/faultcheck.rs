//! Fault-injection sweep: the differential guard over the benchmark
//! corpus.
//!
//! Runs every Table III benchmark, on both VMs, under each of the three
//! standard seeded fault plans, and asserts the hint-not-oracle
//! property: the faulted run must validate against the host oracle and
//! finish architecturally bit-identical to the clean run. Timing may
//! differ (lost JTEs lengthen the retired path); results may not.
//!
//! ```text
//! cargo run --release -p scd-bench --bin faultcheck           # sim-scale
//! cargo run -p scd-bench --bin faultcheck -- --quick          # tiny inputs
//! cargo run -p scd-bench --bin faultcheck -- --quick --smoke  # CI subset
//! cargo run -p scd-bench --bin faultcheck -- --threads 4
//! ```
//!
//! The (benchmark, vm, plan) triples are independent, so they run
//! through the same order-preserving parallel map as the sweep driver;
//! the report bytes do not depend on the thread count.
//!
//! Exits non-zero on the first divergence, printing the trace-window
//! dump path emitted by the guard.

use scd_bench::{arg_scale_from_cli, emit_report, threads_from_cli, ArgScale};
use scd_serve::parallel_map;
use scd_guest::{differential_check, RunRequest, Scheme, Vm};
use scd_sim::{FaultPlan, SimConfig};
use std::fmt::Write as _;

const SEED: u64 = 2026;
const WINDOW: usize = 256;

/// `--smoke` restricts the sweep to three cheap, dispatch-diverse
/// benchmarks so the debug-profile CI job finishes in minutes.
const SMOKE_BENCHES: [&str; 3] = ["spectral-norm", "random", "fibo"];

fn main() {
    let scale = arg_scale_from_cli(ArgScale::Sim);
    let smoke = std::env::args().any(|a| a == "--smoke");
    let threads = threads_from_cli();

    let mut work = Vec::new();
    for b in &luma::scripts::BENCHMARKS {
        if smoke && !SMOKE_BENCHES.contains(&b.name) {
            continue;
        }
        for vm in [Vm::Lvm, Vm::Svm] {
            for plan in FaultPlan::standard_plans(SEED) {
                work.push((b, vm, plan));
            }
        }
    }

    // Each row is (rendered line, diverged?); the reduction below is
    // sequential and in submission order.
    let rows = parallel_map(&work, threads, |(b, vm, plan)| {
        let args = [("N", scale.arg(b))];
        let req = RunRequest::new(SimConfig::embedded_a5(), *vm, b.source)
            .predefined(&args)
            .scheme(Scheme::Scd);
        match differential_check(&req, plan.clone(), WINDOW) {
            Ok(r) => {
                let clean = r.clean.stats.instructions;
                let faulted = r.faulted.stats.instructions;
                assert!(
                    faulted >= clean,
                    "{}/{}/{}: faults shortened the retired path",
                    b.name,
                    vm.name(),
                    r.plan
                );
                let line = format!(
                    "{:<18}{:<5}{:<18}{:>10}{:>14}{:>14}{:>8.2}%",
                    b.name,
                    vm.name(),
                    r.plan,
                    r.injected,
                    clean,
                    faulted,
                    100.0 * (faulted as f64 / clean.max(1) as f64 - 1.0),
                );
                (line, false)
            }
            Err(e) => {
                let line =
                    format!("{:<18}{:<5}{:<18}  FAILED: {e}", b.name, vm.name(), plan.name());
                (line, true)
            }
        }
    });

    let mut out = String::new();
    let _ = writeln!(out, "Fault-injection differential sweep ({scale:?}, seed {SEED})");
    let _ = writeln!(
        out,
        "{:<18}{:<5}{:<18}{:>10}{:>14}{:>14}{:>9}",
        "benchmark", "vm", "plan", "injected", "clean-insts", "fault-insts", "overhead"
    );
    let mut failures = 0u32;
    for (line, diverged) in rows {
        let _ = writeln!(out, "{line}");
        failures += u32::from(diverged);
    }
    let _ = writeln!(out, "\ndivergences: {failures}");
    emit_report("faultcheck", &out);
    if failures > 0 {
        std::process::exit(1);
    }
}
