//! Quickstart: compile a script, run it on the simulated embedded core
//! with and without Short-Circuit Dispatch, and compare.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use scd::scd_guest::{RunRequest, Scheme, Vm};
use scd::scd_sim::SimConfig;

const SCRIPT: &str = "
    # Sum of the first N primes, the scripting way.
    fn is_prime(n) {
        if n < 2 { return false; }
        var d = 2;
        while d * d <= n {
            if n % d == 0 { return false; }
            d = d + 1;
        }
        return true;
    }

    var found = 0;
    var sum = 0;
    var n = 2;
    while found < N {
        if is_prime(n) { found = found + 1; sum = sum + n; }
        n = n + 1;
    }
    emit(sum);
";

fn main() -> Result<(), String> {
    let args = [("N", 150.0)];
    println!("running the prime-sum script on the simulated Cortex-A5-class core...\n");

    let mut baseline_cycles = 0;
    for scheme in [Scheme::Baseline, Scheme::Threaded, Scheme::Scd] {
        let run = RunRequest::new(SimConfig::embedded_a5(), Vm::Lvm, SCRIPT)
            .predefined(&args)
            .scheme(scheme)
            .run()?;
        if scheme == Scheme::Baseline {
            baseline_cycles = run.stats.cycles;
        }
        println!("{:<16}", scheme.name());
        println!("  checksum     : {:#018x} (validated against the host oracle)", run.checksum);
        println!("  bytecodes    : {}", run.dispatches);
        println!("  instructions : {}", run.stats.instructions);
        println!("  cycles       : {}", run.stats.cycles);
        println!("  IPC          : {:.3}", run.stats.ipc());
        println!("  branch MPKI  : {:.2}", run.stats.branch_mpki());
        if scheme == Scheme::Scd {
            println!(
                "  bop hits     : {} / {} dispatches short-circuited",
                run.stats.bop_hits, run.stats.bop_executed
            );
            println!("  JTE inserts  : {}", run.stats.btb.jte_inserts);
        }
        println!(
            "  speedup      : {:+.1}% over baseline\n",
            100.0 * (baseline_cycles as f64 / run.stats.cycles as f64 - 1.0)
        );
    }
    Ok(())
}
