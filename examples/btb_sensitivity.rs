//! A compact version of the Fig. 11 sensitivity study: how SCD's benefit
//! changes with BTB capacity and the JTE cap, on one workload.
//!
//! ```text
//! cargo run --release --example btb_sensitivity
//! ```

use scd::luma::scripts;
use scd::scd_guest::{RunRequest, Scheme, Vm};
use scd::scd_sim::SimConfig;

fn cycles(cfg: SimConfig, scheme: Scheme, src: &str, n: f64) -> u64 {
    RunRequest::new(cfg, Vm::Lvm, src)
        .predefined(&[("N", n)])
        .scheme(scheme)
        .run()
        .expect("benchmark runs")
        .stats
        .cycles
}

fn main() {
    let b = scripts::find("n-sieve").expect("benchmark exists");
    let n = b.tiny_arg;

    println!("SCD speedup vs BTB size ({}, N={n}):", b.name);
    for entries in [64, 128, 256, 512] {
        let cfg = SimConfig::embedded_a5().with_btb_entries(entries);
        let base = cycles(cfg.clone(), Scheme::Baseline, b.source, n);
        let scd = cycles(cfg, Scheme::Scd, b.source, n);
        println!(
            "  {entries:>4} entries: {:+.1}%  (baseline {base} cycles, SCD {scd})",
            100.0 * (base as f64 / scd as f64 - 1.0)
        );
    }

    println!("\nSCD speedup vs JTE cap at a 64-entry BTB:");
    let small = SimConfig::embedded_a5().with_btb_entries(64);
    let base = cycles(small.clone(), Scheme::Baseline, b.source, n);
    for (cap, label) in [(Some(4), "4"), (Some(16), "16"), (None, "unbounded")] {
        let cfg = small.clone().with_jte_cap(cap);
        let scd = cycles(cfg, Scheme::Scd, b.source, n);
        println!("  cap {label:>9}: {:+.1}%", 100.0 * (base as f64 / scd as f64 - 1.0));
    }
}
