//! End-to-end correctness: every benchmark of Table III runs to
//! completion on the simulated core, for both VMs and all three dispatch
//! schemes, and produces exactly the host oracle's checksum and
//! bytecode count. (The checks themselves live inside
//! `Session::validate`, which returns an error on any mismatch.)

use luma::scripts::Benchmark;
use scd_guest::{GuestRun, RunRequest, Scheme, Vm};
use scd_sim::SimConfig;

const MAX_INSTS: u64 = 2_000_000_000;

/// Runs `b` at its tiny input and validates it against the oracle.
fn run(cfg: SimConfig, vm: Vm, b: &Benchmark, scheme: Scheme) -> Result<GuestRun, String> {
    RunRequest::new(cfg, vm, b.source)
        .predefined(&[("N", b.tiny_arg)])
        .scheme(scheme)
        .max_insts(MAX_INSTS)
        .run()
}

fn run_all(vm: Vm, scheme: Scheme) {
    for b in &luma::scripts::BENCHMARKS {
        let run = run(SimConfig::embedded_a5(), vm, b, scheme)
            .unwrap_or_else(|e| panic!("{} on {:?}/{:?}: {e}", b.name, vm, scheme));
        assert!(run.dispatches > 0, "{} dispatched nothing", b.name);
        assert!(run.stats.instructions > run.dispatches, "{}", b.name);
    }
}

#[test]
fn lvm_baseline_matches_oracle() {
    run_all(Vm::Lvm, Scheme::Baseline);
}

#[test]
fn lvm_threaded_matches_oracle() {
    run_all(Vm::Lvm, Scheme::Threaded);
}

#[test]
fn lvm_scd_matches_oracle() {
    run_all(Vm::Lvm, Scheme::Scd);
}

#[test]
fn svm_baseline_matches_oracle() {
    run_all(Vm::Svm, Scheme::Baseline);
}

#[test]
fn svm_threaded_matches_oracle() {
    run_all(Vm::Svm, Scheme::Threaded);
}

#[test]
fn svm_scd_matches_oracle() {
    run_all(Vm::Svm, Scheme::Scd);
}

#[test]
fn schemes_agree_on_dispatch_count() {
    // The dispatch scheme must not change *what* executes, only how
    // dispatch happens: bytecode counts are identical across schemes.
    let b = luma::scripts::find("fibo").unwrap();
    let mut counts = Vec::new();
    for scheme in Scheme::ALL {
        let run = run(SimConfig::embedded_a5(), Vm::Lvm, b, scheme).unwrap();
        counts.push(run.dispatches);
    }
    assert_eq!(counts[0], counts[1]);
    assert_eq!(counts[1], counts[2]);
}

#[test]
fn scd_reduces_instruction_count() {
    // The headline mechanism (Fig. 8): SCD executes fewer instructions
    // than the baseline for the same work.
    let b = luma::scripts::find("n-sieve").unwrap();
    let mut insts = Vec::new();
    for scheme in [Scheme::Baseline, Scheme::Scd] {
        let run = run(SimConfig::embedded_a5(), Vm::Lvm, b, scheme).unwrap();
        insts.push(run.stats.instructions);
    }
    assert!(
        insts[1] < insts[0],
        "SCD should reduce dynamic instructions: {} vs {}",
        insts[1],
        insts[0]
    );
}

#[test]
fn scd_reduces_dispatch_mispredictions() {
    // Fig. 9: the dispatch indirect jump's mispredictions mostly vanish.
    let b = luma::scripts::find("fannkuch-redux").unwrap();
    let mut mpki = Vec::new();
    for scheme in [Scheme::Baseline, Scheme::Scd] {
        let run = run(SimConfig::embedded_a5(), Vm::Lvm, b, scheme).unwrap();
        mpki.push(run.stats.branch_mpki());
    }
    assert!(
        mpki[1] < mpki[0] * 0.7,
        "SCD should cut branch MPKI: {:.2} vs {:.2}",
        mpki[1],
        mpki[0]
    );
}

#[test]
fn runs_on_fpga_and_highend_configs() {
    let b = luma::scripts::find("random").unwrap();
    for cfg in [SimConfig::fpga_rocket(), SimConfig::highend_a8()] {
        for vm in Vm::ALL {
            run(cfg.clone(), vm, b, Scheme::Scd)
                .unwrap_or_else(|e| panic!("{} on {}: {e}", b.name, cfg.name));
        }
    }
}
