//! End-to-end robustness checks across the whole stack: the
//! fault-injection differential guard on real benchmark guests, the
//! watchdog's typed error, and bit-exact checkpoint/resume.

use scd_guest::{differential_check, RunRequest, Scheme, Vm};
use scd_sim::{FaultPlan, SimConfig, SimError, Snapshot, WatchdogKind};

/// Picks two cheap corpus benchmarks (one loop-heavy, one call-heavy) so
/// the guard sees realistic dispatch mixes without sim-scale runtimes.
fn seed_guests() -> Vec<(&'static str, f64)> {
    luma::scripts::BENCHMARKS
        .iter()
        .filter(|b| b.name == "spectral-norm" || b.name == "fibo")
        .map(|b| (b.source, b.tiny_arg))
        .collect()
}

#[test]
fn differential_guard_passes_on_seed_guests_under_standard_plans() {
    let guests = seed_guests();
    assert_eq!(guests.len(), 2, "corpus benchmarks renamed?");
    for (src, arg) in guests {
        let args = [("N", arg)];
        for plan in FaultPlan::standard_plans(0xFA117) {
            let req = RunRequest::new(SimConfig::embedded_a5(), Vm::Lvm, src)
                .predefined(&args)
                .scheme(Scheme::Scd);
            let report = differential_check(&req, plan, 128)
                .expect("faults must never change architectural results");
            assert_eq!(report.clean.checksum, report.faulted.checksum);
            assert!(
                report.faulted.stats.instructions >= report.clean.stats.instructions,
                "losing hints can only lengthen the retired path"
            );
        }
    }
}

#[test]
fn cycle_watchdog_returns_typed_error() {
    let src = "var s = 0; for i = 1, N { s = s + i; } emit(s);";
    let mut session = RunRequest::new(SimConfig::embedded_a5(), Vm::Lvm, src)
        .predefined(&[("N", 100_000.0)])
        .scheme(Scheme::Scd)
        .session()
        .expect("compiles");
    session.machine.set_cycle_budget(5_000);
    match session.machine.run(u64::MAX) {
        Err(SimError::Watchdog { kind: WatchdogKind::Cycles, cycles, .. }) => {
            assert!(cycles >= 5_000);
        }
        other => panic!("expected cycle watchdog, got {other:?}"),
    }
}

#[test]
fn checkpoint_resume_reproduces_stats_exactly() {
    let src = "var s = 0; for i = 1, N { s = s + i * i % 7; } emit(s);";
    let args: &[(&str, f64)] = &[("N", 400.0)];
    let req =
        RunRequest::new(SimConfig::embedded_a5(), Vm::Lvm, src).predefined(args).scheme(Scheme::Scd);

    // Reference: one uninterrupted run.
    let mut reference = req.session().expect("compiles");
    let ref_run = reference.run_and_validate().expect("reference run validates");

    // Interrupted run: stop mid-flight, snapshot, and serialize.
    let mut first = req.session().expect("compiles");
    let cut = ref_run.stats.instructions / 2;
    match first.machine.run(cut) {
        Err(SimError::InstLimit { .. }) => {}
        other => panic!("expected to hit the chunk limit, got {other:?}"),
    }
    let bytes = first.machine.snapshot().to_bytes();

    // Resume in a fresh session (fresh machine, same guest build) from
    // the serialized snapshot and run to completion.
    let mut resumed = req.session().expect("compiles");
    let snap = Snapshot::from_bytes(&bytes).expect("snapshot deserializes");
    resumed.machine.restore(&snap).expect("fingerprint matches");
    assert_eq!(resumed.machine.stats.instructions, cut);
    let resumed_run = resumed.run_and_validate().expect("resumed run validates");

    assert_eq!(resumed_run.checksum, ref_run.checksum);
    assert_eq!(resumed_run.dispatches, ref_run.dispatches);
    assert_eq!(
        resumed_run.stats, ref_run.stats,
        "a resumed run must reproduce the uninterrupted run's SimStats exactly"
    );
}
