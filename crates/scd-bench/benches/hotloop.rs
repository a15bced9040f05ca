//! Criterion microbenchmarks for the per-retirement hot path: the
//! monomorphized fast run loop against the fully observed loop (same
//! guest, same budget), and machine construction (which builds the
//! static side-table and shares the decoded program via `Arc`). The
//! fast/observed gap here is the whole point of the `OBSERVED`
//! monomorphization; `simperf` measures the same effect wall-to-wall.

use criterion::{criterion_group, criterion_main, Criterion};
use scd_guest::{RunRequest, Scheme, Session, Vm};
use scd_sim::{CycleBreakdown, SimConfig, SimError};
use std::hint::black_box;

const SRC: &str = "
    fn work(n) {
        var s = 0;
        for i = 1, n { s = s + i * 3 % 7; }
        return s;
    }
    emit(work(N));
";

/// Guest instructions retired per bench iteration. Small enough that
/// the sample loop stays responsive, large enough to amortize the
/// per-call dispatch onto the monomorphized loop.
const STEP: u64 = 100_000;

fn session(scheme: Scheme) -> Session {
    // N is far larger than any bench will consume, so the guest never
    // halts mid-measurement and every iteration runs exactly STEP
    // instructions of steady-state interpreter loop.
    RunRequest::new(SimConfig::embedded_a5(), Vm::Lvm, SRC)
        .predefined(&[("N", 1e15)])
        .scheme(scheme)
        .session()
        .expect("build session")
}

/// Advances the machine by STEP instructions; the instruction limit is
/// cumulative, so each call extends it from wherever the guest stopped.
fn step(m: &mut scd_sim::Machine) {
    let target = m.stats.instructions + STEP;
    match m.run(target) {
        Err(SimError::InstLimit { .. }) => {}
        other => panic!("expected InstLimit, got {other:?}"),
    }
}

fn bench_run_loop(c: &mut Criterion) {
    let mut g = c.benchmark_group("run_loop");
    g.sample_size(10);
    for scheme in [Scheme::Baseline, Scheme::Scd] {
        let mut fast = session(scheme);
        fast.machine.disable_invariants();
        g.bench_function(format!("fast/{}", scheme.name()), |b| {
            b.iter(|| step(&mut fast.machine))
        });

        let mut obs = session(scheme);
        obs.machine.enable_invariants(4096);
        obs.machine.set_trace_sink(Box::new(CycleBreakdown::default()));
        g.bench_function(format!("observed/{}", scheme.name()), |b| {
            b.iter(|| step(&mut obs.machine))
        });
    }
    g.finish();
}

fn bench_machine_build(c: &mut Criterion) {
    let mut g = c.benchmark_group("machine_build");
    // Session construction compiles the guest, decodes the program
    // (once, behind an Arc), builds the machine, and rebuilds the
    // static side-table for the scheme's annotations.
    g.bench_function("session", |b| b.iter(|| black_box(session(Scheme::Scd))));
    g.finish();
}

criterion_group!(benches, bench_run_loop, bench_machine_build);
criterion_main!(benches);
