//! Criterion benchmarks for the full stack: host-oracle interpretation
//! throughput and whole-machine simulation throughput under each
//! dispatch scheme (one small workload so `cargo bench` stays quick;
//! the paper-figure harness binaries do the heavy sweeps).

use criterion::{criterion_group, criterion_main, Criterion};
use scd_guest::{RunRequest, Scheme, Vm};
use scd_sim::SimConfig;
use std::hint::black_box;

const SRC: &str = "
    fn work(n) {
        var s = 0;
        for i = 1, n { s = s + i * 3 % 7; }
        return s;
    }
    emit(work(N));
";

fn bench_oracles(c: &mut Criterion) {
    let mut g = c.benchmark_group("oracle");
    g.bench_function("lvm", |b| {
        b.iter(|| black_box(luma::lvm::run_source(SRC, &[("N", 2000.0)], u64::MAX).unwrap()))
    });
    g.bench_function("svm", |b| {
        b.iter(|| black_box(luma::svm::run_source(SRC, &[("N", 2000.0)], u64::MAX).unwrap()))
    });
    g.finish();
}

fn bench_simulated(c: &mut Criterion) {
    let mut g = c.benchmark_group("simulated");
    g.sample_size(10);
    for vm in Vm::ALL {
        for scheme in Scheme::ALL {
            g.bench_function(format!("{}/{}", vm.name(), scheme.name()), |b| {
                b.iter(|| {
                    black_box(
                        RunRequest::new(SimConfig::embedded_a5(), vm, SRC)
                            .predefined(&[("N", 500.0)])
                            .scheme(scheme)
                            .run()
                            .unwrap(),
                    )
                })
            });
        }
    }
    g.finish();
}

criterion_group!(benches, bench_oracles, bench_simulated);
criterion_main!(benches);
