//! The cell pools of the three workloads and the seeded draw over them.
//!
//! A *cell* is one guest run: benchmark, input, VM, dispatch scheme,
//! core configuration and execution mode. Each workload has a fixed
//! pool, organised in strata of (benchmark, VM, scheme) whose cells
//! differ only in core configuration. A `detailed` or `sampled` pass
//! runs the whole pool in a seeded order; a `batch` pass draws one cell
//! per stratum (the seed picks where each stratum's configuration and
//! which quarter of the jobs is traced start, and every pass rotates
//! them) and shuffles them. Either way every pass, and every 12 `batch`
//! passes, do nearly the same guest work whatever the seed, which keeps
//! throughput and latency comparable across seeds.

use luma::scripts::Benchmark;
use scd_guest::{RunRequest, Scheme, Vm};
use scd_sim::{SamplingPlan, SimConfig};
use std::fmt::Write as _;

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Full-detail `Machine::run` cells at sim-scale inputs.
    Detailed,
    /// `run_sampled` under the qualified default plan at FPGA-scale inputs.
    Sampled,
    /// A JSONL batch of short jobs through `scd_serve::run_batch`.
    Batch,
}

impl Workload {
    /// Every workload, in documentation order.
    pub const ALL: [Workload; 3] = [Workload::Detailed, Workload::Sampled, Workload::Batch];

    /// Command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Detailed => "detailed",
            Workload::Sampled => "sampled",
            Workload::Batch => "batch",
        }
    }

    /// Parses a command-line name.
    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Named core configurations (the names `scd serve` job files use).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cfg {
    /// Cortex-A5-like embedded core.
    EmbeddedA5,
    /// Rocket-like FPGA core.
    FpgaRocket,
    /// Cortex-A8-like high-end core.
    HighendA8,
}

impl Cfg {
    /// Job-file name.
    pub fn name(self) -> &'static str {
        match self {
            Cfg::EmbeddedA5 => "embedded_a5",
            Cfg::FpgaRocket => "fpga_rocket",
            Cfg::HighendA8 => "highend_a8",
        }
    }

    /// The simulator configuration.
    pub fn config(self) -> SimConfig {
        match self {
            Cfg::EmbeddedA5 => SimConfig::embedded_a5(),
            Cfg::FpgaRocket => SimConfig::fpga_rocket(),
            Cfg::HighendA8 => SimConfig::highend_a8(),
        }
    }
}

fn scheme_name(s: Scheme) -> &'static str {
    match s {
        Scheme::Baseline => "baseline",
        Scheme::Threaded => "threaded",
        Scheme::Scd => "scd",
    }
}

/// One guest run of a pool.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Benchmark from the Table III corpus.
    pub bench: &'static Benchmark,
    /// The `N` input.
    pub arg: f64,
    /// Guest VM.
    pub vm: Vm,
    /// Dispatch scheme.
    pub scheme: Scheme,
    /// Core configuration.
    pub cfg: Cfg,
    /// Interval sampling under the qualified default plan.
    pub sampled: bool,
    /// Batch job that collects a cycle decomposition.
    pub traced: bool,
}

impl Cell {
    /// Stable identity; also the reference-data key.
    pub fn id(&self) -> String {
        format!(
            "{}/{}/{}/{}/N={}{}",
            self.bench.name,
            self.vm.name(),
            scheme_name(self.scheme),
            self.cfg.name(),
            self.arg,
            if self.sampled { "/sampled" } else { "" }
        )
    }

    /// The predefined-variable list for [`Cell::request`].
    pub fn predefined(&self) -> [(&'static str, f64); 1] {
        [("N", self.arg)]
    }

    /// The run request the program receives for this cell.
    pub fn request<'a>(&self, predefined: &'a [(&'a str, f64)]) -> RunRequest<'a> {
        RunRequest::new(self.cfg.config(), self.vm, self.bench.source)
            .predefined(predefined)
            .scheme(self.scheme)
            .sample(self.sampled.then(|| SamplingPlan::qualified_default(false)))
    }

    /// The `scd serve` job line for this cell.
    pub fn job_line(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"id\":\"{}\",\"bench\":\"{}\",\"vm\":\"{}\",\"scheme\":\"{}\",\"cfg\":\"{}\",\"predefined\":{{\"N\":{}}}",
            self.id(),
            self.bench.name,
            self.vm.name(),
            scheme_name(self.scheme),
            self.cfg.name(),
            self.arg
        );
        if self.traced {
            s.push_str(",\"traced\":true");
        }
        if self.sampled {
            s.push_str(",\"sample\":\"default\"");
        }
        s.push('}');
        s
    }
}

impl PartialEq for Cell {
    fn eq(&self, other: &Cell) -> bool {
        self.id() == other.id() && self.traced == other.traced
    }
}

/// A JSONL batch file for `cells`.
pub fn jsonl(cells: &[Cell]) -> String {
    cells.iter().map(|c| c.job_line() + "\n").collect()
}

fn bench(name: &str) -> &'static Benchmark {
    luma::scripts::find(name).expect("benchmark in the corpus")
}

/// One stratum: a (benchmark, input, VM, scheme) whose cells differ only
/// in core configuration.
struct Stratum {
    bench: &'static Benchmark,
    arg: f64,
    vm: Vm,
    scheme: Scheme,
}

const ALL_SCHEMES: [Scheme; 3] = [Scheme::Baseline, Scheme::Threaded, Scheme::Scd];

fn strata(w: Workload) -> Vec<Stratum> {
    let mut out = Vec::new();
    let mut add = |name: &str, arg: fn(&Benchmark) -> f64, vm: Vm, scheme: Scheme| {
        let b = bench(name);
        out.push(Stratum {
            bench: b,
            arg: arg(b),
            vm,
            scheme,
        });
    };
    let sim = |b: &Benchmark| b.sim_arg;
    let fpga = |b: &Benchmark| b.fpga_arg;
    let tiny = |b: &Benchmark| b.tiny_arg;
    match w {
        Workload::Detailed => {
            // Tiny working sets (fibo, ackermann) beside a heap-heavy
            // one (binary-trees), every VM x scheme; k-nucleotide is the
            // large heap-heavy guest, one stratum to bound the pass.
            for name in ["binary-trees", "fibo", "ackermann"] {
                for vm in Vm::ALL {
                    for scheme in ALL_SCHEMES {
                        add(name, sim, vm, scheme);
                    }
                }
            }
            add("k-nucleotide", sim, Vm::Lvm, Scheme::Baseline);
        }
        Workload::Sampled => {
            // 43M-600M instructions per cell; SCD cells included because
            // they show the sampled instruction drift.
            add("spectral-norm", fpga, Vm::Lvm, Scheme::Scd);
            add("k-nucleotide", fpga, Vm::Lvm, Scheme::Scd);
            add("binary-trees", fpga, Vm::Lvm, Scheme::Scd);
            add("ackermann", fpga, Vm::Lvm, Scheme::Threaded);
            add("binary-trees", fpga, Vm::Svm, Scheme::Baseline);
            add("fibo", fpga, Vm::Svm, Scheme::Threaded);
            add("n-body", fpga, Vm::Svm, Scheme::Scd);
            add("random", fpga, Vm::Svm, Scheme::Baseline);
        }
        Workload::Batch => {
            for name in BATCH_BENCHES {
                for vm in Vm::ALL {
                    for scheme in ALL_SCHEMES {
                        add(name, tiny, vm, scheme);
                    }
                }
            }
        }
    }
    out
}

/// Batch benchmarks; one job per (VM, scheme) across them is traced.
const BATCH_BENCHES: [&str; 4] = ["binary-trees", "spectral-norm", "n-body", "random"];

fn cfgs(w: Workload) -> &'static [Cfg] {
    match w {
        Workload::Detailed | Workload::Sampled => &[Cfg::EmbeddedA5, Cfg::FpgaRocket],
        Workload::Batch => &[Cfg::EmbeddedA5, Cfg::FpgaRocket, Cfg::HighendA8],
    }
}

/// Every cell a pass of `w` can draw (untraced form; `batch` traces a
/// seeded quarter of them). The reference data covers exactly this list.
pub fn pool(w: Workload) -> Vec<Cell> {
    let mut out = Vec::new();
    for s in strata(w) {
        for &cfg in cfgs(w) {
            out.push(Cell {
                bench: s.bench,
                arg: s.arg,
                vm: s.vm,
                scheme: s.scheme,
                cfg,
                sampled: w == Workload::Sampled,
                traced: false,
            });
        }
    }
    out
}

/// SplitMix64: small, seedable and identical on every host.
#[derive(Debug, Clone)]
struct Rng(u64);

impl Rng {
    /// A generator for `seed`.
    fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// Next 64 random bits.
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// Draws pass `n` of a run seeded with `seed`, in a seeded order: the
/// whole pool for `detailed` and `sampled`, one cell per stratum for
/// `batch`.
pub fn draw_pass(w: Workload, seed: u64, n: usize) -> Vec<Cell> {
    let mut cells = if w == Workload::Batch {
        draw_batch(seed, n)
    } else {
        pool(w)
    };
    let mut rng = Rng::new(seed ^ (n as u64 + 1).wrapping_mul(0xA24B_AED4_963E_E407));
    for i in (1..cells.len()).rev() {
        let j = rng.below(i + 1);
        cells.swap(i, j);
    }
    cells
}

/// One batch cell per stratum; for each (VM, scheme) one benchmark's job
/// is traced, a quarter of the batch. The seed fixes each stratum's
/// starting configuration and each (VM, scheme)'s starting traced
/// benchmark; pass `n` advances both by `n`, so every 12 passes run each
/// stratum on each configuration, and trace each benchmark, equally
/// often whatever the seed.
fn draw_batch(seed: u64, n: usize) -> Vec<Cell> {
    let mut rng = Rng::new(seed);
    let choices = cfgs(Workload::Batch);
    let mut cells: Vec<Cell> = strata(Workload::Batch)
        .into_iter()
        .map(|s| Cell {
            bench: s.bench,
            arg: s.arg,
            vm: s.vm,
            scheme: s.scheme,
            cfg: choices[(rng.below(choices.len()) + n) % choices.len()],
            sampled: false,
            traced: false,
        })
        .collect();
    for vm in Vm::ALL {
        for scheme in ALL_SCHEMES {
            let k = (rng.below(BATCH_BENCHES.len()) + n) % BATCH_BENCHES.len();
            let target = bench(BATCH_BENCHES[k]);
            for c in cells.iter_mut() {
                if c.vm == vm && c.scheme == scheme && std::ptr::eq(c.bench, target) {
                    c.traced = true;
                }
            }
        }
    }
    cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_same_cells_and_jsonl() {
        for w in Workload::ALL {
            let mut differs = false;
            for n in 0..3 {
                let (pa, pb, pc) = (draw_pass(w, 7, n), draw_pass(w, 7, n), draw_pass(w, 8, n));
                assert_eq!(pa, pb, "{}", w.name());
                assert_eq!(jsonl(&pa), jsonl(&pb), "{}", w.name());
                differs |= pa != pc;
            }
            assert!(
                differs,
                "{}: another seed should draw another pass",
                w.name()
            );
        }
    }

    #[test]
    fn passes_draw_from_the_pool() {
        for w in Workload::ALL {
            let mut pool: Vec<String> = pool(w).iter().map(Cell::id).collect();
            let mut pass: Vec<String> = draw_pass(w, 3, 0)
                .iter()
                .map(Cell::id)
                .collect();
            pool.sort();
            pass.sort();
            if w == Workload::Batch {
                assert_eq!(pass.len(), strata(w).len());
                assert!(pass.iter().all(|id| pool.contains(id)));
            } else {
                assert_eq!(pass, pool, "{}: a pass is the whole pool", w.name());
            }
        }
    }

    #[test]
    fn twelve_batch_passes_balance_configs_and_traced_jobs() {
        let mut seen: std::collections::HashMap<(String, bool), usize> = Default::default();
        for n in 0..12 {
            for c in draw_pass(Workload::Batch, 5, n) {
                *seen.entry((c.id(), c.traced)).or_default() += 1;
            }
        }
        // 24 strata x 3 configurations, each traced in 3 of 12 passes.
        assert_eq!(seen.values().sum::<usize>(), 12 * 24);
        for cell in pool(Workload::Batch) {
            let untraced = seen.get(&(cell.id(), false)).copied().unwrap_or(0);
            let traced = seen.get(&(cell.id(), true)).copied().unwrap_or(0);
            assert_eq!(untraced + traced, 4, "{}", cell.id());
        }
        // Each stratum (an id minus its configuration) is traced in 3.
        let mut traced: std::collections::HashMap<String, usize> = Default::default();
        for ((id, t), k) in &seen {
            let stratum = cfgs(Workload::Batch).iter().fold(id.clone(), |s, c| s.replace(c.name(), ""));
            *traced.entry(stratum).or_default() += if *t { *k } else { 0 };
        }
        assert_eq!(traced.len(), 24);
        assert!(traced.values().all(|&k| k == 3), "{traced:?}");
    }

    #[test]
    fn batch_jsonl_parses_and_traces_a_quarter() {
        let pass = draw_pass(Workload::Batch, 11, 5);
        let jobs = scd_serve::parse_jobs(&jsonl(&pass)).expect("generated JSONL parses");
        assert_eq!(jobs.len(), pass.len());
        assert_eq!(4 * jobs.iter().filter(|j| j.traced).count(), jobs.len());
        for (job, cell) in jobs.iter().zip(&pass) {
            assert_eq!(job.id, cell.id());
            let pre = cell.predefined();
            let manifest = cell.request(&pre).cache_manifest();
            assert_eq!(job.with_request(|r| r.cache_manifest()), manifest);
        }
    }
}
