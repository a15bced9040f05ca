//! The shared run matrix behind every figure and table.
//!
//! Historically each `scd-bench` binary re-ran its own slice of the
//! evaluation matrix (benchmark × VM × scheme × `SimConfig`), so
//! regenerating the full evaluation re-simulated heavily overlapping
//! cell sets strictly sequentially. This module splits *planning* from
//! *execution*:
//!
//! 1. every figure contributes the cells it needs to one [`RunMatrix`]
//!    builder, which deduplicates them by their full identity
//!    (configuration, VM, benchmark, input, scheme, build options);
//! 2. [`RunMatrix::run`] turns each unique cell into a serve
//!    [`JobSpec`] and executes the batch with `scd-serve`'s
//!    [`run_batch`] and [`simulate_job`] — the same pool and the same
//!    runner as `scd serve`, so a sweep shares its panic isolation, its
//!    one retry of transient failures, its interrupt drain and its cache
//!    keys. Outcomes arrive in planning order, so every rendered byte is
//!    deterministic regardless of thread count;
//! 3. figures render from the shared [`SweepResults`] via stable
//!    [`CellId`] handles.
//!
//! Untraced cells run uninstrumented on the fast loop (oracle checksum
//! validation still gates every cell). Traced cells carry a
//! [`CycleBreakdown`] sink and the invariant checker — observers take
//! the observed loop. The trace layer is stat-invariant (golden-pinned),
//! so a cell shared between a traced and an untraced consumer is run
//! once, traced, and both read identical statistics.
//! [`RunMatrix::set_invariants`] arms the checker on *every* cell, so a
//! gate run self-verifies all of its stats.

use crate::{ArgScale, Variant};
use luma::scripts::{Benchmark, BENCHMARKS};
use scd_guest::{GuestOptions, Scheme, Vm};
use scd_serve::{run_batch, simulate_job, Cache, CachedRun, JobDone, JobOutcome, JobSpec};
use scd_sim::{CycleBreakdown, SamplingPlan, SimConfig};
use std::collections::HashMap;
use std::sync::atomic::AtomicBool;
use std::time::{Duration, Instant};

/// Stable handle to one cell of a [`RunMatrix`] / [`SweepResults`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CellId(usize);

/// Everything that identifies one simulation cell of the evaluation
/// matrix. Two cells with equal identity (everything but `traced`) are
/// deduplicated into one run.
#[derive(Debug, Clone)]
pub struct CellSpec {
    /// Simulated-core configuration (already variant-adjusted).
    pub cfg: SimConfig,
    /// Guest VM.
    pub vm: Vm,
    /// Corpus benchmark.
    pub bench: &'static Benchmark,
    /// Value bound to `N`.
    pub arg: f64,
    /// Interpreter dispatch scheme.
    pub scheme: Scheme,
    /// Interpreter build options.
    pub opts: GuestOptions,
    /// Whether any consumer needs the cycle decomposition of this cell.
    pub traced: bool,
}

impl CellSpec {
    /// Dedup key: the full cell identity minus `traced` (tracing is
    /// stat-invariant, so it widens a cell rather than splitting it).
    fn key(&self) -> String {
        format!(
            "{:?}|{:?}|{}|{:016x}|{:?}|{:?}",
            self.cfg,
            self.vm,
            self.bench.name,
            self.arg.to_bits(),
            self.scheme,
            self.opts
        )
    }

    /// The serve job that runs this cell. Traced cells ignore the
    /// matrix sampling plan: a cycle breakdown is a per-retirement
    /// observation, meaningless over a sampled run. The plan joins the
    /// job's cache manifest (sampled cycle counts are estimates and must
    /// never masquerade as exact); `invariants` does not, because the
    /// checker changes no counter.
    fn job(&self, sample: Option<SamplingPlan>, invariants: bool) -> JobSpec {
        JobSpec {
            // `"bench [vm / scheme]"`: the cell's name in progress and errors.
            id: format!(
                "{} [{} / {}]",
                self.bench.name,
                self.vm.name(),
                self.scheme.name()
            ),
            vm: self.vm,
            scheme: self.scheme,
            cfg: self.cfg.clone(),
            src: self.bench.source.to_string(),
            predefined: vec![("N".to_string(), self.arg)],
            max_insts: u64::MAX,
            opts: self.opts,
            traced: self.traced,
            sample: if self.traced { None } else { sample },
            invariants,
        }
    }
}

/// Deduplicating builder for the evaluation run matrix.
#[derive(Default)]
pub struct RunMatrix {
    cells: Vec<CellSpec>,
    /// How many times each unique cell was requested.
    hits: Vec<usize>,
    index: HashMap<String, usize>,
    /// Arm the invariant checker on untraced cells too.
    invariants: bool,
    /// Run every *untraced* cell under interval sampling with this plan.
    sample: Option<SamplingPlan>,
}

impl RunMatrix {
    /// An empty matrix.
    pub fn new() -> Self {
        Self::default()
    }

    /// Unique cells planned so far.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether no cells are planned.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Total cell *requests* (before deduplication); the ratio to
    /// [`RunMatrix::len`] is the work the shared matrix saves.
    pub fn requested(&self) -> usize {
        self.hits.iter().sum()
    }

    /// Arms the invariant checker on every cell — traced or not —
    /// instead of on traced cells only.
    /// Stats are identical either way (the checker is a stat-invariant
    /// observer); this trades the fast loop's speed for self-verified
    /// counters on every full-detail cell. Sampled cells stay unchecked:
    /// `run_sampled` disarms the checker, whose identities do not hold
    /// across mode seams.
    pub fn set_invariants(&mut self, on: bool) {
        self.invariants = on;
    }

    /// Runs every *untraced* cell under interval sampling with `plan`:
    /// fast-forward / functionally warm / measure, with cycle counts
    /// statistically estimated instead of fully simulated (architectural
    /// results stay exact and oracle-validated). Traced cells always run
    /// full detail — a cycle decomposition sampled from a fraction of
    /// the run would be a fragment, not an estimate. The plan joins each
    /// sampled cell's cache manifest, so sampled and full-detail entries
    /// never collide in a shared `--cache` directory.
    pub fn set_sample(&mut self, plan: Option<SamplingPlan>) {
        self.sample = plan;
    }

    /// Plans `spec`, returning the id of the (possibly pre-existing)
    /// unique cell. A traced request upgrades an untraced cell.
    pub fn cell(&mut self, spec: CellSpec) -> CellId {
        let key = spec.key();
        match self.index.get(&key) {
            Some(&i) => {
                self.cells[i].traced |= spec.traced;
                self.hits[i] += 1;
                CellId(i)
            }
            None => {
                let i = self.cells.len();
                self.index.insert(key, i);
                self.cells.push(spec);
                self.hits.push(1);
                CellId(i)
            }
        }
    }

    /// Plans one benchmark under one Fig. 7 [`Variant`] (the variant
    /// picks both the scheme and the hardware configuration).
    pub fn variant(
        &mut self,
        base_cfg: &SimConfig,
        vm: Vm,
        bench: &'static Benchmark,
        scale: ArgScale,
        v: Variant,
        traced: bool,
    ) -> CellId {
        self.cell(CellSpec {
            cfg: v.configure(base_cfg),
            vm,
            bench,
            arg: scale.arg(bench),
            scheme: v.scheme(),
            opts: GuestOptions::default(),
            traced,
        })
    }

    /// Executes every unique cell on `threads` worker threads and
    /// returns the result set. Cell results land in planning order, so
    /// downstream rendering is deterministic for any thread count.
    ///
    /// # Panics
    /// Panics if any cell fails oracle validation — a harness run must
    /// never silently produce numbers from a wrong execution.
    pub fn run(self, threads: usize, progress: bool) -> SweepResults {
        self.run_cached(threads, progress, None, None)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`RunMatrix::run`] with the robustness knobs exposed: an optional
    /// persistent result [`Cache`] (cells run as `scd serve` jobs, so
    /// their entries interoperate) and an optional interrupt flag. When
    /// the flag becomes true, in-flight cells finish — and commit their
    /// cache entries — but no new cell is claimed, and the sweep returns
    /// [`SweepError::Interrupted`]; a rerun against the same cache
    /// resumes as hits.
    ///
    /// # Errors
    /// [`SweepError::Cell`] on the first cell that fails to compile,
    /// validate or persist (a worker panic or a failed cache store is
    /// retried once first, and never takes the rest of the matrix down);
    /// [`SweepError::Interrupted`] when cut short.
    pub fn run_cached(
        self,
        threads: usize,
        progress: bool,
        cache: Option<&Cache>,
        interrupt: Option<&AtomicBool>,
    ) -> Result<SweepResults, SweepError> {
        let started = Instant::now();
        let jobs: Vec<JobSpec> = self
            .cells
            .iter()
            .map(|spec| spec.job(self.sample, self.invariants))
            .collect();
        let total = jobs.len();
        let never = AtomicBool::new(false);
        let mut cells = Vec::with_capacity(total);
        let mut failure = None;
        run_batch(
            &jobs,
            threads,
            interrupt.unwrap_or(&never),
            |job| simulate_job(job, cache, None),
            |i, job, outcome| {
                let status = match outcome {
                    JobOutcome::Done(done) => {
                        cells.push((**done).clone());
                        format!("{:.2}s", done.wall.as_secs_f64())
                    }
                    JobOutcome::Failed { error, .. } => {
                        let msg = format!("{}: {}", job.id, error.message());
                        failure.get_or_insert(SweepError::Cell(msg));
                        "FAILED".to_string()
                    }
                    JobOutcome::Cancelled => {
                        failure.get_or_insert(SweepError::Interrupted);
                        return;
                    }
                };
                if progress {
                    eprintln!("  [{}/{total}] {} {status}", i + 1, job.id);
                }
            },
        );
        if let Some(e) = failure {
            return Err(e);
        }
        Ok(SweepResults {
            specs: self.cells,
            hits: self.hits,
            cells,
            wall: started.elapsed(),
        })
    }
}

/// Why a [`RunMatrix::run_cached`] sweep did not produce results.
#[derive(Debug)]
pub enum SweepError {
    /// A cell failed to compile, validate, or persist its cache entry
    /// (message includes the cell label), or its worker panicked.
    Cell(String),
    /// The interrupt flag was raised before every cell ran; completed
    /// cells have already committed their cache entries.
    Interrupted,
}

impl std::fmt::Display for SweepError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepError::Cell(msg) => f.write_str(msg),
            SweepError::Interrupted => f.write_str("sweep interrupted before completion"),
        }
    }
}

impl std::error::Error for SweepError {}

/// The executed matrix: one finished job per unique planned cell, plus
/// the wall-clock accounting the sweep driver reports.
pub struct SweepResults {
    specs: Vec<CellSpec>,
    hits: Vec<usize>,
    cells: Vec<JobDone>,
    /// Wall-clock time of the whole (parallel) execution.
    pub wall: Duration,
}

impl SweepResults {
    /// Number of executed cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the matrix was empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The validated run of `id`.
    pub fn get(&self, id: CellId) -> &CachedRun {
        &self.cells[id.0].run
    }

    /// The cycle decomposition of `id`.
    ///
    /// # Panics
    /// Panics when the cell was planned untraced.
    pub fn breakdown(&self, id: CellId) -> &CycleBreakdown {
        self.cells[id.0]
            .run
            .breakdown
            .as_ref()
            .expect("cell was planned traced")
    }

    /// Sum of per-cell host runtimes: what the deduplicated matrix would
    /// cost on one thread.
    pub fn serial_unique(&self) -> Duration {
        self.cells.iter().map(|c| c.wall).sum()
    }

    /// Dedup-unaware sequential estimate: per-cell runtime weighted by
    /// how many times the cell was requested — what the old one-binary-
    /// per-figure flow would have simulated.
    pub fn serial_requested(&self) -> Duration {
        self.cells
            .iter()
            .zip(&self.hits)
            .map(|(c, &h)| c.wall * u32::try_from(h).unwrap_or(u32::MAX))
            .sum()
    }

    /// Iterates `(spec, times-requested, result)` in planning order.
    pub fn iter(&self) -> impl Iterator<Item = (&CellSpec, usize, &JobDone)> {
        self.specs
            .iter()
            .zip(&self.hits)
            .zip(&self.cells)
            .map(|((s, &h), c)| (s, h, c))
    }
}

/// The planned form of the old `run_matrix` helper: all benchmarks ×
/// the given variants for one VM/configuration, resolvable into a
/// [`Matrix`] view once the sweep has run.
pub struct MatrixPlan {
    /// The VM the matrix covers.
    pub vm: Vm,
    rows: Vec<(&'static Benchmark, Vec<(Variant, CellId)>)>,
}

/// Plans the full benchmark matrix for one VM.
pub fn plan_matrix(
    m: &mut RunMatrix,
    base_cfg: &SimConfig,
    vm: Vm,
    scale: ArgScale,
    variants: &[Variant],
    traced: bool,
) -> MatrixPlan {
    let rows = BENCHMARKS
        .iter()
        .map(|b| {
            let cells = variants
                .iter()
                .map(|&v| (v, m.variant(base_cfg, vm, b, scale, v, traced)))
                .collect();
            (b, cells)
        })
        .collect();
    MatrixPlan { vm, rows }
}

impl MatrixPlan {
    /// Resolves the plan against executed results into the borrowing
    /// [`Matrix`] view the table formatters consume.
    pub fn resolve<'r>(&self, r: &'r SweepResults) -> Matrix<'r> {
        Matrix {
            vm: self.vm,
            rows: self
                .rows
                .iter()
                .map(|(b, cells)| MatrixRow {
                    bench: b,
                    cells: cells.clone(),
                    results: r,
                })
                .collect(),
        }
    }
}

/// A complete matrix of executed runs for one VM and configuration,
/// borrowing from [`SweepResults`].
pub struct Matrix<'r> {
    /// The VM the matrix covers.
    pub vm: Vm,
    /// One row per benchmark.
    pub rows: Vec<MatrixRow<'r>>,
}

/// All variants of one benchmark.
pub struct MatrixRow<'r> {
    /// The benchmark.
    pub bench: &'static Benchmark,
    cells: Vec<(Variant, CellId)>,
    results: &'r SweepResults,
}

impl<'r> MatrixRow<'r> {
    fn id(&self, v: Variant) -> CellId {
        self.cells
            .iter()
            .find(|(vv, _)| *vv == v)
            .expect("variant present")
            .1
    }

    /// The validated run of variant `v`.
    pub fn get(&self, v: Variant) -> &'r CachedRun {
        self.results.get(self.id(v))
    }

    /// The event-derived cycle decomposition for `v`.
    ///
    /// # Panics
    /// Panics when the matrix was planned untraced.
    pub fn breakdown(&self, v: Variant) -> &'r CycleBreakdown {
        self.results.breakdown(self.id(v))
    }

    /// Speedup of `v` over the baseline (1.0 = no change).
    pub fn speedup(&self, v: Variant) -> f64 {
        self.get(Variant::Baseline).stats.cycles as f64 / self.get(v).stats.cycles as f64
    }

    /// Dynamic instruction count of `v` normalized to baseline.
    pub fn norm_insts(&self, v: Variant) -> f64 {
        self.get(v).stats.instructions as f64
            / self.get(Variant::Baseline).stats.instructions as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;

    #[test]
    fn dedup_collapses_identical_cells() {
        let a5 = SimConfig::embedded_a5();
        let mut m = RunMatrix::new();
        let b = &BENCHMARKS[0];
        let a = m.variant(&a5, Vm::Lvm, b, ArgScale::Tiny, Variant::Baseline, false);
        let c = m.variant(&a5, Vm::Lvm, b, ArgScale::Tiny, Variant::Baseline, true);
        assert_eq!(a, c, "identical cells must deduplicate");
        assert_eq!(m.len(), 1);
        assert_eq!(m.requested(), 2);
        // The traced request upgraded the shared cell.
        assert!(m.cells[0].traced);
        // A different scheme is a different cell.
        let d = m.variant(&a5, Vm::Lvm, b, ArgScale::Tiny, Variant::Scd, false);
        assert_ne!(a, d);
        assert_eq!(m.len(), 2);
    }

    /// Cache keys recorded before sweep cells became serve jobs: one
    /// untraced, one traced, one sampled under the qualified default
    /// plan, one with non-default build options and one on the Rocket
    /// configuration. A drift here would orphan every cache a previous
    /// sweep or `scd serve` filled.
    #[test]
    fn cell_cache_keys_are_pinned() {
        let keys = [
            "7493ca3b8d41ffbf34f9da0eda6af2691a32287b4350bbe3920e1a00e6ad039e",
            "655cb61d6dec2c0f0ff32af3386ab637f9eb917c603abd5b66d3abd6660dfcb5",
            "643d19f2ae5eb9f506b4b7cf01403eac8740805527ebe6e254d090d0c2eb8230",
            "31204a6ecd592fead27d3f7232819f166ded6cb18ba01b3b56c52e747a0627d5",
            "90963d3f20fab1063d4ecee9f9ee4bcd3dfc3f26331e966acf79204fd308e17f",
        ];
        let (a5, rocket) = (SimConfig::embedded_a5(), SimConfig::fpga_rocket());
        let plan = Some(SamplingPlan::qualified_default(false));
        #[rustfmt::skip]
        let rows = [
            (&a5, Vm::Lvm, "binary-trees", ArgScale::Tiny, Scheme::Baseline, false, None),
            // A traced cell ignores the plan.
            (&a5, Vm::Lvm, "fibo", ArgScale::Sim, Scheme::Scd, true, plan),
            (&a5, Vm::Svm, "n-body", ArgScale::Sim, Scheme::Threaded, false, plan),
            // Built with scheduled fetch below.
            (&a5, Vm::Lvm, "spectral-norm", ArgScale::Tiny, Scheme::Scd, false, None),
            (&rocket, Vm::Svm, "k-nucleotide", ArgScale::Fpga, Scheme::Scd, false, None),
        ];
        for (i, (row, want)) in rows.into_iter().zip(keys).enumerate() {
            let (cfg, vm, name, scale, scheme, traced, sample) = row;
            let bench = BENCHMARKS
                .iter()
                .find(|b| b.name == name)
                .expect("benchmark");
            let opts = GuestOptions {
                scheduled_fetch: i == 3,
                ..GuestOptions::default()
            };
            let (cfg, arg) = (cfg.clone(), scale.arg(bench));
            #[rustfmt::skip]
            let spec = CellSpec { cfg, vm, bench, arg, scheme, opts, traced };
            for invariants in [false, true] {
                let job = spec.job(sample, invariants);
                assert_eq!(Cache::key(&job.cache_manifest()), want, "{}", job.id);
            }
        }
    }

    /// End-to-end for the persistent cache: a cold sweep populates it, a
    /// warm sweep reproduces every number from it without simulating,
    /// and a corrupted entry quarantines and recomputes to the same
    /// values — the satellite guarantee that cache damage costs time,
    /// never correctness.
    #[test]
    fn warm_cache_reproduces_cold_results_and_survives_corruption() {
        let dir = std::env::temp_dir().join(format!("scd-sweep-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let a5 = SimConfig::embedded_a5();
        type Snapshot = Vec<(u64, u64, scd_sim::SimStats, CycleBreakdown)>;
        let sweep = |cache: &Cache| -> Snapshot {
            let mut m = RunMatrix::new();
            let plan = plan_matrix(
                &mut m,
                &a5,
                Vm::Lvm,
                ArgScale::Tiny,
                &[Variant::Baseline, Variant::Scd],
                true,
            );
            let r = m
                .run_cached(2, false, Some(cache), None)
                .expect("sweep clean");
            let matrix = plan.resolve(&r);
            let mut snap = Vec::new();
            for row in &matrix.rows {
                for v in [Variant::Baseline, Variant::Scd] {
                    let run = row.get(v);
                    snap.push((
                        run.checksum,
                        run.dispatches,
                        run.stats.clone(),
                        *row.breakdown(v),
                    ));
                }
            }
            snap
        };
        let stat = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::SeqCst);

        let cold_cache = Cache::open(&dir).expect("open cache");
        let cold = sweep(&cold_cache);
        let cells = stat(&cold_cache.stats.stores);
        assert!(cells > 0, "cold sweep must populate the cache");
        assert_eq!(stat(&cold_cache.stats.hits), 0);

        let warm_cache = Cache::open(&dir).expect("reopen cache");
        let warm = sweep(&warm_cache);
        assert_eq!(cold, warm, "warm results must be bit-identical to cold");
        assert_eq!(stat(&warm_cache.stats.hits), cells, "every cell must hit");
        assert_eq!(stat(&warm_cache.stats.misses), 0);

        // Truncate one committed entry mid-payload: quarantined, that
        // one cell recomputes, and the numbers still match.
        let victim = first_object(&dir);
        let bytes = std::fs::read(&victim).expect("read entry");
        std::fs::write(&victim, &bytes[..bytes.len() / 2]).expect("truncate entry");
        let hurt_cache = Cache::open(&dir).expect("reopen cache");
        let healed = sweep(&hurt_cache);
        assert_eq!(cold, healed, "recomputed results must be bit-identical");
        assert_eq!(stat(&hurt_cache.stats.quarantined), 1);
        assert_eq!(
            stat(&hurt_cache.stats.misses),
            0,
            "quarantines are counted apart"
        );
        assert_eq!(stat(&hurt_cache.stats.hits), cells - 1);
        assert_eq!(
            stat(&hurt_cache.stats.stores),
            1,
            "the healed entry is re-committed"
        );

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A sampled matrix validates every cell against the oracle, caches
    /// under keys disjoint from full-detail entries, and resumes warm
    /// with the sample report intact — the sweep-layer guarantees of the
    /// sampling tentpole.
    #[test]
    fn sampled_matrix_validates_and_caches_separately() {
        let dir = std::env::temp_dir().join(format!(
            "scd-sweep-sample-cache-test-{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let a5 = SimConfig::embedded_a5();
        let plan = SamplingPlan::parse("60k:10k:6k").expect("valid plan");
        let sweep = |sample: Option<SamplingPlan>, cache: &Cache| {
            let mut m = RunMatrix::new();
            m.set_sample(sample);
            let p = plan_matrix(
                &mut m,
                &a5,
                Vm::Lvm,
                ArgScale::Tiny,
                &[Variant::Baseline, Variant::Scd],
                false,
            );
            let r = m
                .run_cached(2, false, Some(cache), None)
                .expect("sweep clean");
            let matrix = p.resolve(&r);
            let mut snap = Vec::new();
            for row in &matrix.rows {
                for v in [Variant::Baseline, Variant::Scd] {
                    let run = row.get(v);
                    snap.push((run.checksum, run.dispatches, run.sample.is_some()));
                }
            }
            snap
        };
        let stat = |a: &std::sync::atomic::AtomicU64| a.load(Ordering::SeqCst);

        let det_cache = Cache::open(&dir).expect("open cache");
        let det = sweep(None, &det_cache);
        let cells = stat(&det_cache.stats.stores);
        assert!(cells > 0);
        assert!(det.iter().all(|&(_, _, sampled)| !sampled));

        // The sampled sweep shares the cache directory but must not see
        // a single full-detail entry as a hit (the plan splits the key).
        let smp_cache = Cache::open(&dir).expect("reopen cache");
        let smp = sweep(Some(plan), &smp_cache);
        assert_eq!(
            stat(&smp_cache.stats.hits),
            0,
            "plans must split cache keys"
        );
        assert_eq!(stat(&smp_cache.stats.stores), cells);
        assert!(smp.iter().all(|&(_, _, sampled)| sampled));
        // Architectural results are exact under sampling: checksums and
        // dispatch counts match the full-detail run bit for bit.
        let arch = |s: &[(u64, u64, bool)]| s.iter().map(|&(c, d, _)| (c, d)).collect::<Vec<_>>();
        assert_eq!(arch(&det), arch(&smp));

        // Warm rerun of the sampled matrix: every cell hits, with the
        // sample report still attached.
        let warm_cache = Cache::open(&dir).expect("reopen cache");
        let warm = sweep(Some(plan), &warm_cache);
        assert_eq!(
            stat(&warm_cache.stats.hits),
            cells,
            "every sampled cell must hit"
        );
        assert_eq!(smp, warm);

        let _ = std::fs::remove_dir_all(&dir);
    }

    /// First committed entry file under `<dir>/objects/<fan-out>/`.
    fn first_object(dir: &std::path::Path) -> std::path::PathBuf {
        let objects = dir.join("objects");
        for sub in std::fs::read_dir(&objects).expect("objects dir") {
            let sub = sub.expect("dir entry").path();
            if !sub.is_dir() {
                continue;
            }
            if let Some(f) = std::fs::read_dir(&sub).expect("fan-out dir").next() {
                return f.expect("dir entry").path();
            }
        }
        panic!("no committed cache entries under {}", objects.display());
    }

    #[test]
    fn sweep_matches_direct_runs_any_thread_count() {
        let a5 = SimConfig::embedded_a5();
        let plan_and_run = |threads: usize| {
            let mut m = RunMatrix::new();
            let plan = plan_matrix(
                &mut m,
                &a5,
                Vm::Lvm,
                ArgScale::Tiny,
                &[Variant::Baseline, Variant::Scd],
                true,
            );
            let r = m.run(threads, false);
            let matrix = plan.resolve(&r);
            let speedups: Vec<f64> = matrix
                .rows
                .iter()
                .map(|row| row.speedup(Variant::Scd))
                .collect();
            let events: Vec<u64> = matrix
                .rows
                .iter()
                .map(|row| row.breakdown(Variant::Scd).events)
                .collect();
            (speedups, events)
        };
        let one = plan_and_run(1);
        let four = plan_and_run(4);
        assert_eq!(one, four, "thread count must not change any result");
        // SCD wins on geomean even at tiny scale.
        let g = scd_sim::geomean(&one.0).expect("positive speedups");
        assert!(g > 1.0, "geomean speedup {g} <= 1");
    }
}
