//! The one worker pool and the one job runner.
//!
//! Every fan-out in the workspace runs on the private in-order
//! streaming pool below, through one of two adapters:
//!
//! - [`run_batch`] — jobs with panic isolation, one retry of transient
//!   failures, and a tally: `scd serve`'s batches and the sweep's cell
//!   matrix (each unique cell is a [`JobSpec`] run by [`simulate_job`]);
//! - [`parallel_map`] — a plain order-preserving map for fan-outs that
//!   are not cached jobs (the oracle and fault-check matrices, `scd
//!   fuzz`).
//!
//! The pool's rules are what make interruption safe:
//!
//! - workers check the interrupt flag *before* claiming an index, and
//!   the shared cursor hands indices out monotonically — so the claimed
//!   set is always a contiguous prefix and every unclaimed item is
//!   reported cancelled rather than silently dropped;
//! - results cross a bounded channel (a consumer that falls behind
//!   stalls the pool) into a reorder buffer, so they surface in input
//!   order whatever the thread count;
//! - in-flight items run to completion before the pool returns, so the
//!   finished jobs of an interrupted batch have committed their cache
//!   entries and a rerun resumes as cache hits.

use crate::cache::Cache;
use crate::jobs::{JobDone, JobError, JobOutcome, JobSpec};
use crate::payload::{self, CachedRun};
use scd_guest::{GuestError, RunRequest};
use scd_sim::{downcast_sink, CycleBreakdown, SamplingPlan, SimError, WatchdogKind};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Stride for the stat-invariant checker on traced jobs and on jobs
/// that ask for it (`JobSpec::invariants`).
const INVARIANT_STRIDE: u64 = 1 << 16;

/// What a finished batch looked like.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct BatchSummary {
    /// Jobs that completed and validated.
    pub ok: usize,
    /// Jobs that failed (after any retry).
    pub failed: usize,
    /// Jobs never started because the batch was interrupted.
    pub cancelled: usize,
}

impl BatchSummary {
    /// Whether the batch was cut short.
    pub fn interrupted(&self) -> bool {
        self.cancelled > 0
    }
}

/// Extracts a printable message from a panic payload (the
/// `catch_unwind` error value).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_else(|| "non-string panic payload".to_string())
}

/// The pool: runs `work` on every item on up to `threads` scoped
/// workers and hands each result to `emit` **in input order**, with
/// `None` for an item never claimed because `interrupt` was raised
/// first. `work` must not unwind; both adapters catch panics inside it.
fn stream_in_order<T, U, W>(
    items: &[T],
    threads: usize,
    interrupt: &AtomicBool,
    work: W,
    mut emit: impl FnMut(usize, Option<U>),
) where
    T: Sync,
    U: Send,
    W: Fn(&T) -> U + Sync,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        for (i, item) in items.iter().enumerate() {
            let out = (!interrupt.load(Ordering::SeqCst)).then(|| work(item));
            emit(i, out);
        }
        return;
    }

    let cursor = AtomicUsize::new(0);
    // Bounded: a consumer that falls behind stalls the pool instead of
    // letting results pile up unboundedly.
    let (tx, rx) = mpsc::sync_channel::<(usize, U)>(2 * threads);
    std::thread::scope(|s| {
        for _ in 0..threads {
            let tx = tx.clone();
            let (cursor, work) = (&cursor, &work);
            s.spawn(move || loop {
                if interrupt.load(Ordering::SeqCst) {
                    break;
                }
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                if tx.send((i, work(item))).is_err() {
                    break;
                }
            });
        }
        drop(tx);

        // Reorder: results surface in input order no matter which
        // worker finished first.
        let mut next = 0usize;
        let mut pending = BTreeMap::new();
        for (i, out) in rx {
            pending.insert(i, out);
            while let Some(out) = pending.remove(&next) {
                emit(next, Some(out));
                next += 1;
            }
        }
        // Claims are a contiguous prefix (interrupt is checked before
        // each claim), so everything left is unclaimed.
        debug_assert!(pending.is_empty(), "non-contiguous claim set");
        for i in next..items.len() {
            emit(i, None);
        }
    });
}

/// Runs `runner` once per job on `threads` workers, delivering every
/// outcome to `emit` **in input order** (a reorder buffer over a
/// bounded channel: slow consumers exert backpressure on the pool).
///
/// Panic isolation and retry live here, wrapped around `runner`: a
/// panicking worker yields [`JobError::Panic`] for that job and the
/// pool keeps going; transient failures (panics, I/O) get exactly one
/// retry, deterministic failures none. When `interrupt` becomes true,
/// workers stop claiming new jobs, in-flight jobs finish, and every
/// unclaimed job is emitted as [`JobOutcome::Cancelled`].
pub fn run_batch<F>(
    jobs: &[JobSpec],
    threads: usize,
    interrupt: &AtomicBool,
    runner: F,
    mut emit: impl FnMut(usize, &JobSpec, &JobOutcome),
) -> BatchSummary
where
    F: Fn(&JobSpec) -> Result<JobDone, JobError> + Sync,
{
    let attempt = |job: &JobSpec| -> JobOutcome {
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            let error = match catch_unwind(AssertUnwindSafe(|| runner(job))) {
                Ok(Ok(mut done)) => {
                    done.attempts = attempts;
                    return JobOutcome::Done(Box::new(done));
                }
                Ok(Err(e)) => e,
                Err(payload) => JobError::Panic(panic_message(payload)),
            };
            if attempts >= 2 || !error.transient() {
                return JobOutcome::Failed { error, attempts };
            }
        }
    };

    let mut summary = BatchSummary::default();
    stream_in_order(jobs, threads, interrupt, attempt, |i, outcome| {
        let outcome = outcome.unwrap_or(JobOutcome::Cancelled);
        match &outcome {
            JobOutcome::Done(_) => summary.ok += 1,
            JobOutcome::Failed { .. } => summary.failed += 1,
            JobOutcome::Cancelled => summary.cancelled += 1,
        }
        emit(i, &jobs[i], &outcome);
    });
    summary
}

/// Order-preserving parallel map over a slice on the same pool: `f` on
/// every item on up to `threads` workers (`threads <= 1` maps
/// sequentially on the calling thread), results in input order.
///
/// # Panics
/// Re-raises the first worker panic — but only after every other item
/// has completed, so one bad item does not discard the rest of the
/// computation mid-flight.
pub fn parallel_map<T, U, F>(items: &[T], threads: usize, f: F) -> Vec<U>
where
    T: Sync,
    U: Send,
    F: Fn(&T) -> U + Sync,
{
    let mut results = Vec::with_capacity(items.len());
    let mut first_panic = None;
    let work = |item: &T| catch_unwind(AssertUnwindSafe(|| f(item))).map_err(panic_message);
    stream_in_order(
        items,
        threads,
        &AtomicBool::new(false),
        work,
        |_, out| match out.expect("the interrupt flag is never raised") {
            Ok(v) => results.push(v),
            Err(msg) => {
                first_panic.get_or_insert(msg);
            }
        },
    );
    match first_panic {
        None => results,
        Some(msg) => panic!("parallel_map worker panicked: {msg}"),
    }
}

/// The cache manifest for `req` widened with the trace discriminator —
/// the one canonical key-derivation every cache client (the serve
/// driver, the sweep) must share so their entries interoperate.
pub fn manifest_for(req: &RunRequest<'_>, traced: bool) -> String {
    let mut m = req.cache_manifest();
    m.push_str("\ntraced ");
    m.push_str(if traced { "1" } else { "0" });
    m
}

/// Runs one job for real: cache lookup, simulate + oracle-validate on
/// miss, cache store. This is the `runner` both `scd serve` and the
/// sweep pass to [`run_batch`].
///
/// # Errors
/// [`JobError`] describing the failure; [`JobError::Io`] (a failed
/// cache store) is transient and will be retried once by the driver.
pub fn simulate_job(
    job: &JobSpec,
    cache: Option<&Cache>,
    timeout: Option<Duration>,
) -> Result<JobDone, JobError> {
    let started = Instant::now();
    let key = cache
        .map(|_| Cache::key(&job.cache_manifest()))
        .unwrap_or_default();
    if let Some(c) = cache {
        if let Some(bytes) = c.load(&key) {
            // The checksum passed but the payload may still predate a
            // format change; a decode failure (or a breakdown missing
            // where the job needs one) degrades to recompute.
            if let Ok(run) = std::str::from_utf8(&bytes)
                .map_err(|e| e.to_string())
                .and_then(payload::decode)
            {
                // A traced job needs a breakdown; a sampled job needs a
                // sample report under its own plan (and a detailed job
                // must not get one) — the manifests already keep these
                // apart, so this only guards against entries that
                // predate a format change, such as split-plan entries
                // whose payload dropped the per-structure windows.
                let plan = job.sample.map(|p| SamplingPlan {
                    self_check: false,
                    ..p
                });
                if (!job.traced || run.breakdown.is_some())
                    && plan == run.sample.as_ref().map(|r| r.plan)
                {
                    return Ok(JobDone {
                        key,
                        cached: true,
                        attempts: 1,
                        run,
                        wall: started.elapsed(),
                    });
                }
            }
        }
    }

    let run = compute_job(job, timeout)?;
    if let Some(c) = cache {
        let text = payload::encode(&run);
        c.store(&key, text.as_bytes())
            .map_err(|e| JobError::Io(format!("cache store {}: {e}", c.root().display())))?;
    }
    Ok(JobDone {
        key,
        cached: false,
        attempts: 1,
        run,
        wall: started.elapsed(),
    })
}

/// Simulates and oracle-validates one job (no cache involvement).
fn compute_job(job: &JobSpec, timeout: Option<Duration>) -> Result<CachedRun, JobError> {
    job.with_request(|req| {
        let mut session = req.session().map_err(JobError::Compile)?;
        let m = &mut session.machine;
        // Sampled runs forbid per-retirement observers, so only the
        // detailed path can be traced or checked; everything else keeps
        // the uninstrumented loop (debug builds otherwise auto-arm the
        // invariant observer).
        let detailed = req.sample.is_none();
        if detailed && (job.traced || job.invariants) {
            m.enable_invariants(INVARIANT_STRIDE);
        } else {
            m.disable_invariants();
        }
        if detailed && job.traced {
            m.set_trace_sink(Box::new(CycleBreakdown::default()));
        }
        if let Some(t) = timeout {
            m.set_wall_budget(t);
        }
        let run = session.run_and_validate().map_err(|e| match e {
            GuestError::Sim(SimError::Watchdog {
                kind: WatchdogKind::WallClock,
                ..
            }) => JobError::Timeout(timeout.unwrap_or_default()),
            e => JobError::Guest(e.to_string()),
        })?;
        let breakdown = if detailed && job.traced {
            let sink = session
                .machine
                .take_trace_sink()
                .and_then(downcast_sink::<CycleBreakdown>)
                .ok_or_else(|| {
                    JobError::Guest("trace sink did not come back from the machine".to_string())
                })?;
            Some(*sink)
        } else {
            None
        };
        Ok(CachedRun::from_run(&run, breakdown.as_ref()))
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use scd_guest::{GuestOptions, Scheme, Vm};
    use scd_sim::{SimConfig, SimStats};
    use std::sync::atomic::AtomicU32;
    use std::sync::Mutex;

    fn job(id: &str) -> JobSpec {
        JobSpec {
            id: id.to_string(),
            vm: Vm::Lvm,
            scheme: Scheme::Scd,
            cfg: SimConfig::embedded_a5(),
            src: "emit(1);".to_string(),
            predefined: Vec::new(),
            max_insts: u64::MAX,
            opts: GuestOptions::default(),
            traced: false,
            sample: None,
            invariants: false,
        }
    }

    fn done() -> JobDone {
        JobDone {
            key: String::new(),
            cached: false,
            attempts: 1,
            run: CachedRun {
                checksum: 0,
                dispatches: 0,
                stats: SimStats::default(),
                breakdown: None,
                sample: None,
            },
            wall: Duration::ZERO,
        }
    }

    fn collect(
        jobs: &[JobSpec],
        threads: usize,
        interrupt: &AtomicBool,
        runner: impl Fn(&JobSpec) -> Result<JobDone, JobError> + Sync,
    ) -> (BatchSummary, Vec<(usize, JobOutcome)>) {
        let mut seen = Vec::new();
        let summary = run_batch(jobs, threads, interrupt, runner, |i, _, o| {
            seen.push((i, o.clone()))
        });
        (summary, seen)
    }

    #[test]
    fn panicking_worker_is_isolated_per_job() {
        let jobs: Vec<JobSpec> = ["a", "bad", "c", "d"].map(job).to_vec();
        for threads in [1, 3] {
            let (summary, seen) = collect(&jobs, threads, &AtomicBool::new(false), |j| {
                if j.id == "bad" {
                    panic!("injected worker panic for {}", j.id);
                }
                Ok(done())
            });
            assert_eq!(
                summary,
                BatchSummary {
                    ok: 3,
                    failed: 1,
                    cancelled: 0
                }
            );
            let order: Vec<usize> = seen.iter().map(|(i, _)| *i).collect();
            assert_eq!(
                order,
                vec![0, 1, 2, 3],
                "threads={threads}: order must be input order"
            );
            match &seen[1].1 {
                JobOutcome::Failed {
                    error: JobError::Panic(msg),
                    attempts: 2,
                } => {
                    assert!(msg.contains("injected worker panic"), "payload kept: {msg}");
                }
                other => panic!("want Panic after one retry, got {other:?}"),
            }
        }
    }

    #[test]
    fn transient_failure_gets_exactly_one_retry() {
        let jobs = vec![job("flaky")];
        let calls = AtomicU32::new(0);
        let (summary, seen) = collect(&jobs, 1, &AtomicBool::new(false), |_| {
            if calls.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("first attempt dies");
            }
            Ok(done())
        });
        assert_eq!(calls.load(Ordering::SeqCst), 2);
        assert_eq!(summary.ok, 1);
        match &seen[0].1 {
            JobOutcome::Done(d) => assert_eq!(d.attempts, 2),
            other => panic!("want Done on retry, got {other:?}"),
        }
    }

    #[test]
    fn deterministic_failures_are_not_retried() {
        let jobs = vec![job("broken")];
        let calls = AtomicU32::new(0);
        let (summary, seen) = collect(&jobs, 1, &AtomicBool::new(false), |_| {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(JobError::Guest("checksum mismatch".to_string()))
        });
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1,
            "guest errors repeat; don't retry them"
        );
        assert_eq!(summary.failed, 1);
        assert!(matches!(
            &seen[0].1,
            JobOutcome::Failed {
                error: JobError::Guest(_),
                attempts: 1
            }
        ));
    }

    #[test]
    fn io_failures_are_retried_panics_preserved() {
        let jobs = vec![job("io")];
        let calls = AtomicU32::new(0);
        let (_, seen) = collect(&jobs, 1, &AtomicBool::new(false), |_| {
            calls.fetch_add(1, Ordering::SeqCst);
            Err(JobError::Io("disk full".to_string()))
        });
        assert_eq!(
            calls.load(Ordering::SeqCst),
            2,
            "I/O errors are transient: one retry"
        );
        assert!(matches!(
            &seen[0].1,
            JobOutcome::Failed {
                error: JobError::Io(_),
                attempts: 2
            }
        ));
    }

    #[test]
    fn interrupt_cancels_unclaimed_jobs() {
        let jobs: Vec<JobSpec> = (0..6).map(|i| job(&format!("j{i}"))).collect();
        let interrupt = AtomicBool::new(false);
        let started = Mutex::new(Vec::new());
        let (summary, seen) = collect(&jobs, 1, &interrupt, |j| {
            started.lock().unwrap().push(j.id.clone());
            if j.id == "j1" {
                // Simulate SIGINT arriving while job 1 runs.
                interrupt.store(true, Ordering::SeqCst);
            }
            Ok(done())
        });
        assert_eq!(
            summary,
            BatchSummary {
                ok: 2,
                failed: 0,
                cancelled: 4
            }
        );
        assert!(summary.interrupted());
        assert_eq!(
            *started.lock().unwrap(),
            vec!["j0", "j1"],
            "in-flight jobs finish"
        );
        for (i, o) in &seen[2..] {
            assert!(
                matches!(o, JobOutcome::Cancelled),
                "job {i} must be cancelled"
            );
        }
    }

    #[test]
    fn interrupt_with_pool_reports_every_job() {
        // With several workers the exact cut point varies; the contract
        // is: every job gets exactly one outcome, in input order, and
        // claimed ∪ cancelled covers the batch.
        let jobs: Vec<JobSpec> = (0..32).map(|i| job(&format!("j{i}"))).collect();
        let interrupt = AtomicBool::new(false);
        let (summary, seen) = collect(&jobs, 4, &interrupt, |j| {
            if j.id == "j3" {
                interrupt.store(true, Ordering::SeqCst);
            }
            Ok(done())
        });
        assert_eq!(seen.len(), jobs.len());
        let order: Vec<usize> = seen.iter().map(|(i, _)| *i).collect();
        assert_eq!(order, (0..jobs.len()).collect::<Vec<_>>());
        assert_eq!(summary.ok + summary.failed + summary.cancelled, jobs.len());
        assert!(summary.cancelled > 0, "interrupt must cancel the tail");
        // Cancelled outcomes form a suffix: claims are a contiguous
        // prefix by construction.
        let first_cancelled = seen
            .iter()
            .position(|(_, o)| matches!(o, JobOutcome::Cancelled))
            .expect("some job cancelled");
        for (i, o) in &seen[first_cancelled..] {
            assert!(
                matches!(o, JobOutcome::Cancelled),
                "job {i} in the cancelled suffix"
            );
        }
    }

    #[test]
    fn parallel_map_is_order_preserving() {
        let items: Vec<u64> = (0..97).collect();
        let seq: Vec<u64> = items.iter().map(|x| x * x).collect();
        for threads in [1, 2, 7] {
            assert_eq!(parallel_map(&items, threads, |x| x * x), seq);
        }
    }

    #[test]
    fn parallel_map_finishes_other_items_before_reraising() {
        let items: Vec<u64> = (0..8).collect();
        let completed = AtomicUsize::new(0);
        let err = catch_unwind(AssertUnwindSafe(|| {
            parallel_map(&items, 4, |&x| {
                if x == 3 {
                    panic!("injected cell failure");
                }
                completed.fetch_add(1, Ordering::SeqCst);
                x
            })
        }))
        .expect_err("the worker panic must surface");
        let msg = err.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(
            msg.contains("injected cell failure"),
            "message preserved: {msg}"
        );
        assert_eq!(
            completed.load(Ordering::SeqCst),
            7,
            "the other items still ran"
        );
    }

    /// A cache entry whose payload nests far past any schema (its
    /// checksum is valid, so only the decoder can reject it) is a miss:
    /// the job recomputes and overwrites it, with no panic.
    #[test]
    fn deeply_nested_cached_payload_recomputes() {
        let dir = std::env::temp_dir().join(format!("scd-driver-deep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Cache::open(&dir).expect("open cache");
        let j = job("deep");
        let key = Cache::key(&j.cache_manifest());
        let deep = format!(
            "{{\"v\":{}{}}}",
            "[".repeat(1_000_000),
            "]".repeat(1_000_000)
        );
        cache.store(&key, deep.as_bytes()).expect("store");

        let done = simulate_job(&j, Some(&cache), None).expect("recomputes");
        assert!(!done.cached, "an undecodable entry is a miss");
        let fresh = simulate_job(&j, None, None).expect("runs uncached");
        assert_eq!(done.run, fresh.run);
        let again = simulate_job(&j, Some(&cache), None).expect("hits");
        assert!(again.cached, "the recomputed entry replaced the bad one");
        assert_eq!(again.run, done.run);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn split_plan_entry_without_its_windows_recomputes() {
        let dir = std::env::temp_dir().join(format!("scd-driver-split-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = Cache::open(&dir).expect("open cache");
        let mut j = job("split");
        j.sample = Some(SamplingPlan::parse("1M:20k/BTB=2k,PRED=5k:20k").unwrap());
        let key = Cache::key(&j.cache_manifest());
        let fresh = simulate_job(&j, None, None).expect("runs uncached");
        // The three-entry plan older payloads wrote for every plan.
        let old = payload::encode(&fresh.run).replace(
            "\"plan\":[1000000,20000,20000,2000,5000]",
            "\"plan\":[1000000,20000,20000]",
        );
        cache.store(&key, old.as_bytes()).expect("store");

        let done = simulate_job(&j, Some(&cache), None).expect("recomputes");
        assert!(!done.cached, "an entry under another plan is a miss");
        assert_eq!(done.run, fresh.run);
        let again = simulate_job(&j, Some(&cache), None).expect("hits");
        assert!(again.cached);
        assert_eq!(again.run, fresh.run);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn pool_preserves_input_order_under_contention() {
        let jobs: Vec<JobSpec> = (0..64).map(|i| job(&format!("j{i}"))).collect();
        let (summary, seen) = collect(&jobs, 8, &AtomicBool::new(false), |j| {
            // Vary the work so completion order scrambles.
            let spin = j.id.len() * 1000;
            std::hint::black_box((0..spin).sum::<usize>());
            Ok(done())
        });
        assert_eq!(summary.ok, 64);
        let order: Vec<usize> = seen.iter().map(|(i, _)| *i).collect();
        assert_eq!(order, (0..64).collect::<Vec<_>>());
    }
}
