//! Runs cells and batch passes, untraced or traced.
//!
//! The untraced path is what a user of each layer runs: a `Session`
//! per cell (`detailed`, `sampled`) or `scd_serve::run_batch` over
//! `simulate_job` (`batch`). The traced path makes the same public calls
//! inside spans; where a public call bundles several layers, it splits
//! the call into the public functions it is made of (the batch runner)
//! or times those functions on the side as probes (parse, compile,
//! image, guest build, the continuous RefCore run).

use crate::cells::Cell;
use crate::reference::{self, Reference, SampleCheck};
use crate::spans::{timed, Tracer};
use scd_guest::{RunRequest, Vm};
use scd_serve::payload::{self, CachedRun};
use scd_serve::{run_batch, simulate_job, Cache, JobDone, JobError, JobOutcome, JobSpec};
use scd_sim::lockstep::snapshot_core;
use scd_sim::{downcast_sink, CycleBreakdown, Machine};
use std::collections::HashMap;
use std::path::Path;
use std::sync::atomic::AtomicBool;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Batch worker threads: one per host CPU, the `scd serve` default. Each
/// untraced job runs the two-thread replay engine, so there is always
/// another thread to run while a producer or consumer waits for its
/// partner (see README.md, "Steadiness and bounds").
pub fn batch_workers() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Invariant-checker stride on traced jobs; the value `scd_serve`'s
/// job runner uses, so the traced batch path does the same work.
const INVARIANT_STRIDE: u64 = 1 << 16;

/// What one `detailed` or `sampled` cell did.
#[derive(Debug)]
pub struct CellOutcome {
    /// Cell id.
    pub id: String,
    /// Host time for the whole cell: set-up, run, validation, checks.
    pub latency: Duration,
    /// The validated result, `None` when the cell failed.
    pub run: Option<CachedRun>,
    /// Why the cell failed.
    pub failure: Option<String>,
    /// Sampled-estimate accuracy (`sampled` only).
    pub sample: Option<SampleCheck>,
    /// Instructions of the continuous RefCore run (traced `sampled` only).
    pub ref_insts: u64,
}

/// Times parse, compile, image layout and interpreter build on the side:
/// `Session::from_source` makes these calls but exposes only their sum.
fn probe_setup(t: &Tracer, parent: Option<usize>, cell: u32, req: &RunRequest<'_>) {
    let outer = t.open("setup.probe", parent, cell, true);
    {
        let p = Some(outer);
        let opts = req.opts;
        if let Ok(script) = t.time("luma.parse", p, cell, || luma::parser::parse(req.src)) {
            match req.vm {
                Vm::Lvm => {
                    let c = t.time("luma.compile", p, cell, || {
                        luma::lvm::compile_lvm(&script, req.predefined)
                    });
                    if let Ok((prog, init)) = c {
                        let img = t.time("guest.image", p, cell, || {
                            scd_guest::build_lvm_image(&prog, &init)
                        });
                        t.time("guest.build", p, cell, || {
                            scd_guest::build_lvm_guest(&img, req.scheme, opts)
                        });
                    }
                }
                Vm::Svm => {
                    let c = t.time("luma.compile", p, cell, || {
                        luma::svm::compile_svm(&script, req.predefined)
                    });
                    if let Ok((prog, init)) = c {
                        let img = t.time("guest.image", p, cell, || {
                            scd_guest::build_svm_image(&prog, &init)
                        });
                        t.time("guest.build", p, cell, || {
                            scd_guest::build_svm_guest(&img, req.scheme, opts)
                        });
                    }
                }
            }
        }
    }
    t.close(outer);
}

/// Ceiling of the fast-forward path: the cell run continuously on the
/// reference ISS from the machine's initial state. Returns the
/// instructions it retired (0 if it faulted).
fn ref_probe(t: &Tracer, parent: Option<usize>, cell: u32, machine: &Machine) -> u64 {
    let outer = t.open("ref.probe", parent, cell, true);
    let p = Some(outer);
    let mut core = t.time("ref.snapshot", p, cell, || snapshot_core(machine));
    let ok = t.time("ref.ff", p, cell, || core.run(u64::MAX)).is_ok();
    let insts = if ok { core.instructions } else { 0 };
    drop(core);
    t.close(outer);
    insts
}

/// Runs one `detailed` or `sampled` cell and checks it against the
/// reference. A failure of any kind is returned in the outcome.
pub fn run_cell(cell: &Cell, reference: &Reference, tr: Option<&Tracer>, idx: u32) -> CellOutcome {
    let t0 = Instant::now();
    let id = cell.id();
    let pre = cell.predefined();
    let req = cell.request(&pre);
    let root = tr.map(|t| t.open("cell", None, idx, false));
    if let Some(t) = tr {
        probe_setup(t, root, idx, &req);
    }
    let sim_err = |e: scd_sim::SimError| format!("simulation error: {e}");
    let mut ref_insts = 0;
    let result = timed(tr, "guest.session", root, idx, || req.session()).and_then(|mut session| {
        session.machine.disable_invariants();
        let Some(plan) = &req.sample else {
            let exit = timed(tr, "sim.run", root, idx, || session.machine.run(u64::MAX))
                .map_err(sim_err)?;
            let run = timed(tr, "luma.oracle", root, idx, || session.validate(&exit))
                .map_err(|e| e.to_string())?;
            return Ok(CachedRun::from_run(&run, None));
        };
        if let Some(t) = tr {
            ref_insts = ref_probe(t, root, idx, &session.machine);
        }
        let (exit, report) = timed(tr, "sim.sampled", root, idx, || {
            session.machine.run_sampled(u64::MAX, plan)
        })
        .map_err(sim_err)?;
        let mut run = timed(tr, "luma.oracle", root, idx, || session.validate(&exit))
            .map_err(|e| e.to_string())?;
        run.sample = Some(report);
        Ok(CachedRun::from_run(&run, None))
    });
    let checked = timed(tr, "bench.check", root, idx, || {
        result.and_then(|run| {
            let sample = if cell.sampled {
                Some(reference::check_sampled(reference, &id, &run)?)
            } else {
                reference::check_exact(reference, &id, &run)?;
                None
            };
            Ok((run, sample))
        })
    });
    if let (Some(t), Some(r)) = (tr, root) {
        t.close(r);
    }
    let (run, sample, failure) = match checked {
        Ok((run, sample)) => (Some(run), sample, None),
        Err(e) => (None, None, Some(format!("{id}: {e}"))),
    };
    CellOutcome {
        id,
        latency: t0.elapsed(),
        run,
        failure,
        sample,
        ref_insts,
    }
}

/// One job of a batch pass as the runner closure saw it.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Host time inside the runner closure.
    pub latency: Duration,
    /// The outcome the driver emitted.
    pub outcome: JobOutcome,
}

/// One submission of the batch (cold or warm).
#[derive(Debug)]
pub struct Submission {
    /// Wall time of `run_batch`.
    pub wall: Duration,
    /// Per-job records, in input order.
    pub jobs: Vec<JobRecord>,
}

/// One batch pass: the batch submitted cold, then warm, against a fresh
/// cache.
#[derive(Debug)]
pub struct BatchPass {
    /// Cold submission: every job computes and stores.
    pub cold: Submission,
    /// Warm submission: every job loads and decodes.
    pub warm: Submission,
    /// Cache hit rate over both submissions.
    pub hit_rate: f64,
    /// What the pass's checks found wrong.
    pub failures: Vec<String>,
    /// Submissions (cold or warm) that did not deliver a validated
    /// result, plus pass-level faults.
    pub failed: usize,
}

/// Runs `jobs` traced: `simulate_job` split into its public parts.
fn traced_job(job: &JobSpec, cache: &Cache, t: &Tracer, idx: u32) -> Result<JobDone, JobError> {
    let started = Instant::now();
    let root = t.open("job", None, idx, false);
    let p = Some(root);
    let result = (|| {
        let key = t.time("serve.key", p, idx, || Cache::key(&job.cache_manifest()));
        if let Some(bytes) = t.time("serve.load", p, idx, || cache.load(&key)) {
            let decoded = t.time("serve.decode", p, idx, || {
                std::str::from_utf8(&bytes)
                    .map_err(|e| e.to_string())
                    .and_then(payload::decode)
            });
            if let Ok(run) = decoded {
                if (!job.traced || run.breakdown.is_some())
                    && job.sample.is_some() == run.sample.is_some()
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
        let name = if job.traced {
            "serve.job_traced"
        } else {
            "serve.job_detailed"
        };
        job.with_request(|req| probe_setup(t, p, idx, req));
        let span = t.open(name, p, idx, false);
        let run = compute_traced(job, t, Some(span), idx);
        t.close(span);
        let run = run?;
        let text = t.time("serve.encode", p, idx, || payload::encode(&run));
        t.time("serve.store", p, idx, || cache.store(&key, text.as_bytes()))
            .map_err(|e| JobError::Io(format!("cache store {}: {e}", cache.root().display())))?;
        Ok(JobDone {
            key,
            cached: false,
            attempts: 1,
            run,
            wall: started.elapsed(),
        })
    })();
    t.close(root);
    result
}

/// The compute step of `simulate_job` (full detail; the batch has no
/// sampled jobs), one span per layer call.
fn compute_traced(
    job: &JobSpec,
    t: &Tracer,
    p: Option<usize>,
    idx: u32,
) -> Result<CachedRun, JobError> {
    if job.sample.is_some() {
        return Err(JobError::Guest(
            "the traced batch runner does not run sampled jobs".to_string(),
        ));
    }
    job.with_request(|req| {
        let mut session = t
            .time("guest.session", p, idx, || req.session())
            .map_err(JobError::Compile)?;
        let m = &mut session.machine;
        if job.traced {
            m.enable_invariants(INVARIANT_STRIDE);
            m.set_trace_sink(Box::new(CycleBreakdown::default()));
        } else {
            m.disable_invariants();
        }
        let exit = t
            .time("sim.run", p, idx, || m.run(job.max_insts))
            .map_err(|e| JobError::Guest(format!("simulation error: {e}")))?;
        let run = t
            .time("luma.oracle", p, idx, || session.validate(&exit))
            .map_err(|e| JobError::Guest(e.to_string()))?;
        let breakdown = if job.traced {
            let sink = session
                .machine
                .take_trace_sink()
                .and_then(downcast_sink::<CycleBreakdown>);
            Some(*sink.ok_or_else(|| JobError::Guest("trace sink did not come back".to_string()))?)
        } else {
            None
        };
        Ok(CachedRun::from_run(&run, breakdown.as_ref()))
    })
}

fn submit(jobs: &[JobSpec], cache: &Cache, tr: Option<&Tracer>, base: u32) -> Submission {
    let index: HashMap<&str, u32> = jobs
        .iter()
        .enumerate()
        .map(|(i, j)| (j.id.as_str(), i as u32))
        .collect();
    let latencies = Mutex::new(vec![Duration::ZERO; jobs.len()]);
    let never = AtomicBool::new(false);
    let mut records: Vec<JobRecord> = Vec::with_capacity(jobs.len());
    let t0 = Instant::now();
    run_batch(
        jobs,
        batch_workers(),
        &never,
        |job| {
            let i = index[job.id.as_str()];
            let start = Instant::now();
            let r = match tr {
                None => simulate_job(job, Some(cache), None),
                Some(t) => traced_job(job, cache, t, base + i),
            };
            latencies.lock().expect("latency list poisoned")[i as usize] += start.elapsed();
            r
        },
        |_, _, outcome| {
            records.push(JobRecord {
                latency: Duration::ZERO,
                outcome: outcome.clone(),
            });
        },
    );
    let wall = t0.elapsed();
    let latencies = latencies.into_inner().expect("latency list poisoned");
    for (r, l) in records.iter_mut().zip(latencies) {
        r.latency = l;
    }
    Submission {
        wall,
        jobs: records,
    }
}

/// Runs one batch pass over `cells` with a fresh cache under `dir`.
pub fn batch_pass(cells: &[Cell], dir: &Path, tr: Option<&Tracer>, base: u32) -> BatchPass {
    let text = crate::cells::jsonl(cells);
    let jobs = timed(tr, "serve.parse_jobs", None, base, || {
        scd_serve::parse_jobs(&text)
    });
    let _ = std::fs::remove_dir_all(dir);
    let cache = Cache::open(dir);
    let (jobs, cache) = match (jobs, cache) {
        (Ok(j), Ok(c)) => (j, c),
        (Err(e), _) => return BatchPass::broken(format!("parse_jobs: {e}")),
        (_, Err(e)) => return BatchPass::broken(format!("cache open {}: {e}", dir.display())),
    };
    let n = jobs.len() as u32;
    let cold = submit(&jobs, &cache, tr, base);
    let warm_span = tr.map(|t| t.open("serve.warm_pass", None, base, false));
    let warm = submit(&jobs, &cache, tr, base + n);
    if let (Some(t), Some(s)) = (tr, warm_span) {
        t.close(s);
    }
    let hit_rate = cache.stats.hit_rate().unwrap_or(0.0);
    let mut failures = Vec::new();
    let mut failed = 0;
    for (i, job) in jobs.iter().enumerate() {
        let (cold_o, warm_o) = (&cold.jobs[i].outcome, &warm.jobs[i].outcome);
        let cold_run = match cold_o {
            JobOutcome::Done(c) if !c.cached && job.traced == c.run.breakdown.is_some() => {
                Some(&c.run)
            }
            other => {
                failures.push(format!("{}: cold submission {}", job.id, describe(other)));
                None
            }
        };
        let warm_ok = match warm_o {
            JobOutcome::Done(w) => w.cached && cold_run.is_none_or(|c| *c == w.run),
            _ => false,
        };
        if !warm_ok {
            failures.push(format!("{}: warm submission {}", job.id, describe(warm_o)));
        }
        failed += usize::from(cold_run.is_none()) + usize::from(!warm_ok);
    }
    drop(cache);
    if let Err(e) = std::fs::remove_dir_all(dir) {
        failures.push(format!("removing {}: {e}", dir.display()));
        failed += 1;
    }
    BatchPass {
        cold,
        warm,
        hit_rate,
        failures,
        failed,
    }
}

fn describe(o: &JobOutcome) -> String {
    match o {
        JobOutcome::Done(d) => format!(
            "ok (cached={}, traced breakdown={})",
            d.cached,
            d.run.breakdown.is_some()
        ),
        JobOutcome::Failed { error, .. } => format!("{} ({})", error.kind(), error.message()),
        JobOutcome::Cancelled => "cancelled".to_string(),
    }
}

impl BatchPass {
    fn broken(why: String) -> BatchPass {
        let empty = || Submission {
            wall: Duration::ZERO,
            jobs: Vec::new(),
        };
        BatchPass {
            cold: empty(),
            warm: empty(),
            hit_rate: 0.0,
            failures: vec![why],
            failed: 1,
        }
    }

    /// Submissions attempted (cold plus warm; at least one, so a pass
    /// that broke before submitting still counts).
    pub fn attempted(&self) -> usize {
        (self.cold.jobs.len() + self.warm.jobs.len()).max(self.failed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::Cfg;
    use scd_guest::Scheme;

    #[test]
    fn tampered_reference_entry_fails_the_cell_without_panicking() {
        let cell = Cell {
            bench: luma::scripts::find("fibo").expect("fibo"),
            arg: 8.0,
            vm: Vm::Lvm,
            scheme: Scheme::Scd,
            cfg: Cfg::EmbeddedA5,
            sampled: false,
            traced: false,
        };
        let pre = cell.predefined();
        let run = CachedRun::from_run(&cell.request(&pre).run().expect("fibo runs"), None);
        let good = reference::line(&cell.id(), &run);
        let ok = run_cell(&cell, &Reference::parse(&good), None, 0);
        assert_eq!(ok.failure, None);
        assert_eq!(ok.run.as_ref(), Some(&run));

        let tampered = Reference::parse(&good.replacen("\"cycles\":", "\"cycles\":1", 1));
        let bad = run_cell(&cell, &tampered, None, 0);
        assert!(bad.failure.is_some_and(|f| f.contains("differ")) && bad.run.is_none());

        let t = Tracer::default();
        let traced = run_cell(&cell, &tampered, Some(&t), 0);
        assert!(traced.failure.is_some());
        assert!(
            t.spans().iter().all(|s| s.end > s.start),
            "every span closed"
        );
        assert!(
            run_cell(&cell, &Reference::default(), None, 0)
                .failure
                .is_some(),
            "missing entry"
        );
    }
}
