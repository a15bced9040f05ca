//! The repository benchmark. See README.md for the workloads, the
//! metrics and the layer each per-layer metric belongs to.
//!
//! ```text
//! perfbench --workload <detailed|sampled|batch> --seed N --seconds S --trace <0|1> [--out DIR]
//! perfbench reference <detailed|sampled>
//! ```
//!
//! The last stdout line is one JSON object: `correct`, `attempted`,
//! `failed` and `metrics` (the end-to-end metrics untraced, the
//! per-layer metrics with `--trace 1`). Host context goes to stderr.

mod cells;
mod metrics;
mod reference;
mod spans;
mod workloads;

use cells::{Cell, Workload};
use metrics::{LayerInputs, Report};
use reference::Reference;
use spans::Tracer;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use workloads::{BatchPass, CellOutcome};

/// Full-detail reference results, built into the binary.
fn reference_text(w: Workload) -> &'static str {
    match w {
        Workload::Detailed => include_str!("../reference/detailed.tsv"),
        Workload::Sampled => include_str!("../reference/sampled.tsv"),
        Workload::Batch => "",
    }
}

struct Opts {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

const USAGE: &str = "usage: perfbench --workload <detailed|sampled|batch> --seed N --seconds S --trace <0|1> [--out DIR]\n       perfbench reference <detailed|sampled>";

enum Command {
    Run(Opts),
    Reference(Workload),
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut out = PathBuf::from(".bench_build/perfbench-out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "reference" {
            let w = it
                .next()
                .and_then(|s| Workload::parse(s))
                .filter(|w| *w != Workload::Batch);
            return w
                .map(Command::Reference)
                .ok_or("reference takes detailed or sampled".to_string());
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => trace = Some(num()? != 0),
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Command::Run(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        out,
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Command::Run(o)) => run(&o),
        Ok(Command::Reference(w)) => regenerate_reference(w),
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

/// One pass of `detailed` or `sampled`.
struct CellPass {
    wall: Duration,
    outcomes: Vec<CellOutcome>,
}

/// Runs `cells`, calling `between` after each one off the pass's clock.
fn cell_pass(
    w: Workload,
    cells: &[Cell],
    draw: Duration,
    tr: Option<&Tracer>,
    base: u32,
    between: &mut dyn FnMut(),
) -> CellPass {
    let t0 = Instant::now();
    let reference = Reference::parse(reference_text(w));
    let mut outcomes = Vec::with_capacity(cells.len());
    let mut aside = Duration::ZERO;
    for (i, c) in cells.iter().enumerate() {
        outcomes.push(workloads::run_cell(c, &reference, tr, base + i as u32));
        let t = Instant::now();
        between();
        aside += t.elapsed();
    }
    CellPass {
        wall: draw + t0.elapsed() - aside,
        outcomes,
    }
}

fn batch_pass(
    o: &Opts,
    cells: &[Cell],
    draw: Duration,
    tr: Option<&Tracer>,
    n: usize,
) -> (BatchPass, Duration) {
    let t0 = Instant::now();
    let dir = o.out.join(format!("cache-{}-{n}", std::process::id()));
    let pass = workloads::batch_pass(cells, &dir, tr, (n * 2 * cells.len()) as u32);
    (pass, draw + t0.elapsed())
}

/// Fewest set-up samples behind `setup_s`.
const SETUP_REPS: usize = 9;

/// Samples the host time to set up a pass before its first cell can run:
/// the draw, then the reference decode (`detailed`, `sampled`) or the
/// JSONL render, `parse_jobs` and a fresh cache (`batch`), then
/// `Session::from_source` for every cell of the pass. An untraced run
/// takes one sample after every cell (`batch`: every pass), off the
/// measured clock, so the median spans the run instead of one moment of
/// a host whose speed drifts.
struct SetupSampler {
    workload: Workload,
    seed: u64,
    dir: PathBuf,
    samples: Vec<f64>,
    failures: Vec<String>,
}

impl SetupSampler {
    fn new(o: &Opts) -> SetupSampler {
        SetupSampler {
            workload: o.workload,
            seed: o.seed,
            dir: o.out.join(format!("setup-cache-{}", std::process::id())),
            samples: Vec::new(),
            failures: Vec::new(),
        }
    }

    fn sample(&mut self) {
        let dir = &self.dir;
        let t0 = Instant::now();
        let cells = cells::draw_pass(self.workload, self.seed, 0);
        let sessions: Vec<Result<(), String>> = if self.workload == Workload::Batch {
            let jobs = scd_serve::parse_jobs(&cells::jsonl(&cells));
            let _ = std::fs::remove_dir_all(dir);
            let cache = scd_serve::Cache::open(dir)
                .map_err(|e| format!("cache open {}: {e}", dir.display()));
            match (jobs, cache) {
                (Ok(jobs), Ok(_cache)) => jobs
                    .iter()
                    .map(|j| j.with_request(|r| r.session().map(drop)))
                    .collect(),
                (Err(e), _) | (_, Err(e)) => vec![Err(e)],
            }
        } else {
            std::hint::black_box(Reference::parse(reference_text(self.workload)));
            cells
                .iter()
                .map(|c| c.request(&c.predefined()).session().map(drop))
                .collect()
        };
        self.samples.push(t0.elapsed().as_secs_f64());
        for e in sessions.into_iter().filter_map(Result::err) {
            let e = format!("set-up: {e}");
            if !self.failures.contains(&e) {
                self.failures.push(e);
            }
        }
    }

    /// Tops the samples up to [`SETUP_REPS`] and returns them with any
    /// set-up failure.
    fn finish(mut self) -> (Vec<f64>, Vec<String>) {
        while self.samples.len() < SETUP_REPS {
            self.sample();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
        (self.samples, self.failures)
    }
}

enum Passes {
    Cells(Vec<CellPass>),
    Batch(Vec<(BatchPass, Duration)>),
}

impl Passes {
    fn len(&self) -> usize {
        match self {
            Passes::Cells(p) => p.len(),
            Passes::Batch(p) => p.len(),
        }
    }
}

/// Runs whole passes (at least one) while another pass is expected to
/// end nearer to `budget` than stopping now, or, when `replay` is given,
/// exactly those passes again. `between` runs after every cell (`batch`:
/// every pass), off the measured clock.
fn run_passes(
    o: &Opts,
    budget: Duration,
    replay: Option<&[Vec<Cell>]>,
    tr: Option<&Tracer>,
    between: &mut dyn FnMut(),
) -> (Passes, Vec<Vec<Cell>>) {
    let mut drawn: Vec<Vec<Cell>> = Vec::new();
    let mut cell_passes = Vec::new();
    let mut batch_passes = Vec::new();
    let mut aside = Duration::ZERO;
    let start = Instant::now();
    for n in 0.. {
        let elapsed = start.elapsed() - aside;
        let done = match replay {
            Some(r) => n >= r.len(),
            // Stop once elapsed + half a mean pass reaches the budget.
            None => n > 0 && elapsed + elapsed / (2 * n as u32) >= budget,
        };
        if done {
            break;
        }
        let t0 = Instant::now();
        let cells = match replay {
            Some(r) => r[n].clone(),
            None => cells::draw_pass(o.workload, o.seed, n),
        };
        let draw = t0.elapsed();
        if o.workload == Workload::Batch {
            batch_passes.push(batch_pass(o, &cells, draw, tr, n));
            let t = Instant::now();
            between();
            aside += t.elapsed();
        } else {
            let base = cell_passes
                .iter()
                .map(|p: &CellPass| p.outcomes.len())
                .sum::<usize>() as u32;
            let pass = cell_pass(o.workload, &cells, draw, tr, base, between);
            aside += t0.elapsed() - pass.wall;
            cell_passes.push(pass);
        }
        drawn.push(cells);
    }
    let passes = match o.workload {
        Workload::Batch => Passes::Batch(batch_passes),
        _ => Passes::Cells(cell_passes),
    };
    (passes, drawn)
}

fn run(o: &Opts) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(&o.out) {
        eprintln!("perfbench: creating {}: {e}", o.out.display());
        return ExitCode::from(1);
    }
    let calib = metrics::calibrate_mops();
    let host_cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let budget = Duration::from_secs(o.seconds);
    let mut setup = SetupSampler::new(o);
    let (untraced, drawn) = if o.trace {
        run_passes(o, budget / 2, None, None, &mut || {})
    } else {
        run_passes(o, budget, None, None, &mut || setup.sample())
    };
    let engine = engine_label(&drawn[0][0]);
    let mut report = Report::from_passes(&untraced);
    if o.trace {
        let tracer = Tracer::default();
        let (traced, _) = run_passes(o, budget, Some(&drawn), Some(&tracer), &mut || {});
        let spans = tracer.spans();
        let path = o
            .out
            .join(format!("spans-{}-seed{}.jsonl", o.workload.name(), o.seed));
        if let Err(e) = tracer.write_jsonl(&path) {
            report.fail(format!("writing spans to {}: {e}", path.display()));
        }
        let traced_report = Report::from_passes(&traced);
        report.merge_checks(&traced_report);
        report.compare_results(&untraced, &traced);
        let inputs = LayerInputs {
            spans: &spans,
            passes: &traced,
            untraced_wall: untraced_wall(&untraced),
            threads: if o.workload == Workload::Batch {
                workloads::batch_workers()
            } else {
                1
            },
            host_cpus,
            calib_mops: calib,
            job_p90_ms: metrics::percentile(&mut report.latencies.clone(), 90.0),
            job_samples: report.latencies.len(),
            engine,
        };
        report.metrics = metrics::per_layer(&inputs);
    } else {
        let (samples, failures) = setup.finish();
        report.setups = samples;
        for f in failures {
            report.fail(f);
        }
        report.metrics = report.end_to_end();
    }
    eprintln!(
        "perfbench-context {{\"workload\":\"{}\",\"seed\":{},\"host_cpus\":{host_cpus},\"engine\":\"{}\",\"calib_mops\":{calib},\"passes\":{},\"job_samples\":{},\"failures\":{}}}",
        o.workload.name(),
        o.seed,
        engine,
        untraced.len(),
        report.latencies.len(),
        report.failures.len()
    );
    for f in report.failures.iter().take(10) {
        eprintln!("perfbench: FAILED {f}");
    }
    println!("{}", report.json());
    ExitCode::SUCCESS
}

/// `Machine::replay_engine()` for a machine of this host (the label
/// depends on the host, not the cell).
fn engine_label(cell: &Cell) -> &'static str {
    let pre = cell.predefined();
    cell.request(&pre)
        .session()
        .map_or("unknown", |s| s.machine.replay_engine())
}

fn untraced_wall(p: &Passes) -> Duration {
    match p {
        Passes::Cells(ps) => ps.iter().map(|p| p.wall).sum(),
        Passes::Batch(ps) => ps.iter().map(|(b, _)| b.cold.wall + b.warm.wall).sum(),
    }
}

/// Rewrites `reference/<workload>.tsv` from full-detail runs of every
/// pool cell.
fn regenerate_reference(w: Workload) -> ExitCode {
    let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/reference"))
        .join(format!("{}.tsv", w.name()));
    let mut lines = Vec::new();
    for cell in cells::pool(w) {
        let full = Cell {
            sampled: false,
            ..cell.clone()
        };
        let pre = full.predefined();
        let t0 = Instant::now();
        match full.request(&pre).run() {
            Ok(run) => {
                let cached = scd_serve::CachedRun::from_run(&run, None);
                eprintln!(
                    "{}: {} instructions, {:.1}s",
                    cell.id(),
                    run.stats.instructions,
                    t0.elapsed().as_secs_f64()
                );
                lines.push(reference::line(&cell.id(), &cached));
            }
            Err(e) => {
                eprintln!("perfbench: {}: {e}", cell.id());
                return ExitCode::from(1);
            }
        }
    }
    lines.sort();
    let text: String = lines.iter().map(|l| format!("{l}\n")).collect();
    match std::fs::write(&path, text) {
        Ok(()) => {
            eprintln!("wrote {} entries to {}", lines.len(), path.display());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: writing {}: {e}", path.display());
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_reference_covers_every_pool_cell() {
        for w in [Workload::Detailed, Workload::Sampled] {
            let reference = Reference::parse(reference_text(w));
            for cell in cells::pool(w) {
                assert!(
                    reference.get(&cell.id()).is_ok(),
                    "{}: regenerate with `perfbench reference {}`",
                    cell.id(),
                    w.name()
                );
            }
        }
    }
}
