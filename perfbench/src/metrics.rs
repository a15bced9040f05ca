//! Metric tables, their computation from finished passes, and the
//! result line.

use crate::spans::{self, Span};
use crate::{CellPass, Passes};
use scd_serve::{CachedRun, JobOutcome};
use scd_sim::SimStats;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// End-to-end metrics (untraced run), with units. Every workload
/// reports every one. The p90 latency is a per-layer figure instead:
/// `detailed` and `sampled` runs have too few cells for a p90 with ten
/// samples beyond it, so it cannot carry a bound.
pub const END_TO_END: [(&str, &str); 5] = [
    ("throughput_mips", "Minst/s"),
    ("jobs_per_s", "1/s"),
    ("job_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics (`--trace 1`), with units. Times and counts are
/// per pass unless the README says otherwise; a layer a workload does
/// not reach reads 0.
pub const PER_LAYER: [(&str, &str); 47] = [
    ("luma.parse_ms", "ms"),
    ("luma.compile_ms", "ms"),
    ("luma.oracle_ms", "ms"),
    ("guest.image_ms", "ms"),
    ("guest.build_ms", "ms"),
    ("guest.session_ms", "ms"),
    ("sim.run_s", "s"),
    ("sim.run_mips", "Minst/s"),
    ("sim.sampled_s", "s"),
    ("sim.non_ff_s", "s"),
    ("sim.ff_share", "fraction"),
    ("sim.warm_share", "fraction"),
    ("sim.intervals", "count"),
    ("ref.ff_s", "s"),
    ("ref.ff_mips", "Minst/s"),
    ("serve.parse_jobs_ms", "ms"),
    ("serve.key_ms", "ms"),
    ("serve.load_ms", "ms"),
    ("serve.decode_ms", "ms"),
    ("serve.encode_ms", "ms"),
    ("serve.store_ms", "ms"),
    ("serve.warm_pass_ms", "ms"),
    ("serve.job_traced_ms", "ms"),
    ("serve.job_detailed_ms", "ms"),
    ("serve.busy_frac", "fraction"),
    ("serve.hit_rate", "fraction"),
    ("serve.retries", "count"),
    ("sim.instructions", "count"),
    ("sim.cycles", "count"),
    ("sim.ipc", "inst/cycle"),
    ("sim.bop_hit_rate", "fraction"),
    ("sim.branch_mpki", "MPKI"),
    ("sim.dcache_mpki", "MPKI"),
    ("sim.extra_insts", "count"),
    ("sim.sample_err_pct", "%"),
    ("sim.cpi_ci95_pct", "%"),
    ("host.cpus", "count"),
    ("host.calib_mops", "Mop/s"),
    ("host.replay_engine", "flag"),
    ("trace.untraced_pass_s", "s"),
    ("trace.traced_pass_s", "s"),
    ("trace.overhead_pct", "%"),
    ("trace.probe_s", "s"),
    ("trace.attributed_frac", "fraction"),
    ("bench.job_p90_ms", "ms"),
    ("bench.job_samples", "count"),
    ("bench.passes", "count"),
];

/// Host-only calibration: a fixed integer loop that uses no repository
/// code, in million iterations per second (median of three). Numbers
/// from hosts whose calibration differs are not compared raw.
pub fn calibrate_mops() -> f64 {
    let mut rates: Vec<f64> = (0..3)
        .map(|_| {
            const N: u64 = 20_000_000;
            let t0 = Instant::now();
            let (mut x, mut acc) = (0x2545_F491_4F6C_DD1Du64, 0u64);
            for i in 0..N {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                acc = acc.wrapping_add(x.rotate_left((i & 63) as u32));
            }
            std::hint::black_box(acc);
            N as f64 / t0.elapsed().as_secs_f64() / 1e6
        })
        .collect();
    median(&mut rates)
}

/// The process's high-water resident set, in MB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median (mean of the middle two for even lengths); 0 when empty.
pub fn median(v: &mut [f64]) -> f64 {
    percentile(v, 50.0)
}

/// Linear-interpolated percentile `p` in [0, 100]; 0 when empty.
pub fn percentile(v: &mut [f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (rank - lo as f64)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn secs(d: Duration) -> f64 {
    d.as_secs_f64()
}

/// Guest instructions a validated result retired (the exact total for
/// sampled runs, whose stats hold the scaled estimate).
fn retired(run: &CachedRun) -> u64 {
    run.sample
        .as_ref()
        .map_or(run.stats.instructions, |s| s.total_insts)
}

/// The computed (cold) results of a pass set, in cell order.
fn computed_runs(passes: &Passes) -> Vec<Option<&CachedRun>> {
    match passes {
        Passes::Cells(ps) => ps
            .iter()
            .flat_map(|p| p.outcomes.iter().map(|o| o.run.as_ref()))
            .collect(),
        Passes::Batch(ps) => ps
            .iter()
            .flat_map(|(b, _)| {
                b.cold.jobs.iter().map(|j| match &j.outcome {
                    JobOutcome::Done(d) if !d.cached => Some(&d.run),
                    _ => None,
                })
            })
            .collect(),
    }
}

/// Checks and end-to-end measurements of one set of passes.
#[derive(Debug, Default)]
pub struct Report {
    /// Cells or job submissions attempted.
    pub attempted: usize,
    /// Those that failed a check.
    pub failed: usize,
    /// What failed.
    pub failures: Vec<String>,
    /// Per computed job or cell host latency, in ms.
    pub latencies: Vec<f64>,
    /// Set-up samples, in seconds.
    pub setups: Vec<f64>,
    /// Per pass: wall, validated results delivered, guest instructions
    /// of computed results.
    passes: Vec<(Duration, usize, u64)>,
    /// Metrics to print.
    pub metrics: Vec<(&'static str, f64)>,
}

impl Report {
    /// Tallies `passes`.
    pub fn from_passes(passes: &Passes) -> Report {
        let mut r = Report::default();
        match passes {
            Passes::Cells(ps) => {
                for p in ps {
                    let (mut delivered, mut insts) = (0, 0);
                    for o in &p.outcomes {
                        r.attempted += 1;
                        r.latencies.push(secs(o.latency) * 1e3);
                        match (&o.run, &o.failure) {
                            (Some(run), None) => {
                                delivered += 1;
                                insts += retired(run);
                            }
                            (_, f) => {
                                r.fail(f.clone().unwrap_or_else(|| format!("{}: no result", o.id)))
                            }
                        }
                    }
                    r.passes.push((p.wall, delivered, insts));
                }
            }
            Passes::Batch(ps) => {
                for (b, wall) in ps {
                    r.attempted += b.attempted();
                    r.failed += b.failed;
                    r.failures.extend(b.failures.iter().cloned());
                    r.latencies
                        .extend(b.cold.jobs.iter().map(|j| secs(j.latency) * 1e3));
                    let insts = b
                        .cold
                        .jobs
                        .iter()
                        .filter_map(|j| match &j.outcome {
                            JobOutcome::Done(d) if !d.cached => Some(retired(&d.run)),
                            _ => None,
                        })
                        .sum();
                    r.passes.push((*wall, b.attempted() - b.failed, insts));
                }
            }
        }
        r
    }

    /// Records a failure that is not tied to a counted attempt.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.attempted = self.attempted.max(self.failed);
        self.failures.push(why);
    }

    /// Adds the traced passes' attempts and failures.
    pub fn merge_checks(&mut self, traced: &Report) {
        self.attempted += traced.attempted;
        self.failed += traced.failed;
        self.failures.extend(traced.failures.iter().cloned());
    }

    /// The traced passes must reproduce the untraced results exactly.
    pub fn compare_results(&mut self, untraced: &Passes, traced: &Passes) {
        let (a, b) = (computed_runs(untraced), computed_runs(traced));
        for (i, (x, y)) in a.iter().zip(&b).enumerate() {
            if let (Some(x), Some(y)) = (x, y) {
                if x != y {
                    self.fail(format!(
                        "cell {i}: the traced result differs from the untraced one"
                    ));
                }
            }
        }
        if a.len() != b.len() {
            self.fail(format!(
                "traced pass ran {} cells, untraced {}",
                b.len(),
                a.len()
            ));
        }
    }

    /// The end-to-end metrics. Rates are medians over the passes, so a
    /// pass the host stalled does not move them.
    pub fn end_to_end(&mut self) -> Vec<(&'static str, f64)> {
        let rate = |f: &dyn Fn(usize, u64) -> f64| -> f64 {
            let mut v: Vec<f64> =
                self.passes.iter().map(|&(w, d, i)| ratio(f(d, i), secs(w))).collect();
            median(&mut v)
        };
        vec![
            ("throughput_mips", rate(&|_, i| i as f64) / 1e6),
            ("jobs_per_s", rate(&|d, _| d as f64)),
            ("job_p50_ms", percentile(&mut self.latencies, 50.0)),
            ("setup_s", median(&mut self.setups)),
            ("peak_rss_mb", peak_rss_mb()),
        ]
    }

    /// The result line.
    pub fn json(&self) -> String {
        let units: BTreeMap<&str, &str> =
            END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, (name, value)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                out,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                units[name]
            );
        }
        out.push_str("}}");
        out
    }
}

/// What the per-layer metrics are computed from.
pub struct LayerInputs<'a> {
    /// Spans of the traced passes.
    pub spans: &'a [Span],
    /// The traced passes.
    pub passes: &'a Passes,
    /// Wall of the untraced passes over the same cells.
    pub untraced_wall: Duration,
    /// Workers the traced spans ran on.
    pub threads: usize,
    /// `available_parallelism`.
    pub host_cpus: usize,
    /// [`calibrate_mops`].
    pub calib_mops: f64,
    /// p90 of the untraced passes' job latencies, in ms.
    pub job_p90_ms: f64,
    /// Latency samples behind the percentiles.
    pub job_samples: usize,
    /// `Machine::replay_engine()` on this host.
    pub engine: &'static str,
}

/// The per-layer metrics, in [`PER_LAYER`] order.
pub fn per_layer(x: &LayerInputs<'_>) -> Vec<(&'static str, f64)> {
    let n = x.passes.len().max(1) as f64;
    let tot = spans::totals(x.spans);
    let s = |name: &str| tot.get(name).map_or(0.0, |d| secs(*d));
    let per_pass_ms = |name: &str| s(name) * 1e3 / n;
    let count = |name: &str| x.spans.iter().filter(|sp| sp.name == name).count() as f64;

    let runs = computed_runs(x.passes);
    let mut sum = SimStats::default();
    for run in runs.iter().flatten() {
        sum.accumulate(&run.stats);
    }
    let run_insts: u64 = match x.passes {
        Passes::Cells(ps) => cell_runs(ps)
            .filter(|r| r.sample.is_none())
            .map(|r| r.stats.instructions)
            .sum(),
        Passes::Batch(_) => runs.iter().flatten().map(|r| r.stats.instructions).sum(),
    };

    // Sampled cells: shares, intervals, accuracy, and the non-ff part of
    // each cell's sampled wall.
    let (mut total, mut ff, mut warm, mut intervals, mut extra, mut ref_insts) =
        (0u64, 0u64, 0u64, 0u64, 0i64, 0u64);
    let (mut worst_err, mut ci_sum, mut ci_n, mut non_ff) = (0f64, 0f64, 0usize, 0f64);
    if let Passes::Cells(ps) = x.passes {
        let by_cell = |name: &str| -> BTreeMap<u32, f64> {
            x.spans
                .iter()
                .filter(|sp| sp.name == name)
                .map(|sp| (sp.cell, secs(sp.dur())))
                .collect()
        };
        let (sampled_t, ff_t) = (by_cell("sim.sampled"), by_cell("ref.ff"));
        for (i, o) in ps.iter().flat_map(|p| p.outcomes.iter()).enumerate() {
            let (Some(run), Some(check)) = (&o.run, &o.sample) else {
                continue;
            };
            let Some(rep) = &run.sample else { continue };
            total += rep.total_insts;
            ff += rep.ff_insts;
            warm += rep.warm_insts;
            intervals += rep.intervals;
            extra += check.extra_insts;
            ref_insts += o.ref_insts;
            worst_err = worst_err.max(check.err_pct);
            ci_sum += 100.0 * ratio(rep.cpi_ci95, rep.cpi_mean);
            ci_n += 1;
            let share = ratio(rep.ff_insts as f64, rep.total_insts as f64);
            let cell = i as u32;
            non_ff += sampled_t.get(&cell).copied().unwrap_or(0.0)
                - ff_t.get(&cell).copied().unwrap_or(0.0) * share;
        }
    }

    let (mut busy, mut pass_wall, mut hit, mut retries) = (0f64, 0f64, 0f64, 0u64);
    if let Passes::Batch(ps) = x.passes {
        for (b, _) in ps {
            for j in b.cold.jobs.iter().chain(&b.warm.jobs) {
                busy += secs(j.latency);
                if let JobOutcome::Done(d) = &j.outcome {
                    retries += u64::from(d.attempts.saturating_sub(1));
                }
            }
            pass_wall += secs(b.cold.wall + b.warm.wall);
            hit += b.hit_rate;
        }
    }

    let traced_wall = match x.passes {
        Passes::Cells(ps) => ps.iter().map(|p| secs(p.wall)).sum::<f64>(),
        Passes::Batch(_) => pass_wall,
    };
    let probe = secs(spans::probe_time(x.spans)) / x.threads as f64;
    let traced_adj = traced_wall - probe;
    let untraced = secs(x.untraced_wall);
    let insts = sum.instructions as f64;

    let values: Vec<(&'static str, f64)> = vec![
        ("luma.parse_ms", per_pass_ms("luma.parse")),
        ("luma.compile_ms", per_pass_ms("luma.compile")),
        ("luma.oracle_ms", per_pass_ms("luma.oracle")),
        ("guest.image_ms", per_pass_ms("guest.image")),
        ("guest.build_ms", per_pass_ms("guest.build")),
        ("guest.session_ms", per_pass_ms("guest.session")),
        ("sim.run_s", s("sim.run") / n),
        ("sim.run_mips", ratio(run_insts as f64, s("sim.run")) / 1e6),
        ("sim.sampled_s", s("sim.sampled") / n),
        ("sim.non_ff_s", non_ff / n),
        ("sim.ff_share", ratio(ff as f64, total as f64)),
        ("sim.warm_share", ratio(warm as f64, total as f64)),
        ("sim.intervals", intervals as f64 / n),
        ("ref.ff_s", s("ref.ff") / n),
        ("ref.ff_mips", ratio(ref_insts as f64, s("ref.ff")) / 1e6),
        ("serve.parse_jobs_ms", per_pass_ms("serve.parse_jobs")),
        ("serve.key_ms", per_pass_ms("serve.key")),
        ("serve.load_ms", per_pass_ms("serve.load")),
        ("serve.decode_ms", per_pass_ms("serve.decode")),
        ("serve.encode_ms", per_pass_ms("serve.encode")),
        ("serve.store_ms", per_pass_ms("serve.store")),
        ("serve.warm_pass_ms", per_pass_ms("serve.warm_pass")),
        (
            "serve.job_traced_ms",
            ratio(s("serve.job_traced") * 1e3, count("serve.job_traced")),
        ),
        (
            "serve.job_detailed_ms",
            ratio(s("serve.job_detailed") * 1e3, count("serve.job_detailed")),
        ),
        ("serve.busy_frac", ratio(busy, x.threads as f64 * pass_wall)),
        (
            "serve.hit_rate",
            match x.passes {
                Passes::Batch(ps) => ratio(hit, ps.len() as f64),
                Passes::Cells(_) => 0.0,
            },
        ),
        ("serve.retries", retries as f64 / n),
        ("sim.instructions", insts / n),
        ("sim.cycles", sum.cycles as f64 / n),
        ("sim.ipc", ratio(insts, sum.cycles as f64)),
        (
            "sim.bop_hit_rate",
            ratio(sum.bop_hits as f64, sum.bop_executed as f64),
        ),
        (
            "sim.branch_mpki",
            ratio(sum.total_mispredictions() as f64 * 1e3, insts),
        ),
        (
            "sim.dcache_mpki",
            ratio(sum.dcache.misses as f64 * 1e3, insts),
        ),
        ("sim.extra_insts", extra as f64 / n),
        ("sim.sample_err_pct", worst_err),
        ("sim.cpi_ci95_pct", ratio(ci_sum, ci_n as f64)),
        ("host.cpus", x.host_cpus as f64),
        ("host.calib_mops", x.calib_mops),
        (
            "host.replay_engine",
            f64::from(u8::from(x.engine == "replay")),
        ),
        ("trace.untraced_pass_s", untraced / n),
        ("trace.traced_pass_s", traced_adj / n),
        (
            "trace.overhead_pct",
            100.0 * ratio(traced_adj - untraced, untraced),
        ),
        ("trace.probe_s", probe / n),
        (
            "trace.attributed_frac",
            ratio(
                secs(spans::attributed_time(x.spans)),
                x.threads as f64 * traced_adj,
            ),
        ),
        ("bench.job_p90_ms", x.job_p90_ms),
        ("bench.job_samples", x.job_samples as f64),
        ("bench.passes", x.passes.len() as f64),
    ];
    debug_assert!(values.iter().map(|v| v.0).eq(PER_LAYER.iter().map(|p| p.0)));
    values
}

fn cell_runs(ps: &[CellPass]) -> impl Iterator<Item = &CachedRun> {
    ps.iter()
        .flat_map(|p| p.outcomes.iter().filter_map(|o| o.run.as_ref()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn metric_names_and_units_are_well_formed_and_unique() {
        let all: Vec<(&str, &str)> = END_TO_END.iter().chain(PER_LAYER.iter()).copied().collect();
        let mut names: Vec<&str> = all.iter().map(|m| m.0).collect();
        for (name, unit) in &all {
            assert!(valid_name(name), "metric name {name:?}");
            assert!(
                name.starts_with(|c: char| c.is_ascii_alphanumeric()),
                "{name:?}"
            );
            assert!(
                !unit.is_empty()
                    && unit.len() <= 16
                    && unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "unit {unit:?} of {name}"
            );
        }
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), all.len(), "metric names must be unique");
    }

    #[test]
    fn benchmark_json_lists_exactly_these_metrics() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let v = scd_serve::json::parse(&text).expect("BENCHMARK.json parses");
        let listed = |key: &str| -> Vec<(String, String)> {
            v.get(key)
                .and_then(|a| a.as_arr())
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| {
                        m.get(f)
                            .and_then(|x| x.as_str())
                            .expect("name and unit")
                            .to_string()
                    };
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(&END_TO_END));
        assert_eq!(listed("per_layer"), own(&PER_LAYER));
    }

    #[test]
    fn percentiles_interpolate() {
        let mut v = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&mut v, 50.0), 2.5);
        assert_eq!(percentile(&mut v, 100.0), 4.0);
        assert_eq!(percentile(&mut [], 90.0), 0.0);
    }
}
