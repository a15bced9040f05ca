//! Simulator-perf harness: measures the *simulator's own* throughput
//! (guest instructions retired per host second) on a fixed workload
//! matrix, so every PR records the cycle model's speed trajectory the
//! same way `BENCH_sweep.json` records the sweep's.
//!
//! ```text
//! cargo run --release -p scd-bench --bin simperf                    # full budget
//! cargo run --release -p scd-bench --bin simperf -- --quick         # CI-sized
//! cargo run --release -p scd-bench --bin simperf -- --ref old.json  # embed speedups
//! cargo run --release -p scd-bench --bin simperf -- --quick --check BENCH_simperf.json
//! ```
//!
//! The matrix is the golden-stats trio (fibo / random / spectral-norm)
//! x both VMs x all three dispatch schemes x {embedded-a5, fpga-rocket}
//! — 36 cells. Each cell loads a fresh session, disables the invariant
//! checker and runs *untraced* under a fixed retired-instruction budget,
//! so host wall time is the only free variable. Output goes to
//! `BENCH_simperf.json` (hand-rolled JSON, schema in EXPERIMENTS.md).
//!
//! `--ref FILE` copies per-cell `mips` from an earlier record into the
//! output as `ref_mips` plus a per-cell and geomean `speedup` — the
//! honest before/after record for optimization PRs. `--check FILE`
//! compares the current run against a committed record and exits
//! non-zero only when a cell *regresses* below `0.70x` its reference
//! throughput (generous, sized for noisy 1-core CI runners); being
//! faster never fails. Fields of older records that this tool no longer
//! writes (the v3 warming-engine block) are ignored.

use luma::scripts::BENCHMARKS;
use scd_guest::{RunRequest, Scheme, Vm};
use scd_sim::{geomean, SimConfig, SimError};
use std::fmt::Write as _;
use std::process::exit;
use std::time::Instant;

/// The pinned golden-stats benchmark trio — cheap, structurally diverse
/// (recursion, RNG + array traffic, FP-heavy).
const BENCHES: [&str; 3] = ["fibo", "random", "spectral-norm"];

/// Retired-instruction budget per cell.
const FULL_BUDGET: u64 = 20_000_000;
const QUICK_BUDGET: u64 = 2_000_000;

const OUT: &str = "BENCH_simperf.json";

struct Cell {
    preset: &'static str,
    vm: Vm,
    bench: &'static str,
    scheme: Scheme,
    insts: u64,
    wall_s: f64,
}

impl Cell {
    fn key(&self) -> String {
        format!(
            "{}/{}/{}/{}",
            self.preset,
            self.vm.name(),
            self.bench,
            self.scheme.name()
        )
    }

    fn mips(&self) -> f64 {
        self.insts as f64 / self.wall_s.max(1e-12) / 1e6
    }
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let has = |f: &str| argv.iter().any(|a| a == f);
    let arg_of = |f: &str| {
        argv.iter()
            .position(|a| a == f)
            .and_then(|i| argv.get(i + 1))
            .cloned()
    };
    let quick = has("--quick");
    let budget = if quick { QUICK_BUDGET } else { FULL_BUDGET };
    let reference = arg_of("--ref").map(|p| load_record(&p));
    let check = arg_of("--check").map(|p| load_record(&p));

    let configs = [SimConfig::embedded_a5(), SimConfig::fpga_rocket()];
    let mut cells = Vec::new();
    // A broken cell must not torpedo the cells already measured: record
    // the failure, finish the matrix so the full picture is reported,
    // then exit non-zero.
    let mut failures: Vec<String> = Vec::new();
    eprintln!(
        "simperf: {} cells, {budget} insts each",
        configs.len() * 2 * 3 * BENCHES.len()
    );
    for cfg in &configs {
        for vm in Vm::ALL {
            for name in BENCHES {
                let b = BENCHMARKS
                    .iter()
                    .find(|b| b.name == name)
                    .expect("pinned benchmark");
                for scheme in Scheme::ALL {
                    let key = format!("{}/{}/{name}/{}", cfg.name, vm.name(), scheme.name());
                    let mut session = match RunRequest::new(cfg.clone(), vm, b.source)
                        .predefined(&[("N", b.sim_arg)])
                        .scheme(scheme)
                        .session()
                    {
                        Ok(s) => s,
                        Err(e) => {
                            eprintln!("  {key}: FAILED to load: {e}");
                            failures.push(format!("{key}: {e}"));
                            continue;
                        }
                    };
                    // Untraced, uninstrumented: the release fast path.
                    session.machine.disable_invariants();
                    let started = Instant::now();
                    match session.machine.run(budget) {
                        Ok(_) | Err(SimError::InstLimit { .. }) => {}
                        Err(e) => {
                            eprintln!("  {key}: FAILED: {e}");
                            failures.push(format!("{key}: {e}"));
                            continue;
                        }
                    }
                    let cell = Cell {
                        preset: cfg.name,
                        vm,
                        bench: name,
                        scheme,
                        insts: session.machine.stats.instructions,
                        wall_s: started.elapsed().as_secs_f64(),
                    };
                    eprintln!("  {:<44} {:>8.2} Minst/s", cell.key(), cell.mips());
                    cells.push(cell);
                }
            }
        }
    }

    if !failures.is_empty() {
        eprintln!("simperf: {} cell(s) failed:", failures.len());
        for f in &failures {
            eprintln!("  {f}");
        }
        exit(1);
    }

    let mips: Vec<f64> = cells.iter().map(Cell::mips).collect();
    let g = geomean(&mips).unwrap_or_else(|| {
        eprintln!("simperf: no valid throughput measurements — cannot compute geomean");
        exit(1);
    });
    eprintln!("simperf: geomean {g:.2} Minst/s over {} cells", cells.len());

    if let Some(baseline) = check {
        exit(run_check(&cells, &baseline));
    }

    let json = render_json(&cells, quick, budget, reference.as_deref());
    scd_bench::write_artifact(OUT, &json);
    eprintln!("simperf: wrote {OUT}");
}

/// Compares this run against a committed record; only regressions fail.
fn run_check(cells: &[Cell], baseline: &[(String, f64)]) -> i32 {
    const TOLERANCE: f64 = 0.70;
    let mut bad = 0u32;
    let mut matched = 0u32;
    for c in cells {
        let key = c.key();
        let Some((_, ref_mips)) = baseline.iter().find(|(k, _)| *k == key) else {
            continue;
        };
        matched += 1;
        let now = c.mips();
        if now < ref_mips * TOLERANCE {
            eprintln!(
                "simperf --check: REGRESSION {key}: {now:.2} Minst/s < {TOLERANCE} x \
                 baseline {ref_mips:.2}"
            );
            bad += 1;
        }
    }
    if matched == 0 {
        eprintln!("simperf --check: no cells matched the baseline record");
        return 1;
    }
    if bad == 0 {
        eprintln!("simperf --check: {matched} cells within tolerance of the committed baseline");
        0
    } else {
        1
    }
}

fn render_json(
    cells: &[Cell],
    quick: bool,
    budget: u64,
    reference: Option<&[(String, f64)]>,
) -> String {
    // v2 added "host_cpus": throughput numbers are meaningless without
    // knowing how parallel the host was. v4 drops v3's warming-engine
    // block and v2's "replay_mode" label: one run loop remains.
    let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut s = String::new();
    s.push_str("{\n");
    let _ = writeln!(s, "  \"schema\": \"scd-simperf-v4\",");
    let _ = writeln!(s, "  \"quick\": {quick},");
    let _ = writeln!(s, "  \"budget_insts\": {budget},");
    let _ = writeln!(s, "  \"host_cpus\": {host_cpus},");
    let mips: Vec<f64> = cells.iter().map(Cell::mips).collect();
    // A record with a zero geomean would make a later `--check` or
    // `--ref` comparison pass or fail spuriously: refuse to write one.
    let g = geomean(&mips).unwrap_or_else(|| {
        eprintln!("simperf: empty cell set — refusing to write a record with no geomean");
        exit(1);
    });
    let _ = writeln!(s, "  \"geomean_mips\": {g:.3},");
    let mut speedups = Vec::new();
    if let Some(r) = reference {
        for c in cells {
            if let Some((_, m)) = r.iter().find(|(k, _)| *k == c.key()) {
                speedups.push(c.mips() / m.max(1e-12));
            }
        }
        let gs = geomean(&speedups).unwrap_or_else(|| {
            eprintln!(
                "simperf: --ref record shares no cell keys with this run — \
                 speedup would be meaningless"
            );
            exit(1);
        });
        let _ = writeln!(s, "  \"geomean_speedup_vs_ref\": {gs:.3},");
    }
    s.push_str("  \"cells\": [\n");
    let n = cells.len();
    for (i, c) in cells.iter().enumerate() {
        let _ = write!(
            s,
            "    {{\"key\": \"{}\", \"preset\": \"{}\", \"vm\": \"{}\", \"bench\": \"{}\", \
             \"scheme\": \"{}\", \"insts\": {}, \"wall_ms\": {:.3}, \"mips\": {:.3}",
            c.key(),
            c.preset,
            c.vm.name(),
            c.bench,
            c.scheme.name(),
            c.insts,
            c.wall_s * 1e3,
            c.mips(),
        );
        if let Some(r) = reference {
            if let Some((_, m)) = r.iter().find(|(k, _)| *k == c.key()) {
                let _ = write!(
                    s,
                    ", \"ref_mips\": {:.3}, \"speedup\": {:.3}",
                    m,
                    c.mips() / m.max(1e-12)
                );
            }
        }
        s.push('}');
        s.push_str(if i + 1 == n { "\n" } else { ",\n" });
    }
    s.push_str("  ]\n}\n");
    s
}

/// Minimal reader for this tool's own output format: pulls
/// `(key, mips)` pairs out of the `"cells"` array, one cell per line.
/// Not a JSON parser — it only needs to round-trip what [`render_json`] writes
/// (the workspace is serde-free by design).
///
/// Strict where it matters: a line that names a cell (`"key"` present)
/// must carry a well-formed, finite, positive `mips` number. Silently
/// skipping such a line would shrink the baseline and let a regressed
/// cell dodge the `--check` gate.
fn load_record(path: &str) -> Vec<(String, f64)> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("simperf: cannot read reference record {path}: {e}");
        exit(70);
    });
    let mut out = Vec::new();
    for line in text.lines() {
        let Some(key) = field_str(line, "key") else {
            continue;
        };
        // `mips` must be the cell's own measurement, not `ref_mips`.
        let mips = match field_num(line, "mips") {
            Some(m) if m.is_finite() && m > 0.0 => m,
            _ => {
                eprintln!(
                    "simperf: reference record {path} is malformed: cell \"{key}\" \
                     has a missing or invalid \"mips\" field:\n  {line}"
                );
                exit(1);
            }
        };
        out.push((key, mips));
    }
    if out.is_empty() {
        eprintln!("simperf: reference record {path} contains no cells");
        exit(1);
    }
    out
}

fn field_str(line: &str, name: &str) -> Option<String> {
    let pat = format!("\"{name}\": \"");
    let start = line.find(&pat)? + pat.len();
    let end = line[start..].find('"')?;
    Some(line[start..start + end].to_string())
}

/// Scans the number following `"name": `. Accepts only the shapes
/// [`render_json`] emits — an optional minus, digits, an optional
/// fractional part — and rejects empty or trailing-garbage matches
/// (`parse` refuses forms like `1.2.3` or `-`), returning `None` so the
/// caller can treat the record as malformed rather than reading 0.0.
fn field_num(line: &str, name: &str) -> Option<f64> {
    let pat = format!("\"{name}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    if end == 0 {
        return None;
    }
    rest[..end].parse().ok().filter(|v: &f64| v.is_finite())
}
