//! The cache entry payload: everything a figure renderer needs from an
//! oracle-validated guest run, encoded as deterministic hand-rolled
//! JSON.
//!
//! The encoding is byte-deterministic (fixed field order, integer
//! literals only), which is what lets the warm-cache sweep reproduce the
//! cold sweep's reports byte-for-byte. Decoding is strict: any missing
//! or mistyped field is a typed error, which the cache layer treats
//! like a checksum failure — quarantine and recompute. Trace sinks are
//! deliberately *not* cached: the [`CycleBreakdown`] aggregate is the
//! only trace product the reports consume, and it is small and
//! deterministic.

use crate::json::{self, Value};
use scd_guest::GuestRun;
use scd_sim::{
    AccessCounters, BranchCounters, BtbStats, CycleBreakdown, SampleReport, SamplingPlan, SimStats,
};
use std::fmt::Write as _;

/// Payload format version; bump on any layout change so stale entries
/// decode-fail into quarantine instead of mis-reading.
const VERSION: u64 = 1;

/// A cached run result: the validated outcome plus its optional cycle
/// decomposition.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedRun {
    /// The guest's `emit` checksum (already oracle-validated when the
    /// entry was stored).
    pub checksum: u64,
    /// Bytecodes dispatched.
    pub dispatches: u64,
    /// Full simulator statistics.
    pub stats: SimStats,
    /// Event-derived cycle decomposition (`None` for untraced runs).
    pub breakdown: Option<CycleBreakdown>,
    /// Sampling metadata (`None` for full-detail runs). Present exactly
    /// when the job ran sampled — the stats above are then the scaled
    /// estimate this report quantifies.
    pub sample: Option<SampleReport>,
}

impl CachedRun {
    /// Captures the cacheable part of a completed run. The sample
    /// report's `self_check` knob is normalized off: it never changes
    /// results, so a checked and an unchecked run must encode (and
    /// compare) identically.
    pub fn from_run(run: &GuestRun, breakdown: Option<&CycleBreakdown>) -> Self {
        let sample = run.sample.clone().map(|mut r| {
            r.plan.self_check = false;
            r
        });
        CachedRun {
            checksum: run.checksum,
            dispatches: run.dispatches,
            stats: run.stats.clone(),
            breakdown: breakdown.cloned(),
            sample,
        }
    }
}

fn push_branch(out: &mut String, name: &str, c: &BranchCounters) {
    let _ = write!(out, "\"{name}\":[{},{}],", c.executed, c.mispredicted);
}

fn push_access(out: &mut String, name: &str, c: &AccessCounters) {
    let _ = write!(
        out,
        "\"{name}\":[{},{},{}],",
        c.accesses, c.misses, c.writebacks
    );
}

/// Encodes a [`CachedRun`] as deterministic JSON.
pub fn encode(run: &CachedRun) -> String {
    let s = &run.stats;
    let b = &s.btb;
    let mut out = String::with_capacity(1024);
    let _ = write!(out, "{{\"v\":{VERSION},");
    let _ = write!(out, "\"checksum\":{},", run.checksum);
    let _ = write!(out, "\"dispatches\":{},", run.dispatches);
    out.push_str("\"stats\":{");
    let _ = write!(out, "\"cycles\":{},", s.cycles);
    let _ = write!(out, "\"instructions\":{},", s.instructions);
    let _ = write!(
        out,
        "\"dispatch_instructions\":{},",
        s.dispatch_instructions
    );
    let _ = write!(out, "\"loads\":{},", s.loads);
    let _ = write!(out, "\"stores\":{},", s.stores);
    push_branch(&mut out, "cond", &s.cond);
    push_branch(&mut out, "direct", &s.direct);
    push_branch(&mut out, "ret", &s.ret);
    push_branch(&mut out, "indirect_dispatch", &s.indirect_dispatch);
    push_branch(&mut out, "indirect_other", &s.indirect_other);
    let _ = write!(out, "\"bop_executed\":{},", s.bop_executed);
    let _ = write!(out, "\"bop_hits\":{},", s.bop_hits);
    let _ = write!(out, "\"bop_misses\":{},", s.bop_misses);
    let _ = write!(out, "\"bop_stall_cycles\":{},", s.bop_stall_cycles);
    let _ = write!(out, "\"jru_executed\":{},", s.jru_executed);
    push_access(&mut out, "icache", &s.icache);
    push_access(&mut out, "dcache", &s.dcache);
    push_access(&mut out, "l2", &s.l2);
    push_access(&mut out, "itlb", &s.itlb);
    push_access(&mut out, "dtlb", &s.dtlb);
    let _ = write!(
        out,
        "\"btb\":[{},{},{},{},{},{},{}]",
        b.jte_inserts,
        b.jte_cap_skips,
        b.btb_evicted_by_jte,
        b.jte_evictions,
        b.btb_blocked_by_jte,
        b.jte_flushes,
        b.jte_flushed
    );
    out.push('}');
    match &run.breakdown {
        None => out.push_str(",\"breakdown\":null"),
        Some(d) => {
            let _ = write!(
                out,
                ",\"breakdown\":[{},{},{},{},{},{},{},{},{},{}]",
                d.total,
                d.issue,
                d.fetch_stall,
                d.data_stall,
                d.redirect,
                d.bop_stall,
                d.dispatch_total,
                d.dispatch_redirect,
                d.dispatch_fetch_stall,
                d.events
            );
        }
    }
    // The sample object is emitted only when present: full-detail
    // payloads stay byte-identical to entries written before sampling
    // existed, so warm caches survive the format addition. The f64s are
    // carried as IEEE-754 bit patterns to keep the encoding exact and
    // deterministic. The plan's per-structure windows follow its three
    // leading entries only when they differ from the uniform warmup, so
    // uniform-plan payloads keep their original three-entry form.
    if let Some(r) = &run.sample {
        let p = &r.plan;
        let split = if p.btb_warmup == p.warmup && p.pred_warmup == p.warmup {
            String::new()
        } else {
            format!(",{},{}", p.btb_warmup, p.pred_warmup)
        };
        let _ = write!(
            out,
            ",\"sample\":{{\"plan\":[{},{},{}{split}],\"intervals\":{},\"total_insts\":{},\
             \"measured_insts\":{},\"measured_cycles\":{},\"ff_insts\":{},\"warm_insts\":{},\
             \"cpi_mean_bits\":{},\"cpi_ci95_bits\":{},\"cycles_est\":{},\"cycles_ci95\":{},\
             \"exact_fallback\":{}}}",
            p.period,
            p.warmup,
            p.measure,
            r.intervals,
            r.total_insts,
            r.measured_insts,
            r.measured_cycles,
            r.ff_insts,
            r.warm_insts,
            r.cpi_mean.to_bits(),
            r.cpi_ci95.to_bits(),
            r.cycles_est,
            r.cycles_ci95,
            r.exact_fallback
        );
    }
    out.push('}');
    out
}

fn field_u64(v: &Value, key: &str) -> Result<u64, String> {
    v.get(key)
        .and_then(Value::as_u64)
        .ok_or_else(|| format!("missing or mistyped field '{key}'"))
}

fn tuple_u64<const N: usize>(v: &Value, key: &str) -> Result<[u64; N], String> {
    let arr = v
        .get(key)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("missing or mistyped field '{key}'"))?;
    if arr.len() != N {
        return Err(format!("field '{key}' has {} entries, want {N}", arr.len()));
    }
    let mut out = [0u64; N];
    for (slot, item) in out.iter_mut().zip(arr) {
        *slot = item
            .as_u64()
            .ok_or_else(|| format!("non-integer entry in '{key}'"))?;
    }
    Ok(out)
}

fn branch(v: &Value, key: &str) -> Result<BranchCounters, String> {
    let [executed, mispredicted] = tuple_u64::<2>(v, key)?;
    Ok(BranchCounters {
        executed,
        mispredicted,
    })
}

fn access(v: &Value, key: &str) -> Result<AccessCounters, String> {
    let [accesses, misses, writebacks] = tuple_u64::<3>(v, key)?;
    Ok(AccessCounters {
        accesses,
        misses,
        writebacks,
    })
}

/// Decodes a payload produced by [`encode`]. Strict: version or field
/// mismatches are errors (the caller quarantines and recomputes).
pub fn decode(text: &str) -> Result<CachedRun, String> {
    let v = json::parse(text)?;
    let version = field_u64(&v, "v")?;
    if version != VERSION {
        return Err(format!("payload version {version}, want {VERSION}"));
    }
    let stats_v = v.get("stats").ok_or("missing field 'stats'")?;
    let [jte_inserts, jte_cap_skips, btb_evicted_by_jte, jte_evictions, btb_blocked_by_jte, jte_flushes, jte_flushed] =
        tuple_u64::<7>(stats_v, "btb")?;
    let stats = SimStats {
        cycles: field_u64(stats_v, "cycles")?,
        instructions: field_u64(stats_v, "instructions")?,
        dispatch_instructions: field_u64(stats_v, "dispatch_instructions")?,
        loads: field_u64(stats_v, "loads")?,
        stores: field_u64(stats_v, "stores")?,
        cond: branch(stats_v, "cond")?,
        direct: branch(stats_v, "direct")?,
        ret: branch(stats_v, "ret")?,
        indirect_dispatch: branch(stats_v, "indirect_dispatch")?,
        indirect_other: branch(stats_v, "indirect_other")?,
        bop_executed: field_u64(stats_v, "bop_executed")?,
        bop_hits: field_u64(stats_v, "bop_hits")?,
        bop_misses: field_u64(stats_v, "bop_misses")?,
        bop_stall_cycles: field_u64(stats_v, "bop_stall_cycles")?,
        jru_executed: field_u64(stats_v, "jru_executed")?,
        icache: access(stats_v, "icache")?,
        dcache: access(stats_v, "dcache")?,
        l2: access(stats_v, "l2")?,
        itlb: access(stats_v, "itlb")?,
        dtlb: access(stats_v, "dtlb")?,
        btb: BtbStats {
            jte_inserts,
            jte_cap_skips,
            btb_evicted_by_jte,
            jte_evictions,
            btb_blocked_by_jte,
            jte_flushes,
            jte_flushed,
        },
    };
    let breakdown = match v.get("breakdown") {
        Some(Value::Null) => None,
        Some(_) => {
            let [total, issue, fetch_stall, data_stall, redirect, bop_stall, dispatch_total, dispatch_redirect, dispatch_fetch_stall, events] =
                tuple_u64::<10>(&v, "breakdown")?;
            Some(CycleBreakdown {
                total,
                issue,
                fetch_stall,
                data_stall,
                redirect,
                bop_stall,
                dispatch_total,
                dispatch_redirect,
                dispatch_fetch_stall,
                events,
            })
        }
        None => return Err("missing field 'breakdown'".to_string()),
    };
    // Absent key (not null) means a full-detail run: the sample object
    // is only ever written when the run was sampled, and pre-sampling
    // payloads never carry the key at all.
    let sample = match v.get("sample") {
        None => None,
        Some(s) => Some(decode_sample(s)?),
    };
    Ok(CachedRun {
        checksum: field_u64(&v, "checksum")?,
        dispatches: field_u64(&v, "dispatches")?,
        stats,
        breakdown,
        sample,
    })
}

fn decode_sample(s: &Value) -> Result<SampleReport, String> {
    // `[period, warmup, measure]`, plus `btb_warmup, pred_warmup` for a
    // split plan.
    let split = s.get("plan").and_then(Value::as_arr).map(<[Value]>::len) == Some(5);
    let plan = if split {
        let [period, warmup, measure, btb, pred] = tuple_u64::<5>(s, "plan")?;
        SamplingPlan::new(period, warmup, measure).and_then(|p| p.with_windows(btb, pred))
    } else {
        let [period, warmup, measure] = tuple_u64::<3>(s, "plan")?;
        SamplingPlan::new(period, warmup, measure)
    }
    .map_err(|e| format!("field 'sample.plan': {e}"))?;
    Ok(SampleReport {
        plan,
        intervals: field_u64(s, "intervals")?,
        total_insts: field_u64(s, "total_insts")?,
        measured_insts: field_u64(s, "measured_insts")?,
        measured_cycles: field_u64(s, "measured_cycles")?,
        ff_insts: field_u64(s, "ff_insts")?,
        warm_insts: field_u64(s, "warm_insts")?,
        cpi_mean: f64::from_bits(field_u64(s, "cpi_mean_bits")?),
        cpi_ci95: f64::from_bits(field_u64(s, "cpi_ci95_bits")?),
        cycles_est: field_u64(s, "cycles_est")?,
        cycles_ci95: field_u64(s, "cycles_ci95")?,
        exact_fallback: s
            .get("exact_fallback")
            .and_then(Value::as_bool)
            .ok_or("missing or mistyped field 'sample.exact_fallback'")?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Distinct nonzero values in every field, so a swapped pair of
    /// fields cannot round-trip undetected.
    fn dense_run() -> CachedRun {
        let mut n = 0u64;
        let mut next = || {
            n += 1;
            n
        };
        let mut b = |_: &str| BranchCounters {
            executed: next(),
            mispredicted: next(),
        };
        let cond = b("cond");
        let direct = b("direct");
        let ret = b("ret");
        let indirect_dispatch = b("id");
        let indirect_other = b("io");
        let mut a = |_: &str| AccessCounters {
            accesses: next(),
            misses: next(),
            writebacks: next(),
        };
        let icache = a("icache");
        let dcache = a("dcache");
        let l2 = a("l2");
        let itlb = a("itlb");
        let dtlb = a("dtlb");
        CachedRun {
            checksum: next(),
            dispatches: next(),
            stats: SimStats {
                cycles: next(),
                instructions: next(),
                dispatch_instructions: next(),
                loads: next(),
                stores: next(),
                cond,
                direct,
                ret,
                indirect_dispatch,
                indirect_other,
                bop_executed: next(),
                bop_hits: next(),
                bop_misses: next(),
                bop_stall_cycles: next(),
                jru_executed: next(),
                icache,
                dcache,
                l2,
                itlb,
                dtlb,
                btb: BtbStats {
                    jte_inserts: next(),
                    jte_cap_skips: next(),
                    btb_evicted_by_jte: next(),
                    jte_evictions: next(),
                    btb_blocked_by_jte: next(),
                    jte_flushes: next(),
                    jte_flushed: next(),
                },
            },
            breakdown: Some(CycleBreakdown {
                total: next(),
                issue: next(),
                fetch_stall: next(),
                data_stall: next(),
                redirect: next(),
                bop_stall: next(),
                dispatch_total: next(),
                dispatch_redirect: next(),
                dispatch_fetch_stall: next(),
                events: next(),
            }),
            sample: None,
        }
    }

    /// A sample report with distinct values in every field (and
    /// non-representable-as-integer f64s, to exercise the bit-pattern
    /// round trip).
    fn dense_sample() -> SampleReport {
        SampleReport {
            plan: SamplingPlan::new(1_000_000, 50_000, 20_000).unwrap(),
            intervals: 101,
            total_insts: 102,
            measured_insts: 103,
            measured_cycles: 104,
            ff_insts: 105,
            warm_insts: 106,
            cpi_mean: 1.375_000_000_1,
            cpi_ci95: 0.031_250_000_7,
            cycles_est: 107,
            cycles_ci95: 108,
            exact_fallback: false,
        }
    }

    #[test]
    fn roundtrip_every_field() {
        let run = dense_run();
        let text = encode(&run);
        let back = decode(&text).expect("decode");
        assert_eq!(back, run);
    }

    #[test]
    fn roundtrip_untraced() {
        let mut run = dense_run();
        run.breakdown = None;
        assert_eq!(decode(&encode(&run)).expect("decode"), run);
    }

    #[test]
    fn encoding_is_deterministic() {
        let run = dense_run();
        assert_eq!(encode(&run), encode(&run));
    }

    #[test]
    fn u64_counters_survive_past_f64_precision() {
        let mut run = dense_run();
        run.stats.cycles = u64::MAX - 1;
        assert_eq!(
            decode(&encode(&run)).expect("decode").stats.cycles,
            u64::MAX - 1
        );
    }

    #[test]
    fn full_detail_payloads_never_carry_the_sample_key() {
        // Byte-compatibility with pre-sampling cache entries: a run
        // without a sample report encodes exactly as version 1 always
        // did, and such payloads decode with `sample: None`.
        let run = dense_run();
        let text = encode(&run);
        assert!(
            !text.contains("sample"),
            "no sample key on full-detail payloads: {text}"
        );
        assert_eq!(decode(&text).expect("decode").sample, None);
    }

    #[test]
    fn roundtrip_sampled() {
        let mut run = dense_run();
        run.breakdown = None;
        run.sample = Some(dense_sample());
        let text = encode(&run);
        let back = decode(&text).expect("decode");
        assert_eq!(back, run);
        // f64s survive bit-exactly, not merely to printed precision.
        let s = back.sample.unwrap();
        assert_eq!(s.cpi_mean.to_bits(), dense_sample().cpi_mean.to_bits());
        assert_eq!(s.cpi_ci95.to_bits(), dense_sample().cpi_ci95.to_bits());
        assert_eq!(encode(&run), text, "sampled encoding is deterministic");

        // A split plan keeps its per-structure windows through the cache.
        let mut split = dense_sample();
        split.plan = SamplingPlan::parse("1M:20k/BTB=2k,PRED=5k:20k").unwrap();
        run.sample = Some(split);
        let text = encode(&run);
        assert!(
            text.contains("\"plan\":[1000000,20000,20000,2000,5000]"),
            "{text}"
        );
        assert_eq!(decode(&text).expect("decode split"), run);
    }

    #[test]
    fn mangled_sample_objects_are_errors() {
        let mut run = dense_run();
        run.sample = Some(dense_sample());
        let text = encode(&run);
        let missing = text.replacen("\"intervals\"", "\"intervals_gone\"", 1);
        assert!(decode(&missing).is_err());
        let bad_plan = text.replacen("\"plan\":[1000000", "\"plan\":[1", 1);
        assert!(
            decode(&bad_plan).is_err(),
            "an impossible plan must not decode"
        );
    }

    #[test]
    fn truncated_and_mangled_payloads_are_errors() {
        let text = encode(&dense_run());
        for cut in [0, 1, text.len() / 2, text.len() - 1] {
            assert!(
                decode(&text[..cut]).is_err(),
                "truncation at {cut} must fail"
            );
        }
        let wrong_version = text.replacen("\"v\":1", "\"v\":999", 1);
        assert!(decode(&wrong_version).is_err());
        let missing = text.replacen("\"cycles\"", "\"cycles_gone\"", 1);
        assert!(decode(&missing).is_err());
    }
}
