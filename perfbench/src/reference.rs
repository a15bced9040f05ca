//! Committed full-detail reference results for the `detailed` and
//! `sampled` pools.
//!
//! One line per cell: `<cell id> TAB <scd-serve payload JSON>`. The
//! payload is the same deterministic encoding the result cache uses, so
//! every counter round-trips exactly. Regenerate with
//! `perfbench reference <detailed|sampled>` (see README.md).

use scd_serve::payload::{self, CachedRun};
use std::collections::BTreeMap;

/// Reference results by cell id. An entry that does not decode is kept
/// as its error, so the cell that needs it fails instead of the run.
#[derive(Debug, Default)]
pub struct Reference(BTreeMap<String, Result<CachedRun, String>>);

impl Reference {
    /// Parses reference text.
    pub fn parse(text: &str) -> Reference {
        let mut map = BTreeMap::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            let entry = match line.split_once('\t') {
                Some((id, json)) => (id.to_string(), payload::decode(json)),
                None => (
                    line.to_string(),
                    Err("line has no TAB separator".to_string()),
                ),
            };
            map.insert(entry.0, entry.1);
        }
        Reference(map)
    }

    /// The full-detail result for `id`.
    ///
    /// # Errors
    /// The entry is missing or did not decode.
    pub fn get(&self, id: &str) -> Result<&CachedRun, String> {
        match self.0.get(id) {
            Some(Ok(run)) => Ok(run),
            Some(Err(e)) => Err(format!("reference entry for {id} is unreadable: {e}")),
            None => Err(format!("no reference entry for {id}")),
        }
    }
}

/// One reference line for `run`.
pub fn line(id: &str, run: &CachedRun) -> String {
    format!("{id}\t{}", payload::encode(run))
}

/// Checks a full-detail result against its reference: checksum,
/// dispatch count and every `SimStats` counter must be identical.
///
/// # Errors
/// The first difference found.
pub fn check_exact(reference: &Reference, id: &str, run: &CachedRun) -> Result<(), String> {
    let want = reference.get(id)?;
    if want.checksum != run.checksum || want.dispatches != run.dispatches {
        return Err(format!(
            "{id}: checksum/dispatches {:#x}/{} differ from reference {:#x}/{}",
            run.checksum, run.dispatches, want.checksum, want.dispatches
        ));
    }
    if want.stats != run.stats {
        return Err(format!(
            "{id}: stats differ from reference (cycles {} vs {}, instructions {} vs {})",
            run.stats.cycles, want.stats.cycles, run.stats.instructions, want.stats.instructions
        ));
    }
    Ok(())
}

/// Sampled-estimate accuracy against the full-detail reference.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SampleCheck {
    /// |estimated − full-detail| cycles, as a percentage of full detail.
    pub err_pct: f64,
    /// Retired instructions minus the full-detail count.
    pub extra_insts: i64,
}

/// Compares a sampled estimate with the cell's full-detail reference.
/// The architectural result (checksum, dispatches) must be identical;
/// the cycle estimate only has an error, reported, not judged.
///
/// # Errors
/// Missing/unreadable reference, or an architectural difference.
pub fn check_sampled(
    reference: &Reference,
    id: &str,
    run: &CachedRun,
) -> Result<SampleCheck, String> {
    let want = reference.get(id)?;
    if want.checksum != run.checksum || want.dispatches != run.dispatches {
        return Err(format!(
            "{id}: sampled checksum/dispatches differ from reference"
        ));
    }
    let total = run
        .sample
        .as_ref()
        .map_or(run.stats.instructions, |s| s.total_insts);
    let full = want.stats.cycles as f64;
    Ok(SampleCheck {
        err_pct: 100.0 * (run.stats.cycles as f64 - full).abs() / full,
        extra_insts: total as i64 - want.stats.instructions as i64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use scd_sim::SimStats;

    fn run(cycles: u64) -> CachedRun {
        let stats = SimStats {
            cycles,
            instructions: 10,
            ..SimStats::default()
        };
        CachedRun {
            checksum: 5,
            dispatches: 2,
            stats,
            breakdown: None,
            sample: None,
        }
    }

    #[test]
    fn lines_round_trip() {
        let r = Reference::parse(&(line("a/b", &run(7)) + "\n"));
        assert_eq!(r.get("a/b"), Ok(&run(7)));
        assert!(check_exact(&r, "a/b", &run(7)).is_ok());
    }

    #[test]
    fn tampered_or_missing_entries_are_errors_not_panics() {
        let good = line("x", &run(7));
        let tampered = good.replace("\"cycles\":7", "\"cycles\":8");
        assert_ne!(good, tampered);
        let r = Reference::parse(&tampered);
        assert!(check_exact(&r, "x", &run(7)).is_err());
        let garbled = Reference::parse(&good.replace("\"cycles\":7", "\"cycles\":\"seven\""));
        assert!(check_exact(&garbled, "x", &run(7)).is_err());
        assert!(check_exact(&r, "y", &run(7)).is_err());
        assert!(Reference::parse("no-tab-here").get("no-tab-here").is_err());
    }
}
