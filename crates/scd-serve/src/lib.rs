#![warn(missing_docs)]

//! # scd-serve — crash-safe batch simulation with a persistent result cache
//!
//! ROADMAP item 3: generalize the sweep's in-process deduplication
//! (1,111 requested cells → 594 simulated) into a persistent,
//! many-client service layer. The crate has two halves:
//!
//! - **[`cache`]** — a content-addressed on-disk store keyed by the
//!   SHA-256 of a run's canonical manifest (program source, `SimConfig`,
//!   scheme, inputs — see `RunRequest::cache_manifest` in `scd-guest`).
//!   Entries commit via temp-file + atomic rename behind a
//!   length-and-checksum header; corruption quarantines and recomputes,
//!   a killed writer's leftovers are swept on the next open. Crashes
//!   and bit rot cost time, never correctness and never a panic.
//! - **[`driver`]** — the workspace's one worker pool ([`run_batch`],
//!   [`parallel_map`]) and its one job runner ([`simulate_job`]):
//!   outcomes stream in input order, panics are isolated, transient
//!   failures retry once, and an interrupted batch resumes as cache hits.
//!
//! The `scd serve --jobs file.jsonl` subcommand is the CLI client; the
//! sweep driver in `scd-bench` is the library client, running each
//! unique cell as a [`JobSpec`] (opt-in `--cache DIR`). One runner
//! means one key derivation ([`driver::manifest_for`]), so a sweep
//! warms the cache for serve jobs and vice versa.
//!
//! Everything is hand-rolled on `std` only (the workspace builds
//! offline): [`sha256`] for keys, [`json`] (shared with `scd-sim`'s
//! trace reader) for job files and payloads, [`signal`] for
//! SIGINT-as-a-flag via the already-linked libc.

pub mod cache;
pub mod driver;
pub mod jobs;
/// The workspace's one JSON parser, kept here under its old path.
pub use scd_sim::json;
pub mod payload;
pub mod sha256;
pub mod signal;

pub use cache::{Cache, CacheStats};
pub use driver::{manifest_for, parallel_map, run_batch, simulate_job, BatchSummary};
pub use jobs::{parse_jobs, render_result, JobDone, JobError, JobOutcome, JobSpec};
pub use payload::CachedRun;
pub use signal::{install_sigint_flag, EXIT_SIGINT};
