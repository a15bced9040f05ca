#![warn(missing_docs)]

//! # scd-guest — the interpreters that run *on* the simulated core
//!
//! The paper's measurements are about the machine code of a bytecode
//! interpreter; this crate authors that machine code. It builds the LVM
//! (Lua-like) and SVM (SpiderMonkey-like) interpreters in simulated
//! RV64 assembly, in three dispatch schemes each (baseline,
//! jump-threaded, SCD), lays out the guest address space, serializes
//! compiled Luma programs into guest images, and runs the whole stack on
//! `scd-sim`, validating every run bit-for-bit against the host oracle.
//!
//! ```
//! use scd_guest::{RunRequest, Scheme, Vm};
//! use scd_sim::SimConfig;
//!
//! # fn main() -> Result<(), String> {
//! let src = "var s = 0; for i = 1, N { s = s + i; } emit(s);";
//! let run = RunRequest::new(SimConfig::embedded_a5(), Vm::Lvm, src)
//!     .predefined(&[("N", 100.0)])
//!     .scheme(Scheme::Scd)
//!     .max_insts(10_000_000)
//!     .run()?;
//! assert!(run.stats.bop_hits > 0); // short-circuited dispatches
//! # Ok(())
//! # }
//! ```

pub mod common;
pub mod differential;
pub mod layout;
pub mod lvm;
pub mod oracle;
pub mod runner;
pub mod svm;

pub use common::{Guest, GuestOptions, Scheme};
pub use differential::{differential_check, DifferentialError, DifferentialReport};
pub use layout::{build_lvm_image, build_svm_image, Image};
pub use lvm::build_lvm_guest;
pub use oracle::{lockstep_check, LockstepReport};
pub use runner::{GuestError, GuestRun, RunRequest, Session, Vm};
pub use svm::build_svm_guest;
