//! # scd — Short-Circuit Dispatch reproduction (facade crate)
//!
//! Re-exports the whole stack of the ISCA 2016 "Short-Circuit Dispatch"
//! reproduction. See the [README](https://example.org/scd) and the
//! individual crates:
//!
//! * [`scd_isa`] — the RV64-subset ISA with the SCD extension.
//! * [`scd_sim`] — the embedded in-order core simulator.
//! * [`luma`] — the scripting language and its two VM targets.
//! * [`scd_guest`] — the interpreters that run on the simulated core.
//! * [`scd_model`] — the analytical area/power/EDP model.
//!
//! ```
//! use scd::scd_guest::{RunRequest, Scheme, Vm};
//! use scd::scd_sim::SimConfig;
//!
//! # fn main() -> Result<(), String> {
//! let src = "var s = 0; for i = 1, N { s = s + i; } emit(s);";
//! let run = RunRequest::new(SimConfig::embedded_a5(), Vm::Lvm, src)
//!     .predefined(&[("N", 64.0)])
//!     .scheme(Scheme::Scd)
//!     .max_insts(1_000_000)
//!     .run()?;
//! assert!(run.stats.bop_hits > 0);
//! # Ok(())
//! # }
//! ```

pub use luma;
pub use scd_guest;
pub use scd_isa;
pub use scd_model;
pub use scd_sim;
