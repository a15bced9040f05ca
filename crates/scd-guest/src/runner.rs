//! Builds a machine, loads a guest interpreter + program image, runs to
//! completion and validates the result against the host oracle.

use crate::common::{Guest, GuestOptions, Scheme};
use crate::layout::{self, Image};
use luma::lvm::LvmProgram;
use luma::svm::SvmProgram;
use scd_sim::{Exit, Machine, SampleReport, SamplingPlan, SimConfig, SimError, SimStats};
use std::fmt;

/// Which guest VM to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Vm {
    /// Register-based, Lua-like (47 opcodes).
    Lvm,
    /// Stack-based, SpiderMonkey-like (229-opcode space).
    Svm,
}

impl Vm {
    /// Both VMs, in the paper's presentation order.
    pub const ALL: [Vm; 2] = [Vm::Lvm, Vm::Svm];

    /// Report name, using the paper's language labels.
    pub fn name(self) -> &'static str {
        match self {
            Vm::Lvm => "lvm",
            Vm::Svm => "svm",
        }
    }
}

/// Error from a guest run.
#[derive(Debug)]
pub enum GuestError {
    /// The simulated machine faulted.
    Sim(SimError),
    /// The guest finished but its checksum differs from the oracle's.
    ChecksumMismatch {
        /// The guest's checksum.
        guest: u64,
        /// The oracle's checksum.
        oracle: u64,
    },
    /// The guest's retired-bytecode count differs from the oracle's.
    DispatchMismatch {
        /// The guest's retired-bytecode count.
        guest: u64,
        /// The oracle's bytecode count.
        oracle: u64,
    },
}

impl fmt::Display for GuestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GuestError::Sim(e) => write!(f, "simulation error: {e}"),
            GuestError::ChecksumMismatch { guest, oracle } => {
                write!(f, "checksum mismatch: guest {guest:#x}, oracle {oracle:#x}")
            }
            GuestError::DispatchMismatch { guest, oracle } => {
                write!(f, "dispatch-count mismatch: guest {guest}, oracle {oracle}")
            }
        }
    }
}

impl std::error::Error for GuestError {}

impl From<SimError> for GuestError {
    fn from(e: SimError) -> Self {
        GuestError::Sim(e)
    }
}

/// Result of a validated guest run.
#[derive(Debug)]
pub struct GuestRun {
    /// The `emit` checksum computed by the guest.
    pub checksum: u64,
    /// Bytecodes dispatched (from the guest's own retired counter).
    pub dispatches: u64,
    /// Full simulator statistics.
    pub stats: SimStats,
    /// Sampling metadata when the run executed in sampled mode (`stats`
    /// then holds the scaled estimate; checksum and dispatch count stay
    /// exact either way).
    pub sample: Option<SampleReport>,
}

/// Builds a machine with the guest interpreter installed and the
/// program image, globals, stacks and heap mapped — loaded but not yet
/// run.
fn build_machine(cfg: SimConfig, guest: &Guest, img: &Image) -> Machine {
    let mut m = Machine::new(cfg, &guest.program);
    m.set_annotations(guest.annotations.clone());
    m.map(
        "image",
        layout::IMAGE_BASE,
        (img.bytes.len() as u64 + 4095) & !4095,
    );
    m.mem.write_bytes(layout::IMAGE_BASE, &img.bytes);
    m.map("globals", layout::GLOBALS_BASE, 1 << 20);
    for (i, g) in img.global_init.iter().enumerate() {
        m.mem
            .write_u64(layout::GLOBALS_BASE + 8 * i as u64, *g)
            .expect("globals segment mapped");
    }
    m.map(
        "vstack+ctl",
        layout::VSTACK_BASE,
        layout::VSTACK_SIZE + layout::VMCTL_SIZE,
    );
    m.map("frames", layout::FRAME_BASE, layout::FRAME_SIZE);
    m.map("heap", layout::HEAP_BASE, layout::HEAP_SIZE);
    m
}

/// The compiled guest program plus everything the oracle needs.
enum Compiled {
    Lvm {
        /// Register-VM bytecode.
        program: LvmProgram,
        /// Initial global values.
        init: Vec<u64>,
    },
    Svm {
        /// Stack-VM bytecode.
        program: SvmProgram,
        /// Initial global values.
        init: Vec<u64>,
    },
}

/// A loaded guest run whose [`Machine`] is exposed for stepwise control.
///
/// Built by [`RunRequest::session`]. A `Session` separates *loading*
/// from *running* so the caller can install fault plans, trace sinks,
/// watchdog budgets or checkpoints on [`Session::machine`] before (or
/// between) runs, then have the result checked against the host oracle
/// with [`Session::validate`] — or run the request's budget and plan in
/// one call with [`Session::run_and_validate`].
pub struct Session {
    /// The fully loaded simulated machine. Drive it directly:
    /// `machine.set_fault_plan(..)`, `machine.snapshot()`,
    /// `machine.run(..)`, ...
    pub machine: Machine,
    compiled: Compiled,
    opts: GuestOptions,
    max_insts: u64,
    sample: Option<SamplingPlan>,
}

impl Session {
    /// Runs the machine to completion under the request's instruction
    /// budget — sampled (fast-forward → warm → measure) when the request
    /// carries a plan, full detail otherwise — and validates the result
    /// with [`Session::validate`]. Checksum and dispatch count are exact
    /// in every mode; a sampled run's `stats` hold the scaled estimate
    /// and it carries the [`SampleReport`].
    ///
    /// # Errors
    /// Returns [`GuestError`] on simulator faults or oracle mismatches.
    pub fn run_and_validate(&mut self) -> Result<GuestRun, GuestError> {
        let (exit, sample) = match self.sample {
            None => (self.machine.run(self.max_insts)?, None),
            Some(plan) => {
                let (exit, report) = self.machine.run_sampled(self.max_insts, &plan)?;
                (exit, Some(report))
            }
        };
        Ok(GuestRun {
            sample,
            ..self.validate(&exit)?
        })
    }

    /// Checks a completed run (its halting [`Exit`]) against the host
    /// oracle: the `emit` checksum must match, and with production
    /// weight the retired-dispatch count must too. The trace sink, if
    /// any, stays on the machine.
    ///
    /// # Errors
    /// Returns [`GuestError::ChecksumMismatch`] or
    /// [`GuestError::DispatchMismatch`] when the guest and oracle
    /// disagree.
    pub fn validate(&mut self, exit: &Exit) -> Result<GuestRun, GuestError> {
        let checksum = exit.code;
        let dispatches = self
            .machine
            .mem
            .read_u64(layout::VMCTL_BASE + layout::CTL_DISPATCH_COUNT as u64)
            .expect("ctl mapped");
        let oracle = match &self.compiled {
            Compiled::Lvm { program, init } => luma::lvm::LvmInterp::new(program, init)
                .run(u64::MAX)
                .expect("oracle agrees the program terminates"),
            Compiled::Svm { program, init } => luma::svm::SvmInterp::new(program, init)
                .run(u64::MAX)
                .expect("oracle agrees the program terminates"),
        };
        if oracle.checksum != checksum {
            return Err(GuestError::ChecksumMismatch {
                guest: checksum,
                oracle: oracle.checksum,
            });
        }
        if self.opts.production_weight && dispatches != oracle.steps {
            return Err(GuestError::DispatchMismatch {
                guest: dispatches,
                oracle: oracle.steps,
            });
        }
        Ok(GuestRun {
            checksum,
            dispatches,
            stats: self.machine.stats.clone(),
            sample: None,
        })
    }
}

/// Everything that identifies one guest run — one *cell* of the paper's
/// run matrix: hardware configuration, VM, program, inputs, dispatch
/// scheme, build options, instruction budget and execution mode.
///
/// The one way to run a guest: build a request, then
/// [`RunRequest::run`] it, open a [`Session`](RunRequest::session) for
/// stepwise control, or hand it to
/// [`differential_check`](crate::differential_check) for the fault
/// guard.
#[derive(Debug, Clone)]
pub struct RunRequest<'a> {
    /// Simulated-core configuration.
    pub cfg: SimConfig,
    /// Which guest VM interprets the program.
    pub vm: Vm,
    /// Benchmark source text.
    pub src: &'a str,
    /// Predefined variables (e.g. `[("N", 1000.0)]`).
    pub predefined: &'a [(&'a str, f64)],
    /// Dispatch scheme of the interpreter build.
    pub scheme: Scheme,
    /// Interpreter build options.
    pub opts: GuestOptions,
    /// Retired-instruction budget (`u64::MAX` = unbounded).
    pub max_insts: u64,
    /// Run in sampled mode under this plan instead of full detail.
    pub sample: Option<SamplingPlan>,
}

impl<'a> RunRequest<'a> {
    /// A request with the common defaults: no predefined variables,
    /// baseline scheme, default build options, unbounded budget.
    pub fn new(cfg: SimConfig, vm: Vm, src: &'a str) -> Self {
        RunRequest {
            cfg,
            vm,
            src,
            predefined: &[],
            scheme: Scheme::Baseline,
            opts: GuestOptions::default(),
            max_insts: u64::MAX,
            sample: None,
        }
    }

    /// Sets the predefined variables.
    #[must_use]
    pub fn predefined(mut self, predefined: &'a [(&'a str, f64)]) -> Self {
        self.predefined = predefined;
        self
    }

    /// Sets the dispatch scheme.
    #[must_use]
    pub fn scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = scheme;
        self
    }

    /// Sets the interpreter build options.
    #[must_use]
    pub fn opts(mut self, opts: GuestOptions) -> Self {
        self.opts = opts;
        self
    }

    /// Sets the retired-instruction budget.
    #[must_use]
    pub fn max_insts(mut self, max_insts: u64) -> Self {
        self.max_insts = max_insts;
        self
    }

    /// Selects sampled execution under `plan` (`None` = full detail).
    #[must_use]
    pub fn sample(mut self, plan: Option<SamplingPlan>) -> Self {
        self.sample = plan;
        self
    }

    /// The canonical identity manifest for content-addressed result
    /// caching: a versioned, deterministic text rendering of everything
    /// that can change the simulated outcome — the full [`SimConfig`]
    /// (its `Debug` form, the same canonicalization the snapshot
    /// fingerprint relies on), VM, dispatch scheme, build options,
    /// instruction budget, the predefined variables (f64s by bit
    /// pattern, so `-0.0` and NaN payloads stay distinct) and the
    /// program source itself. Cache layers hash this text to derive the
    /// entry key; the leading version line must be bumped whenever the
    /// simulator's timing model changes meaning without any field here
    /// changing, which invalidates every stale entry at once.
    pub fn cache_manifest(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        s.push_str("scd-run-request-v1\n");
        let _ = writeln!(s, "cfg {:?}", self.cfg);
        let _ = writeln!(s, "vm {}", self.vm.name());
        let _ = writeln!(s, "scheme {}", self.scheme.name());
        let _ = writeln!(s, "opts {:?}", self.opts);
        let _ = writeln!(s, "max_insts {}", self.max_insts);
        // Only present for sampled runs, so every full-detail manifest
        // (and thus every existing cache entry) is byte-identical to
        // what it was before sampling existed.
        if let Some(plan) = &self.sample {
            let _ = writeln!(s, "{}", plan.manifest());
        }
        let _ = writeln!(s, "predefined {}", self.predefined.len());
        for (k, v) in self.predefined {
            let _ = writeln!(s, "  {} {:#018x}", k, v.to_bits());
        }
        let _ = writeln!(s, "src {}", self.src.len());
        s.push_str(self.src);
        s
    }

    /// Parses and compiles the program for the request's VM, builds the
    /// guest interpreter under its scheme and loads everything into a
    /// fresh [`Session`] (machine built, not run).
    ///
    /// # Errors
    /// Returns a string describing parse or compile errors.
    pub fn session(&self) -> Result<Session, String> {
        let script = luma::parser::parse(self.src).map_err(|e| e.to_string())?;
        let (compiled, img, guest) = match self.vm {
            Vm::Lvm => {
                let (p, init) =
                    luma::lvm::compile_lvm(&script, self.predefined).map_err(|e| e.to_string())?;
                let img = layout::build_lvm_image(&p, &init);
                let guest = crate::lvm::build_lvm_guest(&img, self.scheme, self.opts);
                (Compiled::Lvm { program: p, init }, img, guest)
            }
            Vm::Svm => {
                let (p, init) =
                    luma::svm::compile_svm(&script, self.predefined).map_err(|e| e.to_string())?;
                let img = layout::build_svm_image(&p, &init);
                let guest = crate::svm::build_svm_guest(&img, self.scheme, self.opts);
                (Compiled::Svm { program: p, init }, img, guest)
            }
        };
        Ok(Session {
            machine: build_machine(self.cfg.clone(), &guest, &img),
            compiled,
            opts: self.opts,
            max_insts: self.max_insts,
            sample: self.sample,
        })
    }

    /// Runs the request end to end and validates against the oracle.
    ///
    /// # Errors
    /// Returns a string describing parse/compile errors or a
    /// [`GuestError`].
    pub fn run(&self) -> Result<GuestRun, String> {
        self.run_with(|_| {})
    }

    /// [`RunRequest::run`] with a `setup` hook run on the machine just
    /// before execution — the place to tune the invariant checker or
    /// install a fault plan. A caller that needs a trace sink back
    /// opens a [`Session`](RunRequest::session) and takes it from the
    /// machine.
    ///
    /// # Errors
    /// Returns a string describing parse/compile errors or a
    /// [`GuestError`].
    pub fn run_with(&self, setup: impl FnOnce(&mut Machine)) -> Result<GuestRun, String> {
        let mut session = self.session()?;
        setup(&mut session.machine);
        session.run_and_validate().map_err(|e| e.to_string())
    }
}
