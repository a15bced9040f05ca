//! Structured retirement tracing and cross-counter self-checks.
//!
//! The machine can emit one [`TraceEvent`] per retired instruction,
//! carrying everything the timing model charged for it: the cycle
//! delta, fetch- and data-side miss attribution (L1/TLB/L2), branch
//! class and prediction outcome, front-end redirect cause and penalty,
//! `bop` outcome and Rop-wait stall, and every BTB/JTE insert or flush
//! the instruction performed.
//!
//! Two consumers are built in:
//!
//! * [`TraceSink`] implementations receive the live event stream.
//!   [`JsonlSink`] serializes each event as one JSON line (schema in
//!   `EXPERIMENTS.md`); [`VecSink`] buffers events for tests;
//!   [`CycleBreakdown`] aggregates the event stream into the
//!   dispatch-cycle decomposition behind the Fig. 7/10 discussion.
//! * [`StatInvariants`] replays the event stream into a second,
//!   independent [`SimStats`] via [`ReplayStats`] and asserts — every N
//!   instructions — that the replay matches the machine's live counters
//!   field for field, along with the cross-counter identities
//!   (`bop_hits + bop_misses == bop_executed`, cycle monotonicity,
//!   per-class branch counts summing to the total, and the JTE
//!   population identity checked against the BTB itself).
//!
//! The pair is the trustworthiness argument for the paper figures: the
//! per-event attribution and the aggregate counters are produced by
//! different code paths, so an accounting bug in either shows up as a
//! checkpoint panic instead of a silently wrong figure.

use crate::btb::{EntryKind, InsertOutcome};
use crate::fault::{FaultEvent, FaultKind};
use crate::json::{self, Value};
use crate::stats::{BranchClass, SimStats, COUNTER_NAMES};
use scd_isa::Inst;

// ---------------------------------------------------------------------
// Event structure
// ---------------------------------------------------------------------

/// Coarse class of a retired instruction, for attribution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstClass {
    /// Integer ALU (including `lui`/`auipc` and immediates).
    Alu,
    /// Integer load.
    Load,
    /// Integer store.
    Store,
    /// FP load (`fld`).
    FpLoad,
    /// FP store (`fsd`).
    FpStore,
    /// FP arithmetic, compares and moves.
    Fp,
    /// Conditional branch.
    CondBranch,
    /// Direct jump (`jal`).
    Jal,
    /// Indirect jump (`jalr`).
    Jalr,
    /// Environment call.
    Ecall,
    /// Memory fence.
    Fence,
    /// SCD `setmask`.
    SetMask,
    /// SCD `bop`.
    Bop,
    /// SCD `jru`.
    Jru,
    /// SCD `jte.flush`.
    JteFlush,
    /// SCD `load_op`.
    LoadOp,
    /// Anything else (never retired today; reserved).
    Other,
}

impl InstClass {
    /// Classifies a decoded instruction.
    pub fn of(inst: &Inst) -> Self {
        match inst {
            Inst::Lui { .. } | Inst::Auipc { .. } | Inst::OpImm { .. } | Inst::Op { .. } => {
                InstClass::Alu
            }
            Inst::Jal { .. } => InstClass::Jal,
            Inst::Jalr { .. } => InstClass::Jalr,
            Inst::Branch { .. } => InstClass::CondBranch,
            Inst::Load { .. } => InstClass::Load,
            Inst::Store { .. } => InstClass::Store,
            Inst::Fld { .. } => InstClass::FpLoad,
            Inst::Fsd { .. } => InstClass::FpStore,
            Inst::FOp { .. }
            | Inst::FCmp { .. }
            | Inst::FcvtLD { .. }
            | Inst::FcvtDL { .. }
            | Inst::FmvXD { .. }
            | Inst::FmvDX { .. } => InstClass::Fp,
            Inst::Ecall => InstClass::Ecall,
            Inst::Fence => InstClass::Fence,
            Inst::SetMask { .. } => InstClass::SetMask,
            Inst::Bop { .. } => InstClass::Bop,
            Inst::Jru { .. } => InstClass::Jru,
            Inst::JteFlush => InstClass::JteFlush,
            Inst::LoadOp { .. } => InstClass::LoadOp,
            Inst::Ebreak => InstClass::Other,
        }
    }

    /// Wire name used in the JSONL encoding.
    pub fn name(self) -> &'static str {
        match self {
            InstClass::Alu => "alu",
            InstClass::Load => "load",
            InstClass::Store => "store",
            InstClass::FpLoad => "fp_load",
            InstClass::FpStore => "fp_store",
            InstClass::Fp => "fp",
            InstClass::CondBranch => "branch",
            InstClass::Jal => "jal",
            InstClass::Jalr => "jalr",
            InstClass::Ecall => "ecall",
            InstClass::Fence => "fence",
            InstClass::SetMask => "setmask",
            InstClass::Bop => "bop",
            InstClass::Jru => "jru",
            InstClass::JteFlush => "jte_flush",
            InstClass::LoadOp => "load_op",
            InstClass::Other => "other",
        }
    }

    fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "alu" => InstClass::Alu,
            "load" => InstClass::Load,
            "store" => InstClass::Store,
            "fp_load" => InstClass::FpLoad,
            "fp_store" => InstClass::FpStore,
            "fp" => InstClass::Fp,
            "branch" => InstClass::CondBranch,
            "jal" => InstClass::Jal,
            "jalr" => InstClass::Jalr,
            "ecall" => InstClass::Ecall,
            "fence" => InstClass::Fence,
            "setmask" => InstClass::SetMask,
            "bop" => InstClass::Bop,
            "jru" => InstClass::Jru,
            "jte_flush" => InstClass::JteFlush,
            "load_op" => InstClass::LoadOp,
            "other" => InstClass::Other,
            _ => return None,
        })
    }

    /// Whether this class performs exactly one data-memory access.
    pub fn is_load(self) -> bool {
        matches!(self, InstClass::Load | InstClass::FpLoad | InstClass::LoadOp)
    }

    /// Whether this class performs exactly one data-memory write.
    pub fn is_store(self) -> bool {
        matches!(self, InstClass::Store | InstClass::FpStore)
    }
}

/// L2 outcome under an L1 miss.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct L2Access {
    /// The L2 also missed (DRAM was charged).
    pub miss: bool,
    /// A dirty L2 line was written back.
    pub writeback: bool,
}

/// Instruction-fetch attribution for one retirement.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FetchAccess {
    /// The I-TLB missed.
    pub itlb_miss: bool,
    /// The I-cache missed.
    pub icache_miss: bool,
    /// L2 outcome, when the I-cache missed and an L2 is configured.
    pub l2: Option<L2Access>,
    /// Cycles charged for fetch-side misses.
    pub penalty: u64,
}

impl FetchAccess {
    fn is_default(&self) -> bool {
        *self == FetchAccess::default()
    }
}

/// Data-side attribution for one retirement (present only when misses
/// or writebacks occurred; the access itself is implied by the class).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DataAccess {
    /// The D-TLB missed.
    pub dtlb_miss: bool,
    /// The D-cache missed.
    pub dcache_miss: bool,
    /// A dirty D-cache line was written back.
    pub writeback: bool,
    /// L2 outcome, when the D-cache missed and an L2 is configured.
    pub l2: Option<L2Access>,
    /// Cycles charged for data-side misses.
    pub penalty: u64,
}

impl DataAccess {
    pub(crate) fn is_default(&self) -> bool {
        *self == DataAccess::default()
    }
}

/// Branch retirement outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BranchEvent {
    /// The branch class.
    pub class: BranchClass,
    /// Whether the front end mispredicted it.
    pub mispredicted: bool,
}

/// Why the front end was redirected at this instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedirectCause {
    /// `jal` whose target was not in the BTB (decode redirect).
    JalMiss,
    /// Conditional branch mispredicted.
    CondMispredict,
    /// Indirect jump (or return) mispredicted.
    IndirectMispredict,
    /// `bop` short-circuit hit (charges the configured bubbles).
    BopHit,
}

impl RedirectCause {
    fn name(self) -> &'static str {
        match self {
            RedirectCause::JalMiss => "jal_miss",
            RedirectCause::CondMispredict => "cond_mispredict",
            RedirectCause::IndirectMispredict => "indirect_mispredict",
            RedirectCause::BopHit => "bop_hit",
        }
    }

    fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "jal_miss" => RedirectCause::JalMiss,
            "cond_mispredict" => RedirectCause::CondMispredict,
            "indirect_mispredict" => RedirectCause::IndirectMispredict,
            "bop_hit" => RedirectCause::BopHit,
            _ => return None,
        })
    }
}

/// A front-end redirect charged at this instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RedirectEvent {
    /// What caused it.
    pub cause: RedirectCause,
    /// Cycles charged (may be zero, e.g. zero-bubble `bop` hits).
    pub penalty: u64,
}

/// Outcome of one `bop` execution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BopOutcome {
    /// Short-circuited through a JTE hit.
    Hit,
    /// Rop was valid but the JTE lookup missed (slow path follows).
    JteMiss,
    /// Rop was not valid (no `load_op` since the last consume/flush).
    RopInvalid,
    /// Fall-through scheme: Rop was not yet available at fetch.
    NotReady,
    /// SCD disabled in this configuration.
    Disabled,
}

impl BopOutcome {
    fn name(self) -> &'static str {
        match self {
            BopOutcome::Hit => "hit",
            BopOutcome::JteMiss => "jte_miss",
            BopOutcome::RopInvalid => "rop_invalid",
            BopOutcome::NotReady => "not_ready",
            BopOutcome::Disabled => "disabled",
        }
    }

    fn from_name(s: &str) -> Option<Self> {
        Some(match s {
            "hit" => BopOutcome::Hit,
            "jte_miss" => BopOutcome::JteMiss,
            "rop_invalid" => BopOutcome::RopInvalid,
            "not_ready" => BopOutcome::NotReady,
            "disabled" => BopOutcome::Disabled,
            _ => return None,
        })
    }
}

/// `bop` retirement details.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BopEvent {
    /// What the short-circuit attempt did.
    pub outcome: BopOutcome,
    /// Cycles stalled waiting for Rop (stall scheme only).
    pub stall: u64,
}

/// One BTB insert performed by this instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BtbInsertEvent {
    /// Key space of the inserted entry.
    pub key: EntryKind,
    /// What the BTB did with it.
    pub outcome: InsertOutcome,
}

/// Up to two BTB inserts for one retirement (a `jru` can install a JTE
/// and train the indirect predictor in the same instruction).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Inserts {
    slots: [Option<BtbInsertEvent>; 2],
}

impl Inserts {
    pub(crate) fn push(&mut self, ev: BtbInsertEvent) {
        for s in &mut self.slots {
            if s.is_none() {
                *s = Some(ev);
                return;
            }
        }
        debug_assert!(false, "more than two BTB inserts in one retirement");
    }

    /// Iterates the recorded inserts in order.
    pub fn iter(&self) -> impl Iterator<Item = &BtbInsertEvent> {
        self.slots.iter().flatten()
    }

    /// True when no insert was recorded.
    pub fn is_empty(&self) -> bool {
        self.slots[0].is_none()
    }
}

/// JTE flushes performed at this instruction (the periodic context-switch
/// flush and an explicit `jte.flush` can coincide).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JteFlushEvent {
    /// Number of flush operations.
    pub flushes: u64,
    /// Total JTE entries invalidated by them.
    pub flushed: u64,
}

/// The architectural side of one retirement: what the instruction
/// *computed*, as opposed to what it *cost*. This is the per-instruction
/// contract the lockstep oracle (`scd-sim::lockstep`, backed by the
/// `scd-ref` reference ISS) checks against the shared
/// [`scd_isa::exec`] semantics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchInfo {
    /// Integer writeback: (register index, value after execute). Present
    /// for any class that defines an x-register; writes to `x0` report
    /// value 0.
    pub wx: Option<(u8, u64)>,
    /// FP writeback: (register index, raw bits after execute).
    pub wf: Option<(u8, u64)>,
    /// Effective address of a load, store or `<load>.op`.
    pub ea: Option<u64>,
    /// Store data, truncated to the access width.
    pub store: Option<u64>,
    /// Where fetch goes next after this retirement (for the final,
    /// halting retirement: the fall-through PC).
    pub next_pc: u64,
}

/// Everything the timing model charged for one retired instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Retirement index, starting at 0.
    pub seq: u64,
    /// PC of the instruction.
    pub pc: u64,
    /// Coarse instruction class.
    pub class: InstClass,
    /// Machine cycle after this retirement.
    pub cycle: u64,
    /// Cycles attributed to this instruction (delta from the previous
    /// retirement; 0 when dual-issued into an existing slot).
    pub cycles: u64,
    /// Whether the PC lies in a registered dispatcher range.
    pub dispatch: bool,
    /// Fetch-side miss attribution.
    pub fetch: FetchAccess,
    /// Data-side miss attribution (None when no miss/writeback; the
    /// access itself is implied by the class).
    pub data: Option<DataAccess>,
    /// Branch outcome, for branch-class instructions.
    pub branch: Option<BranchEvent>,
    /// Front-end redirect charged here.
    pub redirect: Option<RedirectEvent>,
    /// `bop` details (present exactly when `class == Bop`).
    pub bop: Option<BopEvent>,
    /// BTB/JTE inserts performed.
    pub inserts: Inserts,
    /// JTE flushes performed.
    pub flush: Option<JteFlushEvent>,
    /// Micro-architectural fault injected before this instruction (by a
    /// [`crate::FaultPlan`]). Carries the number of JTEs it evicted so
    /// replayed statistics stay balanced.
    pub fault: Option<FaultEvent>,
    /// Architectural retirement record (always captured by the machine;
    /// `None` only in hand-built or legacy events). Ignored by the
    /// statistics replay — no counter derives from it.
    pub arch: Option<ArchInfo>,
}

// ---------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------

/// Receives the retirement event stream from a [`crate::Machine`].
///
/// Sinks are `Send` so a machine (which owns its sink) can run on a
/// worker thread, and `Any` so a concrete sink handed to
/// [`crate::Machine::set_trace_sink`] can be recovered — with its
/// accumulated state — via [`crate::Machine::take_trace_sink`] plus
/// [`downcast_sink`] after the run. This replaces the old
/// `Rc<RefCell<...>>` sharing, which pinned every traced run to one
/// thread.
pub trait TraceSink: Send + std::any::Any {
    /// Called once per retired instruction, in retirement order.
    fn event(&mut self, ev: &TraceEvent);

    /// Called when the run completes (halt or instruction limit); flush
    /// buffered output here.
    fn finish(&mut self) {}
}

/// Recovers the concrete sink behind a [`Machine`](crate::Machine)'s
/// boxed [`TraceSink`], typically straight out of
/// [`take_trace_sink`](crate::Machine::take_trace_sink):
///
/// ```
/// # use scd_sim::{downcast_sink, CycleBreakdown, TraceSink};
/// let boxed: Box<dyn TraceSink> = Box::new(CycleBreakdown::default());
/// let breakdown: Box<CycleBreakdown> = downcast_sink(boxed).unwrap();
/// # let _ = breakdown;
/// ```
///
/// Returns `None` when the sink is some other type (the boxed sink is
/// consumed either way — misidentifying a sink is a caller bug, not a
/// state to recover from).
pub fn downcast_sink<T: TraceSink>(sink: Box<dyn TraceSink>) -> Option<Box<T>> {
    let any: Box<dyn std::any::Any> = sink;
    any.downcast::<T>().ok()
}

/// Buffers every event in memory; for tests and small runs.
#[derive(Debug, Default)]
pub struct VecSink {
    /// The collected events.
    pub events: Vec<TraceEvent>,
}

impl TraceSink for VecSink {
    fn event(&mut self, ev: &TraceEvent) {
        self.events.push(*ev);
    }
}

/// Keeps only the most recent `cap` events — a bounded window for
/// post-mortem dumps. The fault-injection differential guard installs
/// one on the faulted run so a divergence can dump the trace tail
/// without paying for a full-run trace.
#[derive(Debug)]
pub struct RingSink {
    cap: usize,
    buf: std::collections::VecDeque<TraceEvent>,
}

impl RingSink {
    /// Creates a ring buffer holding at most `cap` events.
    ///
    /// # Panics
    /// Panics if `cap` is zero.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "RingSink needs a nonzero capacity");
        RingSink { cap, buf: std::collections::VecDeque::with_capacity(cap) }
    }

    /// The buffered events, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &TraceEvent> {
        self.buf.iter()
    }

    /// Number of buffered events (at most the capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing has been buffered yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Serializes the window as JSONL, oldest event first.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for ev in &self.buf {
            ev.write_json(&mut out);
            out.push('\n');
        }
        out
    }
}

impl TraceSink for RingSink {
    fn event(&mut self, ev: &TraceEvent) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back(*ev);
    }
}

/// Writes one JSON object per event, one per line (the `--trace` format;
/// schema documented in `EXPERIMENTS.md`).
#[derive(Debug)]
pub struct JsonlSink<W: std::io::Write> {
    w: W,
    line: String,
}

impl JsonlSink<std::io::BufWriter<std::fs::File>> {
    /// Creates (truncating) a JSONL trace file at `path`.
    ///
    /// # Errors
    /// Propagates the `File::create` error.
    pub fn create(path: &std::path::Path) -> std::io::Result<Self> {
        Ok(JsonlSink::new(std::io::BufWriter::new(std::fs::File::create(path)?)))
    }
}

impl<W: std::io::Write> JsonlSink<W> {
    /// Wraps an arbitrary writer.
    pub fn new(w: W) -> Self {
        JsonlSink { w, line: String::with_capacity(256) }
    }
}

impl<W: std::io::Write + Send + 'static> TraceSink for JsonlSink<W> {
    fn event(&mut self, ev: &TraceEvent) {
        self.line.clear();
        ev.write_json(&mut self.line);
        self.line.push('\n');
        self.w.write_all(self.line.as_bytes()).expect("trace write failed");
    }

    fn finish(&mut self) {
        self.w.flush().expect("trace flush failed");
    }
}

// ---------------------------------------------------------------------
// JSON encoding
// ---------------------------------------------------------------------

fn kind_name(k: EntryKind) -> &'static str {
    match k {
        EntryKind::Pc => "pc",
        EntryKind::Jte => "jte",
        EntryKind::Vbbi => "vbbi",
    }
}

fn kind_from_name(s: &str) -> Option<EntryKind> {
    Some(match s {
        "pc" => EntryKind::Pc,
        "jte" => EntryKind::Jte,
        "vbbi" => EntryKind::Vbbi,
        _ => return None,
    })
}

fn branch_class_name(c: BranchClass) -> &'static str {
    match c {
        BranchClass::Conditional => "cond",
        BranchClass::Direct => "direct",
        BranchClass::Return => "ret",
        BranchClass::IndirectDispatch => "ind_dispatch",
        BranchClass::IndirectOther => "ind_other",
    }
}

fn branch_class_from_name(s: &str) -> Option<BranchClass> {
    Some(match s {
        "cond" => BranchClass::Conditional,
        "direct" => BranchClass::Direct,
        "ret" => BranchClass::Return,
        "ind_dispatch" => BranchClass::IndirectDispatch,
        "ind_other" => BranchClass::IndirectOther,
        _ => return None,
    })
}

impl TraceEvent {
    /// Appends the one-line JSON encoding of this event to `out`.
    /// Optional sub-objects and false/zero flags are omitted.
    pub fn write_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        let _ = write!(
            out,
            "{{\"seq\":{},\"pc\":{},\"class\":\"{}\",\"cycle\":{},\"cycles\":{}",
            self.seq,
            self.pc,
            self.class.name(),
            self.cycle,
            self.cycles
        );
        if self.dispatch {
            out.push_str(",\"dispatch\":true");
        }
        if !self.fetch.is_default() {
            out.push_str(",\"fetch\":{");
            let mut first = true;
            json_flag(out, &mut first, "itlb_miss", self.fetch.itlb_miss);
            json_flag(out, &mut first, "icache_miss", self.fetch.icache_miss);
            json_l2(out, &mut first, self.fetch.l2);
            json_num(out, &mut first, "penalty", self.fetch.penalty);
            out.push('}');
        }
        if let Some(d) = &self.data {
            out.push_str(",\"data\":{");
            let mut first = true;
            json_flag(out, &mut first, "dtlb_miss", d.dtlb_miss);
            json_flag(out, &mut first, "dcache_miss", d.dcache_miss);
            json_flag(out, &mut first, "writeback", d.writeback);
            json_l2(out, &mut first, d.l2);
            json_num(out, &mut first, "penalty", d.penalty);
            out.push('}');
        }
        if let Some(b) = &self.branch {
            let _ = write!(
                out,
                ",\"branch\":{{\"class\":\"{}\",\"mispredicted\":{}}}",
                branch_class_name(b.class),
                b.mispredicted
            );
        }
        if let Some(r) = &self.redirect {
            let _ = write!(
                out,
                ",\"redirect\":{{\"cause\":\"{}\",\"penalty\":{}}}",
                r.cause.name(),
                r.penalty
            );
        }
        if let Some(b) = &self.bop {
            let _ = write!(
                out,
                ",\"bop\":{{\"outcome\":\"{}\",\"stall\":{}}}",
                b.outcome.name(),
                b.stall
            );
        }
        if !self.inserts.is_empty() {
            out.push_str(",\"inserts\":[");
            for (i, ins) in self.inserts.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                let _ = write!(out, "{{\"key\":\"{}\",", kind_name(ins.key));
                match ins.outcome {
                    InsertOutcome::Updated => out.push_str("\"outcome\":\"updated\"}"),
                    InsertOutcome::CapSkipped => out.push_str("\"outcome\":\"cap_skipped\"}"),
                    InsertOutcome::Blocked => out.push_str("\"outcome\":\"blocked\"}"),
                    InsertOutcome::Inserted { evicted, remote_jte_evicted } => {
                        out.push_str("\"outcome\":\"inserted\"");
                        if let Some(k) = evicted {
                            let _ = write!(out, ",\"evicted\":\"{}\"", kind_name(k));
                        }
                        if remote_jte_evicted {
                            out.push_str(",\"remote_jte_evicted\":true");
                        }
                        out.push('}');
                    }
                }
            }
            out.push(']');
        }
        if let Some(f) = &self.flush {
            let _ =
                write!(out, ",\"flush\":{{\"flushes\":{},\"flushed\":{}}}", f.flushes, f.flushed);
        }
        if let Some(ft) = &self.fault {
            let _ = write!(out, ",\"fault\":{{\"kind\":\"{}\"", ft.kind.name());
            if ft.evicted != 0 {
                let _ = write!(out, ",\"evicted\":{}", ft.evicted);
            }
            out.push('}');
        }
        if let Some(a) = &self.arch {
            // Values here can legitimately be 0, so presence is encoded
            // by the key, never elided like the flag helpers do.
            let _ = write!(out, ",\"arch\":{{\"next_pc\":{}", a.next_pc);
            if let Some((r, v)) = a.wx {
                let _ = write!(out, ",\"wx_r\":{r},\"wx_v\":{v}");
            }
            if let Some((r, v)) = a.wf {
                let _ = write!(out, ",\"wf_r\":{r},\"wf_v\":{v}");
            }
            if let Some(ea) = a.ea {
                let _ = write!(out, ",\"ea\":{ea}");
            }
            if let Some(st) = a.store {
                let _ = write!(out, ",\"store\":{st}");
            }
            out.push('}');
        }
        out.push('}');
    }

    /// The one-line JSON encoding of this event.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(160);
        self.write_json(&mut s);
        s
    }

    /// Parses an event from its JSONL line.
    ///
    /// # Errors
    /// Returns a description of the first syntactic or schema problem.
    pub fn from_json(line: &str) -> Result<TraceEvent, String> {
        let v = json::parse(line)?;
        let obj = v.as_obj().ok_or("event must be a JSON object")?;
        let class_name = get_str(obj, "class")?;
        let class = InstClass::from_name(class_name)
            .ok_or_else(|| format!("unknown class {class_name:?}"))?;
        let mut ev = TraceEvent {
            seq: get_num(obj, "seq")?,
            pc: get_num(obj, "pc")?,
            class,
            cycle: get_num(obj, "cycle")?,
            cycles: get_num(obj, "cycles")?,
            dispatch: get_flag(obj, "dispatch")?,
            fetch: FetchAccess::default(),
            data: None,
            branch: None,
            redirect: None,
            bop: None,
            inserts: Inserts::default(),
            flush: None,
            fault: None,
            arch: None,
        };
        if let Some(f) = get(obj, "fetch") {
            let f = f.as_obj().ok_or("fetch must be an object")?;
            ev.fetch = FetchAccess {
                itlb_miss: get_flag(f, "itlb_miss")?,
                icache_miss: get_flag(f, "icache_miss")?,
                l2: get_l2(f)?,
                penalty: get_num_or_zero(f, "penalty")?,
            };
        }
        if let Some(d) = get(obj, "data") {
            let d = d.as_obj().ok_or("data must be an object")?;
            ev.data = Some(DataAccess {
                dtlb_miss: get_flag(d, "dtlb_miss")?,
                dcache_miss: get_flag(d, "dcache_miss")?,
                writeback: get_flag(d, "writeback")?,
                l2: get_l2(d)?,
                penalty: get_num_or_zero(d, "penalty")?,
            });
        }
        if let Some(b) = get(obj, "branch") {
            let b = b.as_obj().ok_or("branch must be an object")?;
            let name = get_str(b, "class")?;
            ev.branch = Some(BranchEvent {
                class: branch_class_from_name(name)
                    .ok_or_else(|| format!("unknown branch class {name:?}"))?,
                mispredicted: get_flag(b, "mispredicted")?,
            });
        }
        if let Some(r) = get(obj, "redirect") {
            let r = r.as_obj().ok_or("redirect must be an object")?;
            let name = get_str(r, "cause")?;
            ev.redirect = Some(RedirectEvent {
                cause: RedirectCause::from_name(name)
                    .ok_or_else(|| format!("unknown redirect cause {name:?}"))?,
                penalty: get_num_or_zero(r, "penalty")?,
            });
        }
        if let Some(b) = get(obj, "bop") {
            let b = b.as_obj().ok_or("bop must be an object")?;
            let name = get_str(b, "outcome")?;
            ev.bop = Some(BopEvent {
                outcome: BopOutcome::from_name(name)
                    .ok_or_else(|| format!("unknown bop outcome {name:?}"))?,
                stall: get_num_or_zero(b, "stall")?,
            });
        }
        if let Some(list) = get(obj, "inserts") {
            let list = list.as_arr().ok_or("inserts must be an array")?;
            for item in list {
                let item = item.as_obj().ok_or("insert must be an object")?;
                let key = get_str(item, "key")?;
                let key = kind_from_name(key).ok_or_else(|| format!("unknown key {key:?}"))?;
                let outcome = match get_str(item, "outcome")? {
                    "updated" => InsertOutcome::Updated,
                    "cap_skipped" => InsertOutcome::CapSkipped,
                    "blocked" => InsertOutcome::Blocked,
                    "inserted" => InsertOutcome::Inserted {
                        evicted: match get(item, "evicted") {
                            Some(v) => {
                                let name = v.as_str().ok_or("evicted must be a string")?;
                                Some(
                                    kind_from_name(name)
                                        .ok_or_else(|| format!("unknown evicted kind {name:?}"))?,
                                )
                            }
                            None => None,
                        },
                        remote_jte_evicted: get_flag(item, "remote_jte_evicted")?,
                    },
                    other => return Err(format!("unknown insert outcome {other:?}")),
                };
                ev.inserts.push(BtbInsertEvent { key, outcome });
            }
        }
        if let Some(f) = get(obj, "flush") {
            let f = f.as_obj().ok_or("flush must be an object")?;
            ev.flush = Some(JteFlushEvent {
                flushes: get_num(f, "flushes")?,
                flushed: get_num(f, "flushed")?,
            });
        }
        if let Some(ft) = get(obj, "fault") {
            let ft = ft.as_obj().ok_or("fault must be an object")?;
            let name = get_str(ft, "kind")?;
            ev.fault = Some(FaultEvent {
                kind: FaultKind::from_name(name)
                    .ok_or_else(|| format!("unknown fault kind {name:?}"))?,
                evicted: get_num_or_zero(ft, "evicted")?,
            });
        }
        if let Some(a) = get(obj, "arch") {
            let a = a.as_obj().ok_or("arch must be an object")?;
            let pair = |rk: &str, vk: &str| -> Result<Option<(u8, u64)>, String> {
                match get_opt_num(a, rk)? {
                    None => Ok(None),
                    Some(r) => {
                        let r = u8::try_from(r)
                            .map_err(|_| format!("field {rk:?} out of register range"))?;
                        Ok(Some((r, get_num(a, vk)?)))
                    }
                }
            };
            ev.arch = Some(ArchInfo {
                wx: pair("wx_r", "wx_v")?,
                wf: pair("wf_r", "wf_v")?,
                ea: get_opt_num(a, "ea")?,
                store: get_opt_num(a, "store")?,
                next_pc: get_num(a, "next_pc")?,
            });
        }
        Ok(ev)
    }
}

fn json_flag(out: &mut String, first: &mut bool, name: &str, v: bool) {
    if v {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push('"');
        out.push_str(name);
        out.push_str("\":true");
    }
}

fn json_num(out: &mut String, first: &mut bool, name: &str, v: u64) {
    use std::fmt::Write as _;
    if v != 0 {
        if !*first {
            out.push(',');
        }
        *first = false;
        let _ = write!(out, "\"{name}\":{v}");
    }
}

fn json_l2(out: &mut String, first: &mut bool, l2: Option<L2Access>) {
    if let Some(l2) = l2 {
        if !*first {
            out.push(',');
        }
        *first = false;
        out.push_str("\"l2\":{");
        let mut inner_first = true;
        json_flag(out, &mut inner_first, "miss", l2.miss);
        json_flag(out, &mut inner_first, "writeback", l2.writeback);
        out.push('}');
    }
}

type Obj = [(String, Value)];

fn get<'a>(obj: &'a Obj, name: &str) -> Option<&'a Value> {
    obj.iter().find(|(k, _)| k == name).map(|(_, v)| v)
}

fn get_opt_num(obj: &Obj, name: &str) -> Result<Option<u64>, String> {
    get(obj, name)
        .map(|v| v.as_u64().ok_or_else(|| format!("field {name:?} must be a number")))
        .transpose()
}

fn get_num(obj: &Obj, name: &str) -> Result<u64, String> {
    get_opt_num(obj, name)?.ok_or_else(|| format!("missing field {name:?}"))
}

fn get_num_or_zero(obj: &Obj, name: &str) -> Result<u64, String> {
    Ok(get_opt_num(obj, name)?.unwrap_or(0))
}

fn get_flag(obj: &Obj, name: &str) -> Result<bool, String> {
    match get(obj, name) {
        None => Ok(false),
        Some(v) => v.as_bool().ok_or_else(|| format!("field {name:?} must be a bool")),
    }
}

fn get_str<'a>(obj: &'a Obj, name: &str) -> Result<&'a str, String> {
    get(obj, name)
        .ok_or_else(|| format!("missing field {name:?}"))?
        .as_str()
        .ok_or_else(|| format!("field {name:?} must be a string"))
}

fn get_l2(obj: &Obj) -> Result<Option<L2Access>, String> {
    match get(obj, "l2") {
        None => Ok(None),
        Some(v) => {
            let o = v.as_obj().ok_or("l2 must be an object")?;
            Ok(Some(L2Access { miss: get_flag(o, "miss")?, writeback: get_flag(o, "writeback")? }))
        }
    }
}

// ---------------------------------------------------------------------
// Replay + invariants
// ---------------------------------------------------------------------

/// Rebuilds a [`SimStats`] from the event stream alone. Feeding it every
/// event of a run must reproduce the machine's own counters exactly —
/// that equivalence is what [`StatInvariants`] asserts and what the
/// JSONL round-trip test checks end to end.
#[derive(Debug, Default)]
pub struct ReplayStats {
    stats: SimStats,
    next_seq: u64,
    last_cycle: u64,
}

impl ReplayStats {
    /// Folds one event into the replayed statistics.
    ///
    /// # Panics
    /// Panics when the stream is out of order or the per-event cycle
    /// delta disagrees with the running cycle count (cycle
    /// monotonicity).
    pub fn observe(&mut self, ev: &TraceEvent) {
        assert_eq!(ev.seq, self.next_seq, "trace events out of order");
        self.next_seq += 1;
        assert!(
            ev.cycle >= self.last_cycle,
            "cycle count regressed at seq {}: {} -> {}",
            ev.seq,
            self.last_cycle,
            ev.cycle
        );
        assert_eq!(
            ev.cycles,
            ev.cycle - self.last_cycle,
            "seq {}: cycle delta disagrees with the running cycle count",
            ev.seq
        );
        self.last_cycle = ev.cycle;

        let s = &mut self.stats;
        s.instructions += 1;
        if ev.dispatch {
            s.dispatch_instructions += 1;
        }
        if ev.class.is_load() {
            s.loads += 1;
        }
        if ev.class.is_store() {
            s.stores += 1;
        }

        s.itlb.accesses += 1;
        s.itlb.misses += ev.fetch.itlb_miss as u64;
        s.icache.accesses += 1;
        s.icache.misses += ev.fetch.icache_miss as u64;
        if let Some(l2) = ev.fetch.l2 {
            s.l2.accesses += 1;
            s.l2.misses += l2.miss as u64;
            s.l2.writebacks += l2.writeback as u64;
        }
        if ev.class.is_load() || ev.class.is_store() {
            let d = ev.data.unwrap_or_default();
            s.dtlb.accesses += 1;
            s.dtlb.misses += d.dtlb_miss as u64;
            s.dcache.accesses += 1;
            s.dcache.misses += d.dcache_miss as u64;
            s.dcache.writebacks += d.writeback as u64;
            if let Some(l2) = d.l2 {
                s.l2.accesses += 1;
                s.l2.misses += l2.miss as u64;
                s.l2.writebacks += l2.writeback as u64;
            }
        }

        if let Some(b) = ev.branch {
            s.record_branch(b.class, b.mispredicted);
        }

        if ev.class == InstClass::Bop {
            let b = ev.bop.expect("bop retirement must carry a bop event");
            s.bop_executed += 1;
            if b.outcome == BopOutcome::Hit {
                s.bop_hits += 1;
            } else {
                s.bop_misses += 1;
            }
            s.bop_stall_cycles += b.stall;
        }
        if ev.class == InstClass::Jru {
            s.jru_executed += 1;
        }

        for ins in ev.inserts.iter() {
            let b = &mut s.btb;
            if ins.key == EntryKind::Jte {
                match ins.outcome {
                    InsertOutcome::Updated => {}
                    InsertOutcome::CapSkipped => b.jte_cap_skips += 1,
                    InsertOutcome::Blocked => {
                        panic!("seq {}: a JTE insert can never be blocked", ev.seq)
                    }
                    InsertOutcome::Inserted { evicted, remote_jte_evicted } => {
                        b.jte_inserts += 1;
                        match evicted {
                            Some(EntryKind::Jte) => b.jte_evictions += 1,
                            Some(_) => b.btb_evicted_by_jte += 1,
                            None => {}
                        }
                        b.jte_evictions += remote_jte_evicted as u64;
                    }
                }
            } else {
                match ins.outcome {
                    InsertOutcome::Blocked => b.btb_blocked_by_jte += 1,
                    InsertOutcome::Inserted { evicted, .. } => {
                        assert_ne!(
                            evicted,
                            Some(EntryKind::Jte),
                            "seq {}: a non-JTE insert can never evict a JTE",
                            ev.seq
                        );
                    }
                    _ => {}
                }
            }
        }
        if let Some(f) = ev.flush {
            s.btb.jte_flushes += f.flushes;
            s.btb.jte_flushed += f.flushed;
        }
        // Injected faults account their JTE losses as evictions, keeping
        // the resident-population identity balanced.
        if let Some(ft) = ev.fault {
            s.btb.jte_evictions += ft.evicted;
        }
    }

    /// The replayed statistics so far (`cycles` set from the last event).
    pub fn stats(&self) -> SimStats {
        let mut s = self.stats.clone();
        s.cycles = self.last_cycle;
        s
    }

    /// Number of events folded in.
    pub fn events(&self) -> u64 {
        self.next_seq
    }
}

/// Describes the first field on which two [`SimStats`] differ, or `None`
/// when they are identical. Used for readable invariant-failure panics.
pub fn diff_stats(live: &SimStats, replay: &SimStats) -> Option<String> {
    live.counters()
        .into_iter()
        .zip(replay.counters())
        .zip(COUNTER_NAMES)
        .find(|((a, b), _)| a != b)
        .map(|((a, b), name)| format!("{name}: live {a} vs replay {b}"))
}

/// Debug-mode cross-counter checker: replays the event stream and
/// asserts, every `every` retirements, that the replay matches the
/// machine's live counters and that the cross-counter identities hold.
#[derive(Debug)]
pub struct StatInvariants {
    every: u64,
    replay: ReplayStats,
}

impl StatInvariants {
    /// Checks at every multiple of `every` retired instructions (and at
    /// exit).
    pub fn new(every: u64) -> Self {
        StatInvariants { every: every.max(1), replay: ReplayStats::default() }
    }

    /// Folds one event into the shadow statistics.
    pub fn observe(&mut self, ev: &TraceEvent) {
        self.replay.observe(ev);
    }

    /// Whether a checkpoint is due after `instructions` retirements.
    pub fn due(&self, instructions: u64) -> bool {
        instructions.is_multiple_of(self.every)
    }

    /// Asserts every invariant against the machine's live state.
    /// `live` must carry the current cycle count and merged BTB stats;
    /// `resident_jtes` is the BTB's (plus any dedicated table's) current
    /// JTE population.
    ///
    /// # Panics
    /// Panics with the first violated identity.
    pub fn check(&self, live: &SimStats, resident_jtes: u64) {
        let replay = self.replay.stats();
        if let Some(d) = diff_stats(live, &replay) {
            panic!("stat invariant violated after {} instructions: {d}", live.instructions);
        }
        assert_eq!(
            live.bop_hits + live.bop_misses,
            live.bop_executed,
            "bop_hits + bop_misses != bop_executed"
        );
        let per_class = live.cond.executed
            + live.direct.executed
            + live.ret.executed
            + live.indirect_dispatch.executed
            + live.indirect_other.executed;
        let per_class_miss = live.total_mispredictions();
        assert!(
            per_class_miss <= per_class,
            "mispredictions ({per_class_miss}) exceed branches ({per_class})"
        );
        let derived = live
            .btb
            .jte_inserts
            .checked_sub(live.btb.jte_evictions + live.btb.jte_flushed)
            .expect("JTE losses cannot exceed inserts");
        assert_eq!(
            resident_jtes, derived,
            "resident JTEs diverged from insert/eviction/flush accounting"
        );
    }
}

/// Owner slot for the machine's optional sink (manual `Debug` because
/// trait objects aren't).
pub(crate) struct SinkSlot(pub(crate) Option<Box<dyn TraceSink>>);

impl std::fmt::Debug for SinkSlot {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SinkSlot(installed: {})", self.0.is_some())
    }
}

// ---------------------------------------------------------------------
// Cycle breakdown (Fig. 7 / Fig. 10 attribution)
// ---------------------------------------------------------------------

/// Streams the event stream into the dispatch-cycle decomposition the
/// paper discusses around Fig. 7/10: where cycles go (issue vs. redirect
/// vs. fetch/data stalls vs. Rop waits), attributed from the *actual
/// charged penalties* of each retirement rather than from PC-range
/// profile heuristics.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CycleBreakdown {
    /// Total cycles observed.
    pub total: u64,
    /// Issue slots and operand interlocks (residual after the explicit
    /// penalty categories below).
    pub issue: u64,
    /// Fetch-side stalls (I-cache/I-TLB misses, L2/DRAM).
    pub fetch_stall: u64,
    /// Data-side stalls (D-cache/D-TLB misses, L2/DRAM).
    pub data_stall: u64,
    /// Front-end redirect penalties (branch/jump mispredicts, `jal`
    /// decode redirects, `bop` bubbles).
    pub redirect: u64,
    /// Cycles stalled waiting for Rop at a `bop`.
    pub bop_stall: u64,
    /// Of `total`, cycles charged at dispatcher-range PCs.
    pub dispatch_total: u64,
    /// Of `redirect`, penalties charged at dispatcher-range PCs.
    pub dispatch_redirect: u64,
    /// Of `fetch_stall`, cycles charged at dispatcher-range PCs.
    pub dispatch_fetch_stall: u64,
    /// Events observed.
    pub events: u64,
}

impl CycleBreakdown {
    /// Folds one event into the decomposition.
    pub fn observe(&mut self, ev: &TraceEvent) {
        self.events += 1;
        self.total += ev.cycles;
        let redirect = ev.redirect.map_or(0, |r| r.penalty);
        let bop_stall = ev.bop.map_or(0, |b| b.stall);
        let data = ev.data.map_or(0, |d| d.penalty);
        let explicit = ev.fetch.penalty + data + redirect + bop_stall;
        self.fetch_stall += ev.fetch.penalty;
        self.data_stall += data;
        self.redirect += redirect;
        self.bop_stall += bop_stall;
        // Penalties are charged within the retirement's cycle delta, so
        // the residual is the issue slot plus operand interlocks.
        self.issue += ev.cycles.saturating_sub(explicit);
        if ev.dispatch {
            self.dispatch_total += ev.cycles;
            self.dispatch_redirect += redirect;
            self.dispatch_fetch_stall += ev.fetch.penalty;
        }
    }
}

impl TraceSink for CycleBreakdown {
    fn event(&mut self, ev: &TraceEvent) {
        self.observe(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        let base = TraceEvent {
            seq: 0,
            pc: 0x1_0000,
            class: InstClass::Alu,
            cycle: 1,
            cycles: 1,
            dispatch: false,
            fetch: FetchAccess::default(),
            data: None,
            branch: None,
            redirect: None,
            bop: None,
            inserts: Inserts::default(),
            flush: None,
            fault: None,
            arch: None,
        };
        let mut load = TraceEvent {
            seq: 1,
            pc: 0x1_0004,
            class: InstClass::Load,
            cycle: 40,
            cycles: 39,
            dispatch: true,
            ..base
        };
        load.fetch = FetchAccess {
            itlb_miss: true,
            icache_miss: true,
            l2: Some(L2Access { miss: true, writeback: false }),
            penalty: 25,
        };
        load.data = Some(DataAccess {
            dtlb_miss: false,
            dcache_miss: true,
            writeback: true,
            l2: Some(L2Access { miss: false, writeback: true }),
            penalty: 8,
        });
        load.arch = Some(ArchInfo {
            wx: Some((10, 0xDEAD_BEEF)),
            wf: None,
            ea: Some(0x2_0008),
            store: None,
            next_pc: 0x1_0008,
        });
        let mut bop = TraceEvent {
            seq: 2,
            pc: 0x1_0008,
            class: InstClass::Bop,
            cycle: 45,
            cycles: 5,
            ..base
        };
        bop.bop = Some(BopEvent { outcome: BopOutcome::Hit, stall: 2 });
        bop.redirect = Some(RedirectEvent { cause: RedirectCause::BopHit, penalty: 1 });
        let mut jru = TraceEvent {
            seq: 3,
            pc: 0x1_000C,
            class: InstClass::Jru,
            cycle: 50,
            cycles: 5,
            ..base
        };
        jru.branch = Some(BranchEvent { class: BranchClass::IndirectDispatch, mispredicted: true });
        jru.redirect = Some(RedirectEvent { cause: RedirectCause::IndirectMispredict, penalty: 3 });
        jru.inserts.push(BtbInsertEvent {
            key: EntryKind::Jte,
            outcome: InsertOutcome::Inserted {
                evicted: Some(EntryKind::Pc),
                remote_jte_evicted: false,
            },
        });
        jru.inserts.push(BtbInsertEvent { key: EntryKind::Pc, outcome: InsertOutcome::Blocked });
        // Zero values must survive the roundtrip (presence is keyed, not
        // value-elided like the flag helpers).
        jru.arch = Some(ArchInfo {
            wx: Some((0, 0)),
            wf: Some((3, 0)),
            ea: None,
            store: Some(0),
            next_pc: 0x1_0040,
        });
        let mut flush = TraceEvent {
            seq: 4,
            pc: 0x1_0010,
            class: InstClass::JteFlush,
            cycle: 51,
            cycles: 1,
            ..base
        };
        flush.flush = Some(JteFlushEvent { flushes: 1, flushed: 4 });
        flush.fault = Some(FaultEvent { kind: FaultKind::JteInvalidate, evicted: 1 });
        vec![base, load, bop, jru, flush]
    }

    #[test]
    fn json_roundtrip_preserves_events() {
        for ev in sample_events() {
            let line = ev.to_json();
            let back = TraceEvent::from_json(&line).unwrap_or_else(|e| panic!("parse {line}: {e}"));
            assert_eq!(back, ev, "roundtrip of {line}");
        }
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(TraceEvent::from_json("not json").is_err());
        assert!(TraceEvent::from_json("{\"seq\":0}").is_err()); // missing fields
        assert!(TraceEvent::from_json(
            "{\"seq\":0,\"pc\":0,\"class\":\"nope\",\"cycle\":0,\"cycles\":0}"
        )
        .is_err());
        assert!(TraceEvent::from_json("{\"seq\":0}{").is_err()); // trailing
    }

    #[test]
    fn deeply_nested_line_is_a_typed_error() {
        let deep = format!("{{\"inserts\":{}{}}}", "[".repeat(1_000_000), "]".repeat(1_000_000));
        let err = TraceEvent::from_json(&deep).expect_err("must not parse");
        assert!(err.contains("nesting deeper"), "typed message: {err}");
    }

    #[test]
    fn replay_aggregates_counters() {
        let mut r = ReplayStats::default();
        for ev in sample_events() {
            r.observe(&ev);
        }
        let s = r.stats();
        assert_eq!(s.instructions, 5);
        assert_eq!(s.cycles, 51);
        assert_eq!(s.loads, 1);
        assert_eq!(s.dispatch_instructions, 1);
        assert_eq!(s.icache.accesses, 5);
        assert_eq!(s.icache.misses, 1);
        assert_eq!(s.itlb.misses, 1);
        assert_eq!(s.dcache.accesses, 1);
        assert_eq!(s.dcache.misses, 1);
        assert_eq!(s.dcache.writebacks, 1);
        assert_eq!(s.l2.accesses, 2);
        assert_eq!(s.l2.misses, 1);
        assert_eq!(s.l2.writebacks, 1);
        assert_eq!(s.bop_executed, 1);
        assert_eq!(s.bop_hits, 1);
        assert_eq!(s.bop_misses, 0);
        assert_eq!(s.bop_stall_cycles, 2);
        assert_eq!(s.jru_executed, 1);
        assert_eq!(s.indirect_dispatch.executed, 1);
        assert_eq!(s.indirect_dispatch.mispredicted, 1);
        assert_eq!(s.btb.jte_inserts, 1);
        assert_eq!(s.btb.btb_evicted_by_jte, 1);
        assert_eq!(s.btb.btb_blocked_by_jte, 1);
        assert_eq!(s.btb.jte_flushes, 1);
        assert_eq!(s.btb.jte_flushed, 4);
        // The injected fault on the last event accounts its JTE loss.
        assert_eq!(s.btb.jte_evictions, 1);
    }

    #[test]
    fn ring_sink_keeps_tail() {
        let mut sink = RingSink::new(3);
        assert!(sink.is_empty());
        for ev in sample_events() {
            sink.event(&ev);
        }
        assert_eq!(sink.len(), 3);
        let seqs: Vec<u64> = sink.events().map(|e| e.seq).collect();
        assert_eq!(seqs, [2, 3, 4]);
        let jsonl = sink.to_jsonl();
        assert_eq!(jsonl.lines().count(), 3);
        let first = TraceEvent::from_json(jsonl.lines().next().unwrap()).unwrap();
        assert_eq!(first.seq, 2);
    }

    #[test]
    #[should_panic(expected = "out of order")]
    fn replay_rejects_reordering() {
        let evs = sample_events();
        let mut r = ReplayStats::default();
        r.observe(&evs[1]);
    }

    #[test]
    fn diff_stats_pinpoints_field() {
        let a = SimStats::default();
        let mut b = SimStats::default();
        assert_eq!(diff_stats(&a, &b), None);
        b.bop_hits = 3;
        let d = diff_stats(&a, &b).expect("differs");
        assert!(d.contains("bop_hits"), "got {d}");
        // Every counter is compared, the TLB writebacks included.
        let mut c = SimStats::default();
        c.dtlb.writebacks = 2;
        assert_eq!(diff_stats(&a, &c).as_deref(), Some("dtlb.writebacks: live 0 vs replay 2"));
    }

    #[test]
    fn breakdown_decomposes_cycles() {
        let mut bd = CycleBreakdown::default();
        for ev in sample_events() {
            bd.observe(&ev);
        }
        assert_eq!(bd.events, 5);
        assert_eq!(bd.total, 51);
        assert_eq!(bd.fetch_stall, 25);
        assert_eq!(bd.data_stall, 8);
        assert_eq!(bd.redirect, 4);
        assert_eq!(bd.bop_stall, 2);
        // Components + residual == total.
        assert_eq!(
            bd.issue + bd.fetch_stall + bd.data_stall + bd.redirect + bd.bop_stall,
            bd.total
        );
        assert_eq!(bd.dispatch_total, 39);
    }

    #[test]
    fn vec_sink_collects() {
        let mut sink = VecSink::default();
        for ev in sample_events() {
            sink.event(&ev);
        }
        assert_eq!(sink.events.len(), 5);
    }

    #[test]
    fn jsonl_sink_writes_parseable_lines() {
        let mut sink = JsonlSink::new(Vec::new());
        for ev in sample_events() {
            sink.event(&ev);
        }
        sink.finish();
        let text = String::from_utf8(sink.w).unwrap();
        let mut r = ReplayStats::default();
        for line in text.lines() {
            r.observe(&TraceEvent::from_json(line).expect("parses"));
        }
        assert_eq!(r.events(), 5);
    }
}
