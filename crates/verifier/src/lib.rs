//! Static verifier for PalVM bytecode PALs.
//!
//! Flicker's premise (paper §1, §7.1) is that a remote party trusts only
//! the measured bytes. For bytecode PALs those bytes fully determine
//! behaviour, so bad programs can be rejected *before* `SKINIT` instead
//! of faulting mid-session — no wasted suspend/measure/teardown, and a
//! smaller effective TCB: the interpreter's runtime guards become a
//! second line of defence rather than the only one.
//!
//! The verifier decodes every instruction, recovers the control-flow
//! graph ([`cfg`](mod@cfg)), and runs an abstract interpretation (unsigned
//! intervals + a secret/public lattice over the 16 registers, plus
//! byte-granular shadow taint over the parameter window, [`domain`]) to
//! prove six properties, each with its own module and [`CheckError`]
//! variant(s):
//!
//! 1. [`decode`] — every slot decodes, no fall-through off the end, all
//!    branch/call targets in range.
//! 2. [`interp`] (memory bounds) — every `ldb/ldw/stb/stw` address
//!    provably stays inside the PAL's parameter window.
//! 3. [`termination`] — every loop back-edge is cut by a provably
//!    decreasing counter (else `MayDiverge`), and call depth is bounded.
//! 4. [`interp`] (hypercall discipline) — hypercall numbers are known,
//!    argument registers are written on every path, and unseal-derived
//!    (secret) data never reaches an output sink without passing a
//!    declared release point (a hash digest).
//! 5. [`stack`] — no `ret` reachable with an empty abstract call stack.
//! 6. [`ct`] (constant time) — no secret-dependent branch, loop bound,
//!    memory address, or hypercall operand; checked against the runtime
//!    shadow-taint oracle by the differential property test (see
//!    [`mod@oracle`]).
//!
//! A [`Verdict`] collects every failed check with its instruction index,
//! register, and reason; [`Verdict::is_ok`] gates SLB construction.

pub mod cfg;
pub mod ct;
pub mod decode;
pub mod domain;
pub mod hcall;
pub mod interp;
pub mod oracle;
pub mod stack;
pub mod termination;

use flicker_palvm::{Program, CALL_STACK_MAX, INSN_LEN};
use flicker_trace::escape_json;

/// Where one check failed and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Instruction index (slot) the finding anchors to.
    pub insn: u32,
    /// The register involved, when one is.
    pub register: Option<u8>,
    /// Human-readable reason.
    pub reason: String,
}

impl Diagnostic {
    pub(crate) fn new(insn: u32, register: Option<u8>, reason: impl Into<String>) -> Diagnostic {
        Diagnostic {
            insn,
            register,
            reason: reason.into(),
        }
    }
}

impl core::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self.register {
            Some(r) => write!(f, "insn {}: r{}: {}", self.insn, r, self.reason),
            None => write!(f, "insn {}: {}", self.insn, self.reason),
        }
    }
}

/// A failed check, tagged by class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckError {
    /// Undecodable bytes, bad control target, or fall-through off the end.
    Decode(Diagnostic),
    /// A load/store address may leave the PAL's parameter window.
    MemoryBounds(Diagnostic),
    /// A loop back-edge with no provably decreasing counter, or unbounded
    /// call depth.
    MayDiverge(Diagnostic),
    /// Unknown hypercall number, unwritten argument register, or tainted
    /// data reaching an output sink without a release point.
    Hypercall(Diagnostic),
    /// A `ret` reachable with an empty abstract call stack.
    StackHygiene(Diagnostic),
    /// A `jz`/`jnz`/`jlt` tests a secret (unseal-derived) register.
    SecretBranch(Diagnostic),
    /// A load/store address derives from a secret register.
    SecretIndex(Diagnostic),
    /// A secret-conditioned branch controls a loop: the iteration count
    /// leaks the secret through timing.
    SecretLoopBound(Diagnostic),
    /// A hypercall operand register holds a secret value (operands are
    /// host-observable; only data behind a release point may leave).
    SecretHcallArg(Diagnostic),
}

impl CheckError {
    /// The check class as a short label (for reports and counters).
    pub fn class(&self) -> &'static str {
        match self {
            CheckError::Decode(_) => "decode",
            CheckError::MemoryBounds(_) => "memory-bounds",
            CheckError::MayDiverge(_) => "termination",
            CheckError::Hypercall(_) => "hypercall",
            CheckError::StackHygiene(_) => "stack-hygiene",
            CheckError::SecretBranch(_) => "ct-branch",
            CheckError::SecretIndex(_) => "ct-index",
            CheckError::SecretLoopBound(_) => "ct-loop-bound",
            CheckError::SecretHcallArg(_) => "ct-hcall-arg",
        }
    }

    /// True for the constant-time pass's findings (the `ct-*` classes).
    pub fn is_ct(&self) -> bool {
        self.class().starts_with("ct-")
    }

    /// The underlying diagnostic.
    pub fn diagnostic(&self) -> &Diagnostic {
        match self {
            CheckError::Decode(d)
            | CheckError::MemoryBounds(d)
            | CheckError::MayDiverge(d)
            | CheckError::Hypercall(d)
            | CheckError::StackHygiene(d)
            | CheckError::SecretBranch(d)
            | CheckError::SecretIndex(d)
            | CheckError::SecretLoopBound(d)
            | CheckError::SecretHcallArg(d) => d,
        }
    }
}

impl core::fmt::Display for CheckError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "[{}] {}", self.class(), self.diagnostic())
    }
}

/// The window and limits the verifier proves accesses against.
///
/// Defaults mirror the Figure-3 layout constants in
/// `flicker_core::slb` (the core asserts the two stay in sync); the
/// verifier crate keeps its own copy so it depends only on `flicker-palvm`.
#[derive(Debug, Clone)]
pub struct VerifierConfig {
    /// Logical address of the input page (`INPUTS_OFFSET`).
    pub inputs_base: u32,
    /// Logical address of the output page (`OUTPUTS_OFFSET`).
    pub outputs_base: u32,
    /// Capacity of the input region before the saved-state stash.
    pub inputs_max: u32,
    /// Usable output bytes (`OUTPUTS_MAX`).
    pub outputs_max: u32,
    /// One past the last PAL-accessible logical address
    /// (`OVERFLOW_OFFSET`: end of the output page).
    pub window_end: u32,
    /// The VM's call-stack depth cap.
    pub call_stack_max: u32,
}

impl Default for VerifierConfig {
    fn default() -> Self {
        VerifierConfig {
            inputs_base: 0x10000,
            outputs_base: 0x11000,
            inputs_max: 0xE00,
            outputs_max: 0x1000 - 4,
            window_end: 0x12000,
            call_stack_max: CALL_STACK_MAX as u32,
        }
    }
}

impl VerifierConfig {
    /// Addresses a PAL may read: both parameter pages.
    pub(crate) fn load_window(&self) -> domain::Interval {
        domain::Interval::new(self.inputs_base, self.window_end - 1)
    }

    /// Addresses a PAL may write: the input page (scratch) plus the usable
    /// output bytes (the driver owns the output page's length header).
    pub(crate) fn store_window(&self) -> domain::Interval {
        domain::Interval::new(self.inputs_base, self.outputs_base + self.outputs_max - 1)
    }

    /// The output-page byte range (the secret-flow sink).
    pub(crate) fn output_range(&self) -> domain::Interval {
        domain::Interval::new(self.outputs_base, self.window_end - 1)
    }
}

/// The verifier's result: program shape plus every failed check.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Instruction count.
    pub insns: usize,
    /// Reachable-loop count (a proxy for CFG complexity in reports).
    pub loops: usize,
    /// Every check failure, in discovery order.
    pub errors: Vec<CheckError>,
}

impl Verdict {
    /// True when every check passed.
    pub fn is_ok(&self) -> bool {
        self.errors.is_empty()
    }

    /// True when the constant-time pass found nothing (the coarser
    /// signal `run_session` records as `verify.ct_accept/ct_reject`).
    pub fn ct_clean(&self) -> bool {
        !self.errors.iter().any(CheckError::is_ct)
    }

    /// A human-readable multi-line report (the `palvm_tool verify` output).
    pub fn report(&self) -> String {
        let mut out = format!(
            "{} instruction(s), {} loop(s): {}\n",
            self.insns,
            self.loops,
            if self.is_ok() { "VERIFIED" } else { "REJECTED" }
        );
        for e in &self.errors {
            out.push_str(&format!("  {e}\n"));
        }
        out
    }

    /// The machine-readable report `palvm_tool verify --json` and
    /// `analyze --json` emit: one stable object per verdict —
    /// `{"insns":N,"loops":N,"verdict":"accepted"|"rejected",`
    /// `"ct_clean":bool,"findings":[{class,insn,register,reason}...]}`.
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"insns\":{},\"loops\":{},\"verdict\":\"{}\",\"ct_clean\":{},\"findings\":[",
            self.insns,
            self.loops,
            if self.is_ok() { "accepted" } else { "rejected" },
            self.ct_clean(),
        );
        for (i, e) in self.errors.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let d = e.diagnostic();
            out.push_str(&format!(
                "{{\"class\":\"{}\",\"insn\":{},\"register\":{},\"reason\":\"",
                e.class(),
                d.insn,
                d.register.map_or("null".to_string(), |r| r.to_string()),
            ));
            escape_json(&d.reason, &mut out);
            out.push_str("\"}");
        }
        out.push_str("]}");
        out
    }
}

/// Verifies raw encoded bytecode against the default window.
pub fn verify(code: &[u8]) -> Verdict {
    verify_with(code, &VerifierConfig::default())
}

/// Verifies an assembled [`Program`] against the default window.
pub fn verify_program(program: &Program) -> Verdict {
    verify(&program.code)
}

/// Verifies raw encoded bytecode against an explicit window/config.
pub fn verify_with(code: &[u8], config: &VerifierConfig) -> Verdict {
    let mut errors = decode::check(code);
    if !errors.is_empty() {
        return Verdict {
            insns: code.len() / INSN_LEN,
            loops: 0,
            errors,
        };
    }
    let cfg = cfg::Cfg::build(code).expect("decode check passed");
    let analysis = interp::analyze(&cfg, config);
    errors.extend(stack::check(&cfg));
    errors.extend(termination::check(&cfg, config, &analysis));
    errors.extend(interp::report(&cfg, config, &analysis));
    errors.extend(ct::check(&cfg, &analysis));
    Verdict {
        insns: cfg.insns.len(),
        loops: cfg.loops.len(),
        errors,
    }
}
