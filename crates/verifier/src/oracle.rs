//! The differential taint oracle: runs generated programs under the
//! runtime shadow-taint monitor and checks the verifier's constant-time
//! verdict against what actually happens.
//!
//! The property this module exists to test (and that
//! `tests/differential.rs` asserts over thousands of programs):
//! **verifier acceptance implies no runtime taint fault** — the static
//! shadow set is a superset of the runtime one, so a program the `ct`
//! pass clears can never trip `VmFault::TaintFault` under
//! [`flicker_palvm::shadow::ShadowTaint`]. A divergence is a verifier
//! soundness bug; every one is captured as a [`Divergence`] record and
//! can be dumped as JSONL for offline triage (the flight recorder
//! `palvm_tool analyze --differential` and the proptest harness share).
//!
//! The generator is deterministic (xorshift64 over a caller seed): the
//! same seed reproduces the same program byte-for-byte, which is what
//! makes a dumped divergence a *repro*, not just an anecdote.

use crate::{verify, Verdict, VerifierConfig};
use flicker_palvm::shadow::ShadowTaint;
use flicker_palvm::{run_with_hook, Insn, Opcode, VmBus, VmFault, INSN_LEN, NUM_REGS};

/// Fuel for oracle runs (matches the soundness harness).
const FUEL: u64 = 100_000;

/// A window-enforcing bus mirroring the SLB Core's `VmBusAdapter`:
/// loads anywhere in the parameter window, stores up to the usable
/// output bytes, hypercalls 0–6 with honest memory effects. Registers
/// the verifier models as unknown (`r0` after `hcall 3`/`hcall 6`) are
/// driven from an adversarial xorshift stream.
pub struct OracleBus {
    cfg: VerifierConfig,
    ram: Vec<u8>,
    stream: u64,
    /// Bytes emitted through hypercalls 0/1/5.
    pub output: Vec<u8>,
}

impl OracleBus {
    /// A bus over the default window with `inputs` at the input base.
    pub fn new(inputs: &[u8], seed: u64) -> OracleBus {
        let cfg = VerifierConfig::default();
        let mut ram = vec![0u8; (cfg.window_end - cfg.inputs_base) as usize];
        ram[..inputs.len()].copy_from_slice(inputs);
        OracleBus {
            cfg,
            ram,
            stream: seed | 1,
            output: Vec::new(),
        }
    }

    fn next(&mut self) -> u32 {
        self.stream ^= self.stream << 13;
        self.stream ^= self.stream >> 7;
        self.stream ^= self.stream << 17;
        self.stream as u32
    }

    fn load_index(&self, addr: u32) -> Result<usize, String> {
        if addr < self.cfg.inputs_base || addr >= self.cfg.window_end {
            return Err(format!("load outside window ({addr:#x})"));
        }
        Ok((addr - self.cfg.inputs_base) as usize)
    }

    fn store_index(&self, addr: u32) -> Result<usize, String> {
        let store_end = self.cfg.outputs_base + self.cfg.outputs_max;
        if addr < self.cfg.inputs_base || addr >= store_end {
            return Err(format!("store outside window ({addr:#x})"));
        }
        Ok((addr - self.cfg.inputs_base) as usize)
    }

    fn read_span(&mut self, addr: u32, len: u32) -> Result<Vec<u8>, String> {
        let end = addr
            .checked_add(len)
            .ok_or_else(|| "span wraps the address space".to_string())?;
        let mut out = Vec::with_capacity(len as usize);
        for a in addr..end {
            out.push(self.ram[self.load_index(a)?]);
        }
        Ok(out)
    }

    fn write_span(&mut self, addr: u32, bytes: &[u8]) -> Result<(), String> {
        for (i, b) in bytes.iter().enumerate() {
            let idx = self.store_index(addr.wrapping_add(i as u32))?;
            self.ram[idx] = *b;
        }
        Ok(())
    }
}

impl VmBus for OracleBus {
    fn load_u8(&mut self, addr: u32) -> Result<u8, String> {
        let idx = self.load_index(addr)?;
        Ok(self.ram[idx])
    }

    fn store_u8(&mut self, addr: u32, v: u8) -> Result<(), String> {
        let idx = self.store_index(addr)?;
        self.ram[idx] = v;
        Ok(())
    }

    fn hcall(&mut self, num: u32, regs: &mut [u32; NUM_REGS]) -> Result<(), String> {
        match num {
            0 | 1 => {
                self.output.push(regs[0] as u8);
                Ok(())
            }
            2 => {
                let data = self.read_span(regs[1], regs[2])?;
                let digest = flicker_crypto::sha1::sha1(&data);
                self.write_span(regs[3], &digest)
            }
            3 => {
                regs[0] = self.next();
                Ok(())
            }
            4 => self.read_span(regs[1], 20).map(|_| ()),
            5 => {
                if regs[2] > self.cfg.outputs_max {
                    return Err("output larger than the output page".to_string());
                }
                let data = self.read_span(regs[1], regs[2])?;
                self.output.extend_from_slice(&data);
                Ok(())
            }
            6 => {
                // "Unseal" by exposing the blob bytes as plaintext —
                // exactly the span the shadow monitor marks secret. The
                // reported length register is host-chosen (adversarial).
                let blob = self.read_span(regs[1], regs[2])?;
                self.write_span(regs[3], &blob)?;
                regs[0] = self.next();
                Ok(())
            }
            _ => Err(format!("unknown hypercall {num}")),
        }
    }
}

/// A tiny deterministic RNG so sweeps are reproducible from one seed.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn insn(op: Opcode, rd: u8, rs1: u8, rs2: u8, imm: u32) -> Insn {
    Insn {
        op,
        rd,
        rs1,
        rs2,
        imm,
    }
}

/// Appends one program fragment chosen by `kind`. Kinds 0–6 are the
/// benign envelope (arithmetic, window-respecting memory, counted loops,
/// clean hypercalls, call/ret); kinds 7–12 are *secret-flavoured*:
/// unseal, loads from the unseal landing zone, hash release, branches
/// and stores on maybe-secret registers, and register output — the mix
/// that makes the ct verdict non-trivial in both directions.
pub fn push_fragment(code: &mut Vec<Insn>, kind: u8, a: u8, b: u8, c: u8, imm: u32) {
    use Opcode::*;
    match kind % 13 {
        0 => {
            const OPS: [Opcode; 12] =
                [Add, Sub, Mul, Divu, Modu, And, Or, Xor, Shl, Shr, Mov, Addi];
            let op = OPS[(b % 12) as usize];
            let (rd, rs1, rs2) = (a % 12, c % 12, (a ^ c) % 12);
            match op {
                Mov => code.push(insn(Mov, rd, rs1, 0, 0)),
                Addi => code.push(insn(Addi, rd, rs1, 0, imm % 4096)),
                _ => code.push(insn(op, rd, rs1, rs2, 0)),
            }
        }
        1 => code.push(insn(Movi, a % 12, 0, 0, imm)),
        2 => {
            let op = if b.is_multiple_of(2) { Ldb } else { Ldw };
            code.push(insn(op, a % 12, 14, 0, imm % (0xE00 - 4)));
        }
        3 => {
            let (op, base, bound) = if b.is_multiple_of(2) {
                (Stw, 14u8, 0xE00 - 4)
            } else {
                (Stb, 13u8, 0x1000 - 8)
            };
            code.push(insn(op, 0, base, c % 12, imm % bound));
        }
        4 => {
            let counter = a % 6;
            let step = 6 + b % 3;
            let here = code.len() as u32;
            code.push(insn(Movi, counter, 0, 0, 1 + imm % 24));
            code.push(insn(Add, 9, 10, 11, 0));
            code.push(insn(Movi, step, 0, 0, 1));
            code.push(insn(Sub, counter, counter, step, 0));
            code.push(insn(Jnz, 0, counter, 0, here + 1));
        }
        5 => match c % 4 {
            0 => {
                code.push(insn(Movi, 0, 0, 0, imm));
                code.push(insn(Hcall, 0, 0, 0, (b % 2) as u32));
            }
            1 => {
                code.push(insn(Hcall, 0, 0, 0, 3));
                code.push(insn(And, a % 12, 0, 0, 0));
            }
            2 => {
                code.push(insn(Mov, 1, 14, 0, 0));
                code.push(insn(Movi, 2, 0, 0, 1 + imm % 64));
                code.push(insn(Addi, 3, 14, 0, 0x200));
                code.push(insn(Hcall, 0, 0, 0, 2));
            }
            _ => {
                code.push(insn(Mov, 1, 14, 0, 0));
                code.push(insn(Hcall, 0, 0, 0, 4));
            }
        },
        6 => {
            let here = code.len() as u32;
            code.push(insn(Call, 0, 0, 0, here + 2));
            code.push(insn(Jmp, 0, 0, 0, here + 4));
            code.push(insn(Add, 9, 10, 11, 0));
            code.push(insn(Ret, 0, 0, 0, 0));
        }
        // Unseal a prefix of the inputs into the landing zone at
        // r14+0x800: the taint source. At least 32 bytes, so the loads
        // of kind 8 always land inside the secret span.
        7 => {
            code.push(insn(Mov, 1, 14, 0, 0));
            code.push(insn(Movi, 2, 0, 0, 32 + imm % 64));
            code.push(insn(Addi, 3, 14, 0, 0x800));
            code.push(insn(Hcall, 0, 0, 0, 6));
        }
        // Load from the landing zone into r5 (the register the
        // secret-consuming fragments favour): secret iff an unseal ran
        // earlier.
        8 => {
            code.push(insn(Addi, 10, 14, 0, 0x800 + imm % 32));
            code.push(insn(Ldb, 5, 10, 0, 0));
        }
        // Hash-release the landing zone into scratch: declassifies the
        // digest bytes wherever they land.
        9 => {
            code.push(insn(Addi, 1, 14, 0, 0x800));
            code.push(insn(Movi, 2, 0, 0, 1 + imm % 64));
            code.push(insn(Addi, 3, 14, 0, 0x400 + 32 * ((b % 4) as u32)));
            code.push(insn(Hcall, 0, 0, 0, 2));
        }
        // Branch on r5 (often the landing-zone byte) or an arbitrary
        // low register: a ct violation exactly when it is secret here.
        10 => {
            let here = code.len() as u32;
            let r = if b.is_multiple_of(2) { 5 } else { c % 12 };
            code.push(insn(Jz, 0, r, 0, here + 2));
            code.push(insn(Add, 9, 10, 11, 0));
        }
        // Store a low register into scratch: propagates whatever taint
        // it carries into memory.
        11 => {
            let r = if b.is_multiple_of(2) { 5 } else { c % 12 };
            code.push(insn(Stb, 0, 14, r, 0x600 + imm % 0x100));
        }
        // Emit r5 or an arbitrary register: a flow violation when
        // secret.
        _ => {
            let r = if b.is_multiple_of(2) { 5 } else { c % 12 };
            code.push(insn(Mov, 0, r, 0, 0));
            code.push(insn(Hcall, 0, 0, 0, (b % 2) as u32));
        }
    }
}

/// Generates one complete, halt-terminated program from a seed. Kind
/// selection over-weights the secret-flavoured fragments (unseal,
/// secret load, secret branch) so the ct verdict is exercised in both
/// directions rather than being a rare accident.
pub fn generate_program(seed: u64) -> Vec<u8> {
    let mut rng = XorShift(seed | 1);
    let n_frags = 2 + rng.below(9) as usize;
    let mut insns = Vec::new();
    for _ in 0..n_frags {
        let kind = match rng.below(16) as u8 {
            13 => 7,  // extra weight: unseal
            14 => 8,  // extra weight: load from the landing zone
            15 => 10, // extra weight: branch
            k => k,
        };
        let (a, b, c) = (rng.next() as u8, rng.next() as u8, rng.next() as u8);
        let imm = rng.next() as u32;
        push_fragment(&mut insns, kind, a, b, c, imm);
    }
    insns.push(insn(Opcode::Halt, 0, 0, 0, 0));
    let mut code = Vec::with_capacity(insns.len() * INSN_LEN);
    for i in &insns {
        code.extend_from_slice(&i.encode());
    }
    code
}

/// Runs `code` under the shadow-taint monitor on an [`OracleBus`], with
/// the SLB Core's start-up conventions (r14/r13/r12).
pub fn run_shadowed(code: &[u8], seed: u64) -> Result<flicker_palvm::VmExit, VmFault> {
    let cfg = VerifierConfig::default();
    let inputs: Vec<u8> = (0..cfg.inputs_max)
        .map(|i| (i as u8).wrapping_mul(37))
        .collect();
    let mut bus = OracleBus::new(&inputs, seed);
    let mut regs = [0u32; NUM_REGS];
    regs[14] = cfg.inputs_base;
    regs[13] = cfg.outputs_base;
    regs[12] = inputs.len() as u32;
    let mut hook = ShadowTaint::new(cfg.inputs_base, cfg.window_end - cfg.inputs_base);
    run_with_hook(code, &mut bus, FUEL, regs, &mut hook)
}

/// Faults an accepted program may legitimately raise (availability, not
/// safety): the environment absorbs these.
pub fn allowed_fault(fault: &VmFault) -> bool {
    matches!(
        fault,
        VmFault::OutOfFuel
            | VmFault::DivideByZero(_)
            | VmFault::HcallFault { .. }
            | VmFault::CallStackOverflow(_)
    )
}

/// One verifier-vs-runtime disagreement: the flight-recorder record.
#[derive(Debug, Clone)]
pub struct Divergence {
    /// Seed that reproduces the program and the bus stream.
    pub seed: u64,
    /// The program bytes, hex-encoded.
    pub code_hex: String,
    /// The fault the accepted program raised.
    pub fault: String,
    /// The static verdict, as its JSON report.
    pub verdict_json: String,
}

impl Divergence {
    /// One JSONL line for the flight recorder.
    pub fn to_json_line(&self) -> String {
        let mut line = format!(
            "{{\"seed\":{},\"code\":\"{}\",\"fault\":\"",
            self.seed, self.code_hex
        );
        flicker_trace::escape_json(&self.fault, &mut line);
        line.push_str(&format!("\",\"verdict\":{}}}", self.verdict_json));
        line
    }
}

/// Writes divergences as JSONL (one record per line) to `path`.
pub fn dump_divergences(divergences: &[Divergence], path: &std::path::Path) -> std::io::Result<()> {
    use std::io::Write as _;
    let mut f = std::fs::File::create(path)?;
    for d in divergences {
        writeln!(f, "{}", d.to_json_line())?;
    }
    Ok(())
}

fn hex(code: &[u8]) -> String {
    code.iter().map(|b| format!("{b:02x}")).collect()
}

/// How one generated program fared.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Accepted and ran without a disallowed fault.
    AcceptedClean,
    /// Rejected, with at least one `ct-*` finding.
    RejectedCt,
    /// Rejected on other checks only.
    RejectedOther,
    /// Accepted but faulted at runtime: a soundness divergence.
    Diverged,
}

/// Verifies one program and, if accepted, runs it under the monitor.
/// Returns the outcome and the divergence record if there is one.
pub fn check_program(code: &[u8], seed: u64) -> (Outcome, Verdict, Option<Divergence>) {
    let verdict = verify(code);
    if !verdict.is_ok() {
        let outcome = if verdict.ct_clean() {
            Outcome::RejectedOther
        } else {
            Outcome::RejectedCt
        };
        return (outcome, verdict, None);
    }
    match run_shadowed(code, seed) {
        Ok(_) => (Outcome::AcceptedClean, verdict, None),
        Err(f) if allowed_fault(&f) => (Outcome::AcceptedClean, verdict, None),
        Err(f) => {
            let d = Divergence {
                seed,
                code_hex: hex(code),
                fault: f.to_string(),
                verdict_json: verdict.to_json(),
            };
            (Outcome::Diverged, verdict, Some(d))
        }
    }
}

/// Aggregate result of a deterministic sweep.
#[derive(Debug, Default)]
pub struct SweepStats {
    /// Programs generated.
    pub total: usize,
    /// Accepted and taint-clean at runtime.
    pub accepted: usize,
    /// Rejected with a `ct-*` finding.
    pub ct_rejected: usize,
    /// Rejected on non-ct checks only.
    pub rejected_other: usize,
    /// Soundness divergences (must be empty).
    pub divergences: Vec<Divergence>,
}

impl SweepStats {
    /// Machine-readable summary (the `analyze --differential` output).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"total\":{},\"accepted\":{},\"ct_rejected\":{},\"rejected_other\":{},\"divergences\":[",
            self.total, self.accepted, self.ct_rejected, self.rejected_other,
        );
        for (i, d) in self.divergences.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&d.to_json_line());
        }
        out.push_str("]}");
        out
    }
}

/// Generates and checks `count` programs from `seed`. Deterministic:
/// the same `(count, seed)` always examines the same programs.
pub fn differential_sweep(count: usize, seed: u64) -> SweepStats {
    let mut stats = SweepStats::default();
    for i in 0..count {
        let program_seed = seed
            .wrapping_add(i as u64)
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            | 1;
        let code = generate_program(program_seed);
        let (outcome, _, divergence) = check_program(&code, program_seed);
        stats.total += 1;
        match outcome {
            Outcome::AcceptedClean => stats.accepted += 1,
            Outcome::RejectedCt => stats.ct_rejected += 1,
            Outcome::RejectedOther => stats.rejected_other += 1,
            Outcome::Diverged => stats.divergences.extend(divergence),
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hcall::SPECS;

    /// The runtime monitor's hypercall-operand table must match the
    /// verifier's spec table register-for-register, or the two halves of
    /// the ct discipline would silently drift apart.
    #[test]
    fn shadow_hcall_args_match_verifier_specs() {
        for spec in SPECS {
            assert_eq!(
                flicker_palvm::shadow::hcall_args(spec.num),
                spec.args,
                "hcall {} operand tables diverge",
                spec.num
            );
        }
        assert!(flicker_palvm::shadow::hcall_args(99).is_empty());
    }

    #[test]
    fn generator_is_deterministic() {
        assert_eq!(generate_program(42), generate_program(42));
        // (`seed | 1` means 42/43 share a stream; 44 does not.)
        assert_ne!(generate_program(42), generate_program(44));
    }

    #[test]
    fn divergence_record_round_trips_as_json_line() {
        let d = Divergence {
            seed: 7,
            code_hex: "00".into(),
            fault: "taint fault at insn 3: \"quoted\"".into(),
            verdict_json: "{\"x\":1}".into(),
        };
        let line = d.to_json_line();
        assert!(line.contains("\\\"quoted\\\""));
        assert!(line.starts_with("{\"seed\":7,"));
    }
}
