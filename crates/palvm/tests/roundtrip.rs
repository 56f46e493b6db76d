//! Property tests for the encode/decode and asm/disasm round trips.

use flicker_palvm::{assemble, disassemble, Insn, Opcode, INSN_LEN, KNOWN_HCALLS};
use proptest::prelude::*;

/// Builds a well-formed *canonical* instruction from raw generator
/// fields: opcode in range, registers masked, branch targets kept inside
/// the program (the assembler rejects out-of-range targets, so the
/// in-range programs are exactly the round-trippable set), hypercall
/// numbers drawn from the known set, and fields the opcode does not use
/// zeroed — assembler output is canonical, so only canonical encodings
/// can round-trip byte-identically through text.
fn make_insn(raw: (u8, u8, u8, u8, u32), pc_count: u32) -> Insn {
    let (op, rd, rs1, rs2, imm) = raw;
    let op = Opcode::from_u8(op % 25).expect("opcode in range");
    let (rd, rs1, rs2, imm) = (rd % 16, rs1 % 16, rs2 % 16, imm);
    use Opcode::*;
    match op {
        Halt | Ret => Insn {
            op,
            rd: 0,
            rs1: 0,
            rs2: 0,
            imm: 0,
        },
        Movi => Insn {
            op,
            rd,
            rs1: 0,
            rs2: 0,
            imm,
        },
        Mov => Insn {
            op,
            rd,
            rs1,
            rs2: 0,
            imm: 0,
        },
        Add | Sub | Mul | Divu | Modu | And | Or | Xor | Shl | Shr => Insn {
            op,
            rd,
            rs1,
            rs2,
            imm: 0,
        },
        Addi | Ldb | Ldw => Insn {
            op,
            rd,
            rs1,
            rs2: 0,
            imm,
        },
        Stb | Stw => Insn {
            op,
            rd: 0,
            rs1,
            rs2,
            imm,
        },
        Jmp | Call => Insn {
            op,
            rd: 0,
            rs1: 0,
            rs2: 0,
            imm: imm % pc_count,
        },
        Jz | Jnz => Insn {
            op,
            rd: 0,
            rs1,
            rs2: 0,
            imm: imm % pc_count,
        },
        Jlt => Insn {
            op,
            rd: 0,
            rs1,
            rs2,
            imm: imm % pc_count,
        },
        Hcall => Insn {
            op,
            rd: 0,
            rs1: 0,
            rs2: 0,
            imm: KNOWN_HCALLS.start() + imm % (KNOWN_HCALLS.end() - KNOWN_HCALLS.start() + 1),
        },
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(500))]

    #[test]
    fn encode_decode_round_trips(raw in (0u8..25, any::<u8>(), any::<u8>(), any::<u8>(), any::<u32>())) {
        let insn = make_insn(raw, 1);
        let bytes = insn.encode();
        prop_assert_eq!(Insn::decode(&bytes), Some(insn));
    }

    #[test]
    fn asm_disasm_round_trips(
        raws in proptest::collection::vec(
            (0u8..25, any::<u8>(), any::<u8>(), any::<u8>(), any::<u32>()),
            1..24,
        ),
    ) {
        let n = raws.len() as u32;
        let code: Vec<u8> = raws
            .iter()
            .flat_map(|&raw| make_insn(raw, n).encode())
            .collect();
        let text = disassemble(&code).expect("valid encodings disassemble");
        let back = assemble(&text).expect("disassembly reassembles");
        prop_assert_eq!(&code, &back.code, "asm text:\n{}", text);
        // And the text itself is a fixpoint: disassembling the
        // reassembled bytes reproduces it.
        prop_assert_eq!(disassemble(&back.code).unwrap(), text);
    }

    #[test]
    fn decode_rejects_corrupt_encodings(raw in any::<[u8; 8]>()) {
        match Insn::decode(&raw) {
            Some(insn) => {
                // Anything that decodes must re-encode to the same bytes.
                prop_assert_eq!(insn.encode(), raw);
            }
            None => {
                // Rejection must be for a stated structural reason.
                let bad_op = raw[0] > 24;
                let bad_reg = raw[1] >= 16 || raw[2] >= 16 || raw[3] >= 16;
                prop_assert!(bad_op || bad_reg, "decode rejected {:?} without cause", raw);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Profiling is a pure function of (program, initial registers):
    /// two runs of the same inputs produce byte-identical profile
    /// reports, so the `vm.*` counters they feed into a committed perf
    /// report are reproducible. Faulting programs (out of fuel, memory
    /// faults, divide by zero) must be deterministic too: the profiler is
    /// borrowed, not consumed, and its partial counts are part of the
    /// contract.
    #[test]
    fn profiling_same_program_is_byte_identical(
        raws in proptest::collection::vec(
            (0u8..25, any::<u8>(), any::<u8>(), any::<u8>(), any::<u32>()),
            1..24,
        ),
        r0 in any::<u32>(),
        r1 in any::<u32>(),
    ) {
        let n = raws.len() as u32;
        let code: Vec<u8> = raws
            .iter()
            .flat_map(|&raw| make_insn(raw, n).encode())
            .collect();
        let mut init = [0u32; flicker_palvm::NUM_REGS];
        (init[0], init[1]) = (r0, r1);
        const FUEL: u64 = 10_000;

        let run = || {
            let mut bus = flicker_palvm::TestBus::new(256);
            let mut profiler = flicker_palvm::InsnProfiler::new();
            let result =
                flicker_palvm::run_with_hook(&code, &mut bus, FUEL, init, &mut profiler);
            (result, profiler.finish(), profiler.counter_pairs())
        };
        let (res_a, prof_a, pairs_a) = run();
        let (res_b, prof_b, pairs_b) = run();

        prop_assert_eq!(&res_a, &res_b);
        prop_assert_eq!(&prof_a, &prof_b);
        prop_assert_eq!(&pairs_a, &pairs_b);
        prop_assert_eq!(prof_a.to_json(), prof_b.to_json());
        prop_assert_eq!(prof_a.folded("pal"), prof_b.folded("pal"));
    }

    /// The three count views agree: per-opcode trace counters, the
    /// profile's opcode table, and the retired-instruction total are the
    /// same numbers sliced differently.
    #[test]
    fn profile_count_views_reconcile(
        raws in proptest::collection::vec(
            (0u8..25, any::<u8>(), any::<u8>(), any::<u8>(), any::<u32>()),
            1..24,
        ),
    ) {
        let n = raws.len() as u32;
        let code: Vec<u8> = raws
            .iter()
            .flat_map(|&raw| make_insn(raw, n).encode())
            .collect();
        let mut bus = flicker_palvm::TestBus::new(256);
        let mut profiler = flicker_palvm::InsnProfiler::new();
        let _ = flicker_palvm::run_with_hook(
            &code,
            &mut bus,
            10_000,
            [0u32; flicker_palvm::NUM_REGS],
            &mut profiler,
        );
        let profile = profiler.finish();
        let counter_total: u64 = profiler.counter_pairs().iter().map(|&(_, c)| c).sum();
        let opcode_total: u64 = profile.opcodes.iter().map(|&(_, c)| c).sum();
        prop_assert_eq!(counter_total, profile.executed);
        prop_assert_eq!(opcode_total, profile.executed);
        let pc_total: u64 = profile.hot_pcs.iter().map(|&(_, c)| c).sum();
        prop_assert_eq!(pc_total, profile.executed);
    }
}

#[test]
fn opcode_from_u8_is_exact() {
    // The opcode space is exactly 0..=24; every other byte is rejected.
    for b in 0u8..=24 {
        let op = Opcode::from_u8(b).unwrap_or_else(|| panic!("opcode {b} must decode"));
        assert_eq!(op as u8, b);
    }
    for b in 25u8..=255 {
        assert!(Opcode::from_u8(b).is_none(), "byte {b} must not decode");
    }
}

#[test]
fn program_length_is_insn_count() {
    let p = assemble("movi r0, 1\nhalt").unwrap();
    assert_eq!(p.code.len(), 2 * INSN_LEN);
    assert_eq!(p.len(), 2);
}
