//! Property-based tests for Flicker core: SLB builder invariants, the
//! measurement chain, a long-lived verifier against fresh ones, and a fuzz
//! harness proving that *arbitrary* bytecode PALs stay contained by the
//! OS-Protection module.

use flicker_core::{
    expected_pcr17_final, io_measurement, launch_pcr17, run_session, ExpectedSession, PalPayload,
    SessionParams, SlbImage, SlbOptions, Verifier, DEFAULT_SLB_BASE, REGION_LEN,
};
use flicker_crypto::rng::XorShiftRng;
use flicker_crypto::rsa::RsaPublicKey;
use flicker_os::{Os, OsConfig};
use flicker_palvm::{Insn, Opcode, Program, INSN_LEN};
use flicker_tpm::{AikCertificate, PcrSelection, PrivacyCa, TpmQuote};
use proptest::prelude::*;
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::Arc;

struct Nop;
impl flicker_core::NativePal for Nop {
    fn run(&self, _: &mut flicker_core::PalContext<'_>) -> flicker_core::FlickerResult<()> {
        Ok(())
    }
}

fn native(identity: Vec<u8>) -> PalPayload {
    PalPayload::Native {
        identity,
        program: Arc::new(Nop),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The SLB builder's header is always consistent with the image, and
    /// the measurement is deterministic and base-sensitive.
    #[test]
    fn slb_builder_invariants(
        identity in proptest::collection::vec(any::<u8>(), 1..2048),
        base_a in (1u64..256).prop_map(|p| p * 4096),
        base_b in (1u64..256).prop_map(|p| p * 4096),
    ) {
        let slb = SlbImage::build(native(identity.clone()), SlbOptions::default()).unwrap();
        let len = u16::from_le_bytes(slb.bytes()[0..2].try_into().unwrap()) as usize;
        prop_assert_eq!(len, slb.len());
        let entry = u16::from_le_bytes(slb.bytes()[2..4].try_into().unwrap()) as usize;
        prop_assert!(entry < len);
        prop_assert_eq!(&slb.bytes()[slb.pal_offset()..], &identity[..]);

        prop_assert_eq!(slb.measurement(base_a), slb.measurement(base_a));
        if base_a != base_b {
            prop_assert_ne!(slb.measurement(base_a), slb.measurement(base_b));
        }
    }

    /// `io_measurement` separates every (inputs, outputs) framing.
    #[test]
    fn io_measurement_framing(
        a in proptest::collection::vec(any::<u8>(), 0..64),
        b in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let joined = io_measurement(&a, &b);
        // Moving one byte across the boundary changes the measurement.
        if !a.is_empty() {
            let mut a2 = a.clone();
            let mut b2 = b.clone();
            b2.insert(0, a2.pop().unwrap());
            prop_assert_ne!(io_measurement(&a2, &b2), joined);
        }
    }

    /// The expected-PCR17 chain is injective over each component (sampled).
    #[test]
    fn chain_component_sensitivity(
        id_a in proptest::collection::vec(any::<u8>(), 1..64),
        id_b in proptest::collection::vec(any::<u8>(), 1..64),
        nonce in any::<[u8; 20]>(),
    ) {
        prop_assume!(id_a != id_b);
        let slb_a = SlbImage::build(native(id_a), SlbOptions::default()).unwrap();
        let slb_b = SlbImage::build(native(id_b), SlbOptions::default()).unwrap();
        let mk = |slb: &SlbImage| {
            expected_pcr17_final(&ExpectedSession {
                slb,
                slb_base: DEFAULT_SLB_BASE,
                inputs: b"i",
                outputs: b"o",
                nonce,
                used_hashing_stub: false,
            })
        };
        prop_assert_ne!(mk(&slb_a), mk(&slb_b));
    }
}

// ---------------------------------------------------------------------------
// Verifier memos: a long-lived verifier judges every claim as a fresh one.
// ---------------------------------------------------------------------------

/// Echoes its inputs.
struct Echo;
impl flicker_core::NativePal for Echo {
    fn run(&self, ctx: &mut flicker_core::PalContext<'_>) -> flicker_core::FlickerResult<()> {
        let data = ctx.inputs().to_vec();
        ctx.write_output(&data)
    }
}

/// One quoted session, as its challenger reports it.
struct Claim {
    slb: SlbImage,
    params: SessionParams,
    outputs: Vec<u8>,
    pal_extends: Vec<[u8; 20]>,
    quote: TpmQuote,
}

/// Quoted sessions of one platform and the certificates a verifier may be
/// shown for its AIK.
struct Attested {
    ca_public: RsaPublicKey,
    claims: Vec<Claim>,
    /// The genuine certificate, the same AIK validly certified under
    /// another label, and three forgeries: that label over the genuine
    /// signature, one signature byte flipped, and another CA's signature.
    certs: [AikCertificate; 5],
}

/// Runs and quotes each SLB variant the verifier memos must keep apart:
/// native identities one byte apart, two load bases, both launch paths,
/// the bytecode detector, and a large PAL with an overflow region. Five
/// of them are stub-launched, one more than a verifier keeps.
fn attested() -> Attested {
    let mut rng = XorShiftRng::new(2_024);
    let mut ca = PrivacyCa::new(512, &mut rng);
    let mut os = Os::boot(OsConfig::fast_for_tests(77));
    os.provision_attestation(&mut ca, "host").unwrap();
    let genuine = os.aik_certificate().unwrap().clone();

    let echo = |identity: &[u8]| {
        SlbImage::build(
            PalPayload::Native {
                identity: identity.to_vec(),
                program: Arc::new(Echo),
            },
            SlbOptions::default(),
        )
        .unwrap()
    };
    let detector = || {
        SlbImage::build(
            PalPayload::Bytecode(flicker_palvm::progs::kernel_hasher()),
            SlbOptions {
                os_protection: false,
                ..Default::default()
            },
        )
        .unwrap()
    };
    let variants = [
        (echo(b"memo-pal-0"), DEFAULT_SLB_BASE, true),
        (echo(b"memo-pal-1"), DEFAULT_SLB_BASE, true),
        (echo(b"memo-pal-0"), 0x30_0000, true),
        (echo(b"memo-pal-0"), DEFAULT_SLB_BASE, false),
        (detector(), DEFAULT_SLB_BASE, true),
        (detector(), DEFAULT_SLB_BASE, false),
        (echo(&[0xC3; 100 * 1024]), DEFAULT_SLB_BASE, true),
    ];
    let (kbase, klen) = os.kernel_region();
    let claims = variants
        .into_iter()
        .enumerate()
        .map(|(i, (slb, slb_base, use_hashing_stub))| {
            // The detector hashes the kernel and extends the digest.
            let detector = matches!(slb.payload(), PalPayload::Bytecode(_));
            let params = SessionParams {
                inputs: if detector {
                    [kbase.to_le_bytes(), (klen as u64).to_le_bytes()].concat()
                } else {
                    b"in".to_vec()
                },
                nonce: [i as u8 + 1; 20],
                slb_base,
                use_hashing_stub,
            };
            let rec = run_session(&mut os, &slb, &params).unwrap();
            assert_eq!(rec.pal_result, Ok(()));
            let quote = os.tqd_quote(params.nonce, &PcrSelection::pcr17()).unwrap();
            let pal_extends = if detector {
                vec![rec.outputs.as_slice().try_into().unwrap()]
            } else {
                Vec::new()
            };
            Claim {
                slb,
                params,
                outputs: rec.outputs,
                pal_extends,
                quote,
            }
        })
        .collect();

    let ek = os.machine().tpm().ek_public().clone();
    let relabeled = ca.certify_aik(&ek, &genuine.aik_public, "other").unwrap();
    let mut flipped = genuine.clone();
    flipped.signature[7] ^= 1;
    let mut other_ca = PrivacyCa::new(512, &mut rng);
    other_ca.register_ek(ek.clone());
    let foreign = other_ca
        .certify_aik(&ek, &genuine.aik_public, &genuine.label)
        .unwrap();
    let forged_label = AikCertificate {
        signature: genuine.signature.clone(),
        ..relabeled.clone()
    };
    Attested {
        ca_public: ca.public_key().clone(),
        claims,
        certs: [genuine, relabeled, forged_label, flipped, foreign],
    }
}

thread_local! {
    static ATTESTED: Attested = attested();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every verdict of one long-lived verifier equals a fresh verifier's
    /// verdict on the same call, over genuine and tampered claims (wrong
    /// output, wrong nonce) shown with genuine and forged certificates;
    /// and every launch value it keeps equals [`launch_pcr17`].
    #[test]
    fn a_long_lived_verifier_agrees_with_a_fresh_one(
        calls in proptest::collection::vec((0usize..7, 0usize..8, 0u8..4), 1..24),
    ) {
        ATTESTED.with(|a| {
            let kept = Verifier::new(a.ca_public.clone());
            for &(claim, pick, tamper) in &calls {
                let c = &a.claims[claim];
                // The genuine certificate half the time, so most calls
                // reach the launch value.
                let cert = pick.saturating_sub(3);
                let valid = tamper < 2 && cert < 2;
                let cert = &a.certs[cert];
                let mut expected = ExpectedSession {
                    slb: &c.slb,
                    slb_base: c.params.slb_base,
                    inputs: &c.params.inputs,
                    outputs: &c.outputs,
                    nonce: c.params.nonce,
                    used_hashing_stub: c.params.use_hashing_stub,
                };
                match tamper {
                    2 => expected.outputs = b"forged",
                    3 => expected.nonce[0] ^= 1,
                    _ => {}
                }
                let verdict = |v: &Verifier| {
                    v.verify_with_extends(cert, &c.quote, &expected, &c.pal_extends)
                };
                let fresh = verdict(&Verifier::new(a.ca_public.clone()));
                prop_assert_eq!(verdict(&kept), fresh.clone());
                prop_assert_eq!(kept.launch_pcr17(&expected), launch_pcr17(&expected));
                prop_assert_eq!(fresh.is_ok(), valid);
            }
            Ok(())
        })?;
    }
}

// ---------------------------------------------------------------------------
// Bytecode fuzzing: arbitrary programs cannot escape the PAL region.
// ---------------------------------------------------------------------------

thread_local! {
    static FUZZ_OS: RefCell<Os> = RefCell::new(Os::boot(OsConfig::fast_for_tests(231)));
}

/// Strategy for one arbitrary-but-decodable instruction.
fn arb_insn(max_pc: u32) -> impl Strategy<Value = Insn> {
    (0u8..=24, 0u8..16, 0u8..16, 0u8..16, any::<u32>()).prop_map(move |(op, rd, rs1, rs2, imm)| {
        let op = Opcode::from_u8(op).expect("valid opcode range");
        // Keep branch targets inside the program so runs are not all
        // instant PcOutOfRange faults.
        let imm = match op {
            Opcode::Jmp | Opcode::Jz | Opcode::Jnz | Opcode::Jlt | Opcode::Call => imm % max_pc,
            _ => imm,
        };
        Insn {
            op,
            rd,
            rs1,
            rs2,
            imm,
        }
    })
}

fn encode(insns: &[Insn]) -> Program {
    let mut code = Vec::with_capacity(insns.len() * INSN_LEN);
    for i in insns {
        code.extend_from_slice(&i.encode());
    }
    Program {
        code,
        labels: BTreeMap::new(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Fuzz: ANY bytecode program, run under the OS-Protection module,
    /// leaves all memory outside the OS-allocated region untouched, and
    /// the platform always comes back (interrupts on, no active launch,
    /// no leaked DEV protections).
    #[test]
    fn arbitrary_bytecode_is_contained(
        insns in proptest::collection::vec(arb_insn(64), 1..64),
        inputs in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        FUZZ_OS.with(|cell| {
            let mut os = cell.borrow_mut();
            let prog = encode(&insns);
            // Fuzzed programs rarely pass the static verifier; the whole
            // point here is run-time containment of arbitrary bytecode.
            let slb = SlbImage::build_unverified(
                PalPayload::Bytecode(prog),
                SlbOptions {
                    fuel: Some(200_000),
                    ..Default::default()
                },
            )
            .unwrap();

            // Plant sentinels just outside the allocated region.
            let before = DEFAULT_SLB_BASE - 16;
            let after = DEFAULT_SLB_BASE + REGION_LEN as u64;
            os.machine_mut().memory_mut().write(before, b"BEFORE-SENTINEL!").unwrap();
            os.machine_mut().memory_mut().write(after, b"AFTER-SENTINEL!!").unwrap();
            let kernel_snapshot = {
                let (kbase, klen) = os.kernel_region();
                os.machine_mut().memory().read(kbase, klen.min(4096)).unwrap().to_vec()
            };

            // Run; the PAL may fault or halt — both are fine.
            let rec = run_session(&mut os, &slb, &SessionParams::with_inputs(inputs)).unwrap();
            let _ = rec.pal_result;

            // Containment.
            prop_assert_eq!(
                os.machine_mut().memory().read(before, 16).unwrap(),
                b"BEFORE-SENTINEL!"
            );
            prop_assert_eq!(
                os.machine_mut().memory().read(after, 16).unwrap(),
                b"AFTER-SENTINEL!!"
            );
            let (kbase, _) = os.kernel_region();
            prop_assert_eq!(
                os.machine_mut().memory().read(kbase, kernel_snapshot.len()).unwrap(),
                &kernel_snapshot[..]
            );

            // Platform restored.
            prop_assert!(os.machine().cpus().bsp().interrupts_enabled);
            prop_assert!(os.machine().active_skinit().is_none());
            prop_assert_eq!(os.machine().dev().active_protections(), 0);
            Ok(())
        })?;
    }
}
