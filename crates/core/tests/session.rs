//! End-to-end Flicker session tests: the Figure 2 timeline, the PCR 17
//! measurement chain, multi-session sealed handoffs, the hashing-stub
//! optimisation, and remote attestation.

use flicker_core::{
    expected_pcr17_final, generate_channel_keypair, open_channel, run_session, ChannelSetup,
    ExpectedSession, FlickerResult, NativePal, PalContext, PalPayload, RemoteParty, SessionParams,
    SlbImage, SlbOptions, Verifier,
};
use flicker_crypto::rng::XorShiftRng;
use flicker_os::{Os, OsConfig};
use flicker_tpm::{PcrSelection, PrivacyCa};
use std::sync::Arc;
use std::time::Duration;

fn test_os(seed: u8) -> Os {
    Os::boot(OsConfig::fast_for_tests(seed))
}

fn native_slb(identity: &[u8], pal: impl NativePal + 'static) -> SlbImage {
    SlbImage::build(
        PalPayload::Native {
            identity: identity.to_vec(),
            program: Arc::new(pal),
        },
        SlbOptions::default(),
    )
    .unwrap()
}

/// Echoes its inputs, reversed.
struct ReversePal;
impl NativePal for ReversePal {
    fn run(&self, ctx: &mut PalContext<'_>) -> FlickerResult<()> {
        let mut data = ctx.inputs().to_vec();
        data.reverse();
        ctx.write_output(&data)
    }
}

#[test]
fn basic_session_runs_pal_and_returns_outputs() {
    let mut os = test_os(1);
    let slb = native_slb(b"reverse-pal", ReversePal);
    let rec = run_session(
        &mut os,
        &slb,
        &SessionParams::with_inputs(b"flicker".to_vec()),
    )
    .unwrap();
    assert_eq!(rec.pal_result, Ok(()));
    assert_eq!(rec.outputs, b"rekcilf");
}

#[test]
fn session_restores_platform_state() {
    let mut os = test_os(2);
    let slb = native_slb(b"reverse-pal", ReversePal);
    run_session(&mut os, &slb, &SessionParams::default()).unwrap();
    let bsp = os.machine().cpus().bsp();
    assert!(bsp.interrupts_enabled, "interrupts restored");
    assert_eq!(bsp.mode, flicker_machine::CpuMode::Paged);
    assert!(os.machine().active_skinit().is_none());
    assert!(os.saved_state().is_none(), "flicker-module state cleared");
    // A second session works.
    let rec = run_session(&mut os, &slb, &SessionParams::with_inputs(b"ab".to_vec())).unwrap();
    assert_eq!(rec.outputs, b"ba");
}

#[test]
fn pcr17_matches_predicted_chain() {
    let mut os = test_os(3);
    let slb = native_slb(b"reverse-pal", ReversePal);
    let params = SessionParams {
        inputs: b"hello".to_vec(),
        nonce: [7u8; 20],
        ..Default::default()
    };
    let rec = run_session(&mut os, &slb, &params).unwrap();

    assert_eq!(
        rec.pcr17_entry,
        slb.expected_pcr17_after_skinit(params.slb_base),
        "post-SKINIT value is H(0^20 || H(SLB))"
    );
    let expected = expected_pcr17_final(&ExpectedSession {
        slb: &slb,
        slb_base: params.slb_base,
        inputs: &params.inputs,
        outputs: &rec.outputs,
        nonce: params.nonce,
        used_hashing_stub: false,
    });
    assert_eq!(rec.pcr17_final, expected);
    // And the TPM agrees.
    assert_eq!(os.machine().tpm().pcrs().read(17).unwrap(), expected);
}

#[test]
fn different_pals_produce_different_pcr17() {
    let mut os1 = test_os(4);
    let slb1 = native_slb(b"pal-one", ReversePal);
    let r1 = run_session(&mut os1, &slb1, &SessionParams::default()).unwrap();

    let mut os2 = test_os(4);
    let slb2 = native_slb(b"pal-two", ReversePal);
    let r2 = run_session(&mut os2, &slb2, &SessionParams::default()).unwrap();

    assert_ne!(r1.pcr17_entry, r2.pcr17_entry);
    assert_ne!(r1.pcr17_final, r2.pcr17_final);
}

#[test]
fn session_timings_are_plausible() {
    let mut os = test_os(5);
    let slb = native_slb(b"reverse-pal", ReversePal);
    let rec = run_session(&mut os, &slb, &SessionParams::default()).unwrap();
    let t = &rec.timings;
    // SKINIT for a small SLB: ~0.9 ms fixed + ~2.7 µs/B.
    assert!(t.skinit > Duration::from_micros(900), "{:?}", t.skinit);
    assert!(t.skinit < Duration::from_millis(10), "{:?}", t.skinit);
    // Cleanup includes three 1.2 ms PCR extends.
    assert!(t.cleanup >= Duration::from_micros(3_600));
    assert!(t.total >= t.suspend + t.skinit + t.pal + t.cleanup + t.resume);
}

#[test]
fn hashing_stub_reduces_skinit_time() {
    // §7.2: the 4 736-byte stub cuts SKINIT from ~177 ms to ~14 ms for a
    // full-size PAL. Build a large PAL and compare both launch paths.
    let big_identity = vec![0xA5u8; 50 * 1024];
    let mut os_plain = test_os(6);
    let slb = native_slb(&big_identity, ReversePal);
    let plain = run_session(&mut os_plain, &slb, &SessionParams::default()).unwrap();

    let mut os_stub = test_os(6);
    let stub_params = SessionParams {
        use_hashing_stub: true,
        ..Default::default()
    };
    let stub = run_session(&mut os_stub, &slb, &stub_params).unwrap();

    let plain_ms = plain.timings.skinit.as_secs_f64() * 1e3;
    let stub_ms = stub.timings.skinit.as_secs_f64() * 1e3;
    assert!(
        (130.0..180.0).contains(&plain_ms),
        "plain SKINIT {plain_ms:.1} ms"
    );
    assert!(
        (10.0..20.0).contains(&stub_ms),
        "stub SKINIT {stub_ms:.1} ms"
    );
    // The stub then measures the window on the CPU, which is fast.
    assert!(stub.timings.stub_measure < Duration::from_millis(2));
    // Both produce working sessions.
    assert_eq!(stub.pal_result, Ok(()));
}

#[test]
fn hashing_stub_chain_verifies() {
    let mut os = test_os(7);
    let slb = native_slb(b"stub-launched-pal", ReversePal);
    let params = SessionParams {
        inputs: b"xyz".to_vec(),
        use_hashing_stub: true,
        nonce: [3u8; 20],
        ..Default::default()
    };
    let rec = run_session(&mut os, &slb, &params).unwrap();
    let expected = expected_pcr17_final(&ExpectedSession {
        slb: &slb,
        slb_base: params.slb_base,
        inputs: &params.inputs,
        outputs: &rec.outputs,
        nonce: params.nonce,
        used_hashing_stub: true,
    });
    assert_eq!(rec.pcr17_final, expected);
}

/// The stub's bytes are part of every stub-launched PCR 17 chain, so a
/// change to them is a change to every verifier's expectation.
#[test]
fn hashing_stub_bytes_are_pinned() {
    let stub = flicker_core::hashing_stub_bytes();
    assert_eq!(stub.len(), 4_736);
    assert_eq!(
        flicker_crypto::hex::encode(&flicker_crypto::sha1::sha1(stub)),
        "7d15798af288eebf8b1b5181a5efe1f348366cfe"
    );
    assert!(std::ptr::eq(stub, flicker_core::hashing_stub_bytes()));
}

#[test]
fn faulting_pal_still_resumes_os() {
    struct Crasher;
    impl NativePal for Crasher {
        fn run(&self, _ctx: &mut PalContext<'_>) -> FlickerResult<()> {
            Err(flicker_core::FlickerError::PalFault("boom".into()))
        }
    }
    let mut os = test_os(8);
    let slb = native_slb(b"crasher", Crasher);
    let rec = run_session(&mut os, &slb, &SessionParams::default()).unwrap();
    assert!(rec.pal_result.is_err());
    assert!(os.machine().cpus().bsp().interrupts_enabled, "OS resumed");
    // The terminal extends still happened: PCR 17 is closed off.
    assert_eq!(os.machine().tpm().pcrs().read(17).unwrap(), rec.pcr17_final);
}

#[test]
fn oversized_inputs_rejected() {
    let mut os = test_os(9);
    let slb = native_slb(b"pal", ReversePal);
    let params = SessionParams::with_inputs(vec![0u8; 0xE01]);
    assert!(run_session(&mut os, &slb, &params).is_err());
}

#[test]
fn outputs_published_through_output_page() {
    let mut os = test_os(10);
    let slb = native_slb(b"reverse-pal", ReversePal);
    let params = SessionParams::with_inputs(b"abc".to_vec());
    let rec = run_session(&mut os, &slb, &params).unwrap();
    // The flicker-module exposes outputs via its sysfs entry, which reads
    // the output page.
    let base = params.slb_base + flicker_core::slb::OUTPUTS_OFFSET;
    let len = os.machine().memory().read_u32_le(base).unwrap() as usize;
    assert_eq!(len, rec.outputs.len());
    let bytes = os.machine().memory().read(base + 4, len).unwrap();
    assert_eq!(bytes, b"cba");
}

#[test]
fn bytecode_pal_hello_world() {
    // The Figure 5 PAL, as measured bytecode.
    let mut os = test_os(11);
    let slb = SlbImage::build(
        PalPayload::Bytecode(flicker_palvm::progs::hello_world()),
        SlbOptions::default(),
    )
    .unwrap();
    let rec = run_session(&mut os, &slb, &SessionParams::default()).unwrap();
    assert_eq!(rec.pal_result, Ok(()));
    assert_eq!(rec.outputs, b"Hello, world");
}

#[test]
fn bytecode_pal_reads_inputs_from_input_page() {
    // The trial-division kernel reads n/lo/hi from the input region.
    let prog = flicker_palvm::assemble(
        "
        ldw r1, [r14+0]
        ldw r2, [r14+4]
        ldw r3, [r14+8]
    loop:
        jlt r2, r3, body
        halt
    body:
        modu r5, r1, r2
        jnz r5, next
        mov r0, r2
        hcall 1
    next:
        movi r6, 1
        add r2, r2, r6
        jmp loop
    ",
    )
    .unwrap();
    let mut inputs = Vec::new();
    inputs.extend_from_slice(&91u32.to_le_bytes());
    inputs.extend_from_slice(&2u32.to_le_bytes());
    inputs.extend_from_slice(&20u32.to_le_bytes());

    let mut os = test_os(12);
    let slb = SlbImage::build(PalPayload::Bytecode(prog), SlbOptions::default()).unwrap();
    let rec = run_session(&mut os, &slb, &SessionParams::with_inputs(inputs)).unwrap();
    assert_eq!(rec.pal_result, Ok(()));
    let divisors: Vec<u32> = rec
        .outputs
        .chunks_exact(4)
        .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
        .collect();
    assert_eq!(divisors, vec![7, 13]);
}

#[test]
fn time_limit_converts_to_fuel_for_bytecode() {
    // The §5.1.2 timing restriction: a 1 ms budget at 50M insns/s is
    // 50 000 instructions; an infinite loop hits it and the OS resumes.
    let prog = flicker_palvm::assemble("loop: jmp loop").unwrap();
    let mut os = test_os(18);
    // The verifier proves termination and would reject this loop; the
    // escape hatch lets the test exercise the timing backstop.
    let slb = SlbImage::build_unverified(
        PalPayload::Bytecode(prog),
        SlbOptions {
            time_limit: Some(Duration::from_millis(1)),
            ..Default::default()
        },
    )
    .unwrap();
    let rec = run_session(&mut os, &slb, &SessionParams::default()).unwrap();
    assert!(rec.pal_result.as_ref().unwrap_err().contains("fuel"));
    assert!(os.machine().cpus().bsp().interrupts_enabled, "OS resumed");
}

#[test]
fn time_limit_flags_overlong_native_pal() {
    struct SlowPal;
    impl NativePal for SlowPal {
        fn run(&self, ctx: &mut PalContext<'_>) -> FlickerResult<()> {
            ctx.charge_cpu(Duration::from_secs(5));
            ctx.write_output(b"done anyway")
        }
    }
    let mut os = test_os(19);
    let slb = native_slb_with_options(
        b"slow-pal",
        SlowPal,
        SlbOptions {
            time_limit: Some(Duration::from_secs(1)),
            ..Default::default()
        },
    );
    let rec = run_session(&mut os, &slb, &SessionParams::default()).unwrap();
    let err = rec.pal_result.unwrap_err();
    assert!(err.contains("time limit"), "{err}");
}

fn native_slb_with_options(
    identity: &[u8],
    pal: impl NativePal + 'static,
    options: SlbOptions,
) -> SlbImage {
    SlbImage::build(
        PalPayload::Native {
            identity: identity.to_vec(),
            program: Arc::new(pal),
        },
        options,
    )
    .unwrap()
}

#[test]
fn runaway_bytecode_pal_is_bounded_by_fuel() {
    let prog = flicker_palvm::assemble("loop: jmp loop").unwrap();
    let mut os = test_os(13);
    // Unverified on purpose: fuel is the backstop for exactly the
    // programs the termination check cannot pass.
    let slb = SlbImage::build_unverified(
        PalPayload::Bytecode(prog),
        SlbOptions {
            fuel: Some(10_000),
            ..Default::default()
        },
    )
    .unwrap();
    let rec = run_session(&mut os, &slb, &SessionParams::default()).unwrap();
    assert!(rec.pal_result.as_ref().unwrap_err().contains("fuel"));
    assert!(os.machine().cpus().bsp().interrupts_enabled, "OS resumed");
}

#[test]
fn bytecode_rootkit_detector_end_to_end() {
    // The §6.1 detector as pure measured bytecode: hash a kernel region,
    // extend PCR 17, output the digest — then verify the full chain
    // including the PAL's own extend.
    let mut os = test_os(33);
    let (kbase, klen) = os.kernel_region();
    let mut inputs = Vec::new();
    inputs.extend_from_slice(&kbase.to_le_bytes());
    inputs.extend_from_slice(&(klen as u64).to_le_bytes());

    let slb = SlbImage::build(
        PalPayload::Bytecode(flicker_palvm::progs::kernel_hasher()),
        SlbOptions {
            os_protection: false, // it must read kernel memory
            ..Default::default()
        },
    )
    .unwrap();
    let params = SessionParams {
        inputs: inputs.clone(),
        nonce: [9u8; 20],
        ..Default::default()
    };
    let rec = run_session(&mut os, &slb, &params).unwrap();
    assert_eq!(rec.pal_result, Ok(()));

    let expected_hash = flicker_crypto::sha1::sha1(&os.kernel().measured_region());
    assert_eq!(rec.outputs, expected_hash);

    // Chain verification with the PAL-performed extend.
    let expected = flicker_core::expected_pcr17_final_with_extends(
        &ExpectedSession {
            slb: &slb,
            slb_base: params.slb_base,
            inputs: &inputs,
            outputs: &rec.outputs,
            nonce: params.nonce,
            used_hashing_stub: false,
        },
        &[expected_hash],
    );
    assert_eq!(rec.pcr17_final, expected);
}

#[test]
fn bytecode_detector_contained_when_os_protected() {
    // The same bytecode under OS protection cannot reach kernel memory:
    // the detector *requires* ring-0 flat segments, as the paper's does.
    let mut os = test_os(34);
    let (kbase, klen) = os.kernel_region();
    let mut inputs = Vec::new();
    inputs.extend_from_slice(&kbase.to_le_bytes());
    inputs.extend_from_slice(&(klen as u64).to_le_bytes());
    let slb = SlbImage::build(
        PalPayload::Bytecode(flicker_palvm::progs::kernel_hasher()),
        SlbOptions::default(), // OS protection ON
    )
    .unwrap();
    let rec = run_session(&mut os, &slb, &SessionParams::with_inputs(inputs)).unwrap();
    assert!(rec.pal_result.is_err());
    assert!(rec.outputs.is_empty());
}

#[test]
fn large_pal_launches_via_stub_and_verifies() {
    // A PAL bigger than the 64 KB SLB window (paper §4.2: the preparatory
    // code extends the DEV and measures the extra region into PCR 17).
    let big_identity = vec![0xC3u8; 100 * 1024];
    let slb = native_slb(&big_identity, ReversePal);
    assert!(slb.is_large());

    let mut os = test_os(30);
    let params = SessionParams {
        inputs: b"large".to_vec(),
        use_hashing_stub: true,
        nonce: [5u8; 20],
        ..Default::default()
    };
    let rec = run_session(&mut os, &slb, &params).unwrap();
    assert_eq!(rec.pal_result, Ok(()));
    assert_eq!(rec.outputs, b"egral");

    // The verifier's chain includes the overflow measurement.
    let expected = expected_pcr17_final(&ExpectedSession {
        slb: &slb,
        slb_base: params.slb_base,
        inputs: &params.inputs,
        outputs: &rec.outputs,
        nonce: params.nonce,
        used_hashing_stub: true,
    });
    assert_eq!(rec.pcr17_final, expected);

    // Overflow region DEV protection was released and its bytes cleansed.
    let overflow_base = params.slb_base + flicker_core::OVERFLOW_OFFSET;
    assert!(os.machine_mut().dma_read(overflow_base, 16).is_ok());
    assert_eq!(os.machine().dev().active_protections(), 0);
    let bytes = os.machine().memory().read(overflow_base, 4096).unwrap();
    assert!(bytes.iter().all(|&b| b == 0), "overflow region cleansed");
}

#[test]
fn large_pal_without_stub_refused() {
    let big_identity = vec![0xC3u8; 100 * 1024];
    let slb = native_slb(&big_identity, ReversePal);
    let mut os = test_os(31);
    assert!(run_session(&mut os, &slb, &SessionParams::default()).is_err());
}

#[test]
fn large_pal_measurement_covers_overflow_bytes() {
    // Two large PALs differing only in their overflow bytes must produce
    // different final PCR 17 values (the extension is not just the window).
    let id_a = vec![0x11u8; 100 * 1024];
    let mut id_b = id_a.clone();
    let n = id_b.len();
    id_b[n - 1] ^= 0xFF; // differs only in the overflow tail

    let slb_a = native_slb(&id_a, ReversePal);
    let slb_b = native_slb(&id_b, ReversePal);
    let params = SessionParams {
        use_hashing_stub: true,
        ..Default::default()
    };
    let mut os_a = test_os(32);
    let ra = run_session(&mut os_a, &slb_a, &params).unwrap();
    let mut os_b = test_os(32);
    let rb = run_session(&mut os_b, &slb_b, &params).unwrap();
    assert_ne!(ra.pcr17_final, rb.pcr17_final);
}

#[test]
fn pal_uses_the_memory_management_module() {
    // The Figure 6 "Memory Management" module in action: a PAL allocates
    // from a heap arena living in its own stack region, builds a result
    // there, and frees everything before exit.
    struct HeapPal;
    impl NativePal for HeapPal {
        fn run(&self, ctx: &mut PalContext<'_>) -> FlickerResult<()> {
            let arena_base: u32 = 60 * 1024; // the SLB's stack/heap area
            let mut heap = flicker_core::PalHeap::new(4096);
            let a = heap
                .malloc(64)
                .map_err(|e| flicker_core::FlickerError::PalFault(e.to_string()))?;
            let b = heap
                .malloc(128)
                .map_err(|e| flicker_core::FlickerError::PalFault(e.to_string()))?;
            ctx.write_logical(arena_base + a, b"allocated-in-pal-heap")?;
            let back = ctx.read_logical(arena_base + a, 21)?;
            ctx.write_output(&back)?;
            heap.free(b).unwrap();
            heap.free(a).unwrap();
            assert_eq!(heap.free_bytes(), 4096);
            Ok(())
        }
    }
    let mut os = test_os(35);
    let slb = native_slb(b"heap-pal", HeapPal);
    let rec = run_session(&mut os, &slb, &SessionParams::default()).unwrap();
    assert_eq!(rec.pal_result, Ok(()));
    assert_eq!(rec.outputs, b"allocated-in-pal-heap");
    // And the arena (PAL memory) was cleansed at exit.
    let bytes = os
        .machine()
        .memory()
        .read(flicker_core::DEFAULT_SLB_BASE + 60 * 1024, 4096)
        .unwrap();
    assert!(bytes.iter().all(|&b| b == 0));
}

/// Hashes the logical range its inputs name (offset and length, two
/// little-endian u32s; no inputs hash nothing) and outputs whether that
/// failed, then how many ops the PAL logged.
struct HashLogicalPal;
impl NativePal for HashLogicalPal {
    fn run(&self, ctx: &mut PalContext<'_>) -> FlickerResult<()> {
        let failed = match ctx.inputs() {
            [] => false,
            i => {
                let word = |k: usize| u32::from_le_bytes(i[k..k + 4].try_into().unwrap());
                ctx.sha1_logical(word(0), word(4)).is_err()
            }
        };
        let ops = ctx.ops().len() as u8;
        ctx.write_output(&[failed as u8, ops])
    }
}

#[test]
fn failed_sha1_logical_charges_and_logs_nothing() {
    let mut os = test_os(36);
    let (kbase, klen) = os.kernel_region();
    // Past the OS-protection segment limit, past installed RAM through
    // flat segments, and a range that hashes (the control).
    for (os_protection, offset, len, fails) in [
        (true, 0x10_0000, 20, true),
        (false, u32::MAX - 19, 20, true),
        (false, kbase as u32, klen as u32, false),
    ] {
        let slb = native_slb_with_options(
            b"hash-logical-pal",
            HashLogicalPal,
            SlbOptions {
                os_protection,
                ..Default::default()
            },
        );
        let idle = run_session(&mut os, &slb, &SessionParams::default()).unwrap();
        let mut inputs = offset.to_le_bytes().to_vec();
        inputs.extend_from_slice(&len.to_le_bytes());
        let rec = run_session(&mut os, &slb, &SessionParams::with_inputs(inputs)).unwrap();
        assert_eq!(rec.pal_result, Ok(()));
        assert_eq!(idle.outputs, [0, 0]);
        if fails {
            assert_eq!(rec.outputs, [1, 0], "offset {offset:#x}");
            assert!(rec.ops.is_empty());
            assert_eq!(rec.timings.pal, idle.timings.pal, "no time charged");
        } else {
            assert_eq!(rec.outputs, [0, 1]);
            assert_eq!(rec.op_log()[0].0, "sha1");
            assert!(rec.timings.pal > idle.timings.pal);
        }
    }
}

// ---------------------------------------------------------------------------
// Sealed handoff between sessions (§4.3.1).
// ---------------------------------------------------------------------------

/// Session 1: seals a secret to itself.
struct SealerPal {
    secret: Vec<u8>,
}
impl NativePal for SealerPal {
    fn run(&self, ctx: &mut PalContext<'_>) -> FlickerResult<()> {
        let blob = ctx.seal_to_self(&self.secret)?;
        ctx.write_output(blob.as_bytes())
    }
}

/// Session 2 (same PAL identity): unseals and proves knowledge by emitting
/// the SHA-1 of the secret.
struct UnsealerPal;
impl NativePal for UnsealerPal {
    fn run(&self, ctx: &mut PalContext<'_>) -> FlickerResult<()> {
        let blob = flicker_tpm::SealedBlob::from_bytes(ctx.inputs().to_vec());
        let secret = ctx.unseal(&blob)?;
        let digest = ctx.sha1(&secret);
        ctx.write_output(&digest)
    }
}

#[test]
fn sealed_state_crosses_sessions_of_same_pal() {
    let mut os = test_os(14);
    // Both sessions must present the same measured identity for PCR 17 to
    // match; the payload carries different behaviour for each phase, which
    // models one PAL binary with an input-selected code path.
    let slb1 = native_slb(
        b"seal-unseal-pal",
        SealerPal {
            secret: b"the CA private key".to_vec(),
        },
    );
    let r1 = run_session(&mut os, &slb1, &SessionParams::default()).unwrap();
    assert_eq!(r1.pal_result, Ok(()));
    let blob_bytes = r1.outputs.clone();

    let slb2 = native_slb(b"seal-unseal-pal", UnsealerPal);
    let r2 = run_session(&mut os, &slb2, &SessionParams::with_inputs(blob_bytes)).unwrap();
    assert_eq!(r2.pal_result, Ok(()));
    assert_eq!(
        r2.outputs,
        flicker_crypto::sha1::sha1(b"the CA private key")
    );
}

/// Seals its secret for a *different* future PAL whose post-SKINIT
/// PCR 17 is carried in this PAL's inputs.
struct SealerForPal {
    secret: Vec<u8>,
}
impl NativePal for SealerForPal {
    fn run(&self, ctx: &mut PalContext<'_>) -> FlickerResult<()> {
        let target: [u8; 20] = ctx.inputs().try_into().expect("20-byte PCR value");
        let blob = ctx.seal_for_pal(&self.secret, target)?;
        ctx.write_output(blob.as_bytes())
    }
}

#[test]
fn bytecode_pal_unseals_through_hcall_6() {
    // §4.3.1 handoff *into measured bytecode*: a native PAL seals a
    // secret to the bytecode PAL's predicted post-SKINIT PCR 17; the
    // bytecode PAL unseals it with hypercall 6 and — respecting the
    // secret-flow discipline the verifier enforces — emits only the
    // SHA-1 of the plaintext through the hash release point.
    let src = "
        mov r1, r14          ; blob = the whole input region
        mov r2, r12
        addi r3, r14, 0x800  ; plaintext scratch
        hcall 6              ; unseal; r0 = plaintext length
        mov r2, r0
        mov r1, r3
        addi r3, r14, 0x700  ; digest scratch (disjoint from plaintext)
        hcall 2              ; sha1(plaintext) -> digest (release point)
        mov r1, r3
        movi r2, 20
        hcall 5              ; output the digest
        halt";
    let prog = flicker_palvm::assemble(src).unwrap();
    // The unsealer must pass the real builder: this is the production
    // path, not an adversarial one.
    let unsealer = SlbImage::build(PalPayload::Bytecode(prog), SlbOptions::default()).unwrap();
    let target_pcr17 = unsealer.expected_pcr17_after_skinit(DEFAULT_SLB_BASE);

    let mut os = test_os(36);
    let secret = b"bytecode-owned secret".to_vec();
    let sealer = native_slb(
        b"provisioning-pal",
        SealerForPal {
            secret: secret.clone(),
        },
    );
    let r1 = run_session(
        &mut os,
        &sealer,
        &SessionParams::with_inputs(target_pcr17.to_vec()),
    )
    .unwrap();
    assert_eq!(r1.pal_result, Ok(()));

    let r2 = run_session(&mut os, &unsealer, &SessionParams::with_inputs(r1.outputs)).unwrap();
    assert_eq!(r2.pal_result, Ok(()));
    assert_eq!(r2.outputs, flicker_crypto::sha1::sha1(&secret));
}

#[test]
fn wrong_bytecode_pal_cannot_unseal_through_hcall_6() {
    // The same handoff, but the running bytecode differs from the one the
    // secret was sealed to: PCR 17 differs, TPM_Unseal refuses, and the
    // hypercall surfaces the failure as a PAL fault with no output.
    let src = "
        mov r1, r14
        mov r2, r12
        addi r3, r14, 0x800
        hcall 6
        halt";
    let imposter = SlbImage::build(
        PalPayload::Bytecode(flicker_palvm::assemble(src).unwrap()),
        SlbOptions::default(),
    )
    .unwrap();
    // Seal against a different program's measurement.
    let legit = SlbImage::build(
        PalPayload::Bytecode(flicker_palvm::progs::hello_world()),
        SlbOptions::default(),
    )
    .unwrap();
    let target_pcr17 = legit.expected_pcr17_after_skinit(DEFAULT_SLB_BASE);

    let mut os = test_os(37);
    let sealer = native_slb(
        b"provisioning-pal",
        SealerForPal {
            secret: b"not for you".to_vec(),
        },
    );
    let r1 = run_session(
        &mut os,
        &sealer,
        &SessionParams::with_inputs(target_pcr17.to_vec()),
    )
    .unwrap();

    let r2 = run_session(&mut os, &imposter, &SessionParams::with_inputs(r1.outputs)).unwrap();
    let err = r2.pal_result.unwrap_err();
    assert!(err.contains("WRONGPCRVAL") || err.contains("PCR"), "{err}");
    assert!(r2.outputs.is_empty());
}

#[test]
fn different_pal_cannot_unseal_handoff() {
    let mut os = test_os(15);
    let slb1 = native_slb(
        b"seal-unseal-pal",
        SealerPal {
            secret: b"secret".to_vec(),
        },
    );
    let r1 = run_session(&mut os, &slb1, &SessionParams::default()).unwrap();

    // An *imposter* PAL with a different identity tries to unseal.
    let evil = native_slb(b"evil-pal", UnsealerPal);
    let r2 = run_session(&mut os, &evil, &SessionParams::with_inputs(r1.outputs)).unwrap();
    let err = r2.pal_result.unwrap_err();
    assert!(err.contains("WRONGPCRVAL") || err.contains("PCR"), "{err}");
    assert!(r2.outputs.is_empty());
}

// ---------------------------------------------------------------------------
// Remote attestation end-to-end (§4.4.1).
// ---------------------------------------------------------------------------

#[test]
fn remote_attestation_end_to_end() {
    let mut rng = XorShiftRng::new(99);
    let mut privacy_ca = PrivacyCa::new(512, &mut rng);
    let mut os = test_os(16);
    os.provision_attestation(&mut privacy_ca, "dc5750").unwrap();
    let cert = os.aik_certificate().unwrap().clone();

    // Verifier sends a nonce; challenger runs the PAL under Flicker.
    let nonce = [0xAB; 20];
    let slb = native_slb(b"attested-pal", ReversePal);
    let params = SessionParams {
        inputs: b"password-check".to_vec(),
        nonce,
        ..Default::default()
    };
    let rec = run_session(&mut os, &slb, &params).unwrap();

    // tqd produces the quote after the session, under the untrusted OS.
    let quote = os.tqd_quote(nonce, &PcrSelection::pcr17()).unwrap();

    // Verifier checks everything.
    let verifier = Verifier::new(privacy_ca.public_key().clone());
    let expected = ExpectedSession {
        slb: &slb,
        slb_base: params.slb_base,
        inputs: &params.inputs,
        outputs: &rec.outputs,
        nonce,
        used_hashing_stub: false,
    };
    verifier.verify(&cert, &quote, &expected).unwrap();

    // A lying challenger claiming different outputs fails.
    let lied = ExpectedSession {
        outputs: b"forged-results",
        ..expected.clone()
    };
    assert!(verifier.verify(&cert, &quote, &lied).is_err());

    // A stale quote (wrong nonce) fails.
    let replayed = ExpectedSession {
        nonce: [0xCD; 20],
        ..expected.clone()
    };
    assert!(verifier.verify(&cert, &quote, &replayed).is_err());
}

// ---------------------------------------------------------------------------
// Secure channel across two sessions (§4.4.2).
// ---------------------------------------------------------------------------

struct ChannelSetupPal;
impl NativePal for ChannelSetupPal {
    fn run(&self, ctx: &mut PalContext<'_>) -> FlickerResult<()> {
        let setup = generate_channel_keypair(ctx)?;
        ctx.write_output(&setup.to_bytes())
    }
}

struct ChannelReceiverPal;
impl NativePal for ChannelReceiverPal {
    fn run(&self, ctx: &mut PalContext<'_>) -> FlickerResult<()> {
        // Inputs: blob_len || blob || ciphertext.
        let inputs = ctx.inputs().to_vec();
        let blob_len = u32::from_be_bytes(inputs[0..4].try_into().unwrap()) as usize;
        let blob = flicker_tpm::SealedBlob::from_bytes(inputs[4..4 + blob_len].to_vec());
        let ciphertext = &inputs[4 + blob_len..];
        let plaintext = open_channel(ctx, &blob, ciphertext)?;
        // Prove receipt without disclosing the secret.
        let digest = ctx.sha1(&plaintext);
        ctx.write_output(&digest)
    }
}

#[test]
fn secure_channel_two_sessions() {
    let mut os = test_os(17);
    let slb1 = native_slb(b"channel-pal", ChannelSetupPal);
    let r1 = run_session(&mut os, &slb1, &SessionParams::default()).unwrap();
    assert_eq!(r1.pal_result, Ok(()));
    let setup = ChannelSetup::from_bytes(&r1.outputs).unwrap();

    // Remote party encrypts a secret under the attested channel key.
    let remote = RemoteParty::new(setup.public_key.clone());
    let mut rng = XorShiftRng::new(5);
    let ct = remote.encrypt(b"hunter2-and-a-nonce", &mut rng).unwrap();

    // Second session of the same PAL decrypts it.
    let mut inputs = Vec::new();
    inputs.extend_from_slice(&(setup.sealed_private_key.len() as u32).to_be_bytes());
    inputs.extend_from_slice(setup.sealed_private_key.as_bytes());
    inputs.extend_from_slice(&ct);

    let slb2 = native_slb(b"channel-pal", ChannelReceiverPal);
    let r2 = run_session(&mut os, &slb2, &SessionParams::with_inputs(inputs)).unwrap();
    assert_eq!(r2.pal_result, Ok(()));
    assert_eq!(
        r2.outputs,
        flicker_crypto::sha1::sha1(b"hunter2-and-a-nonce")
    );
}

// ----- output-page and session-result regression tests -----------------------

use flicker_core::{
    DEFAULT_SLB_BASE, OUTPUTS_MAX, OUTPUTS_OFFSET, OVERFLOW_OFFSET, PHASE_SPAN_NAMES,
};

/// Writes `self.0` bytes of 0xAB output.
struct FillOutputPal(usize);
impl NativePal for FillOutputPal {
    fn run(&self, ctx: &mut PalContext<'_>) -> FlickerResult<()> {
        ctx.write_output(&vec![0xAB; self.0])
    }
}

#[test]
fn maximal_output_pal_stays_inside_output_page() {
    let mut os = test_os(30);
    // Sentinel directly after the output page: the byte a 4-byte length
    // header plus a full-page output used to clobber.
    let sentinel_addr = DEFAULT_SLB_BASE + OVERFLOW_OFFSET;
    os.machine_mut()
        .memory_mut()
        .write(sentinel_addr, &[0xCD; 8])
        .unwrap();

    let slb = native_slb(b"fill-output-pal", FillOutputPal(OUTPUTS_MAX));
    let rec = run_session(&mut os, &slb, &SessionParams::default()).unwrap();
    assert_eq!(rec.pal_result, Ok(()));
    assert_eq!(rec.outputs.len(), OUTPUTS_MAX);

    let mem = os.machine().memory();
    let out_base = DEFAULT_SLB_BASE + OUTPUTS_OFFSET;
    assert_eq!(mem.read_u32_le(out_base).unwrap() as usize, OUTPUTS_MAX);
    assert_eq!(
        mem.read(out_base + 4, OUTPUTS_MAX).unwrap(),
        &rec.outputs[..]
    );
    // Length header + maximal output exactly fill the page...
    assert_eq!(out_base + 4 + OUTPUTS_MAX as u64, sentinel_addr);
    // ...and the byte after the page is untouched.
    assert_eq!(mem.read(sentinel_addr, 8).unwrap(), &[0xCD; 8]);
}

#[test]
fn over_capacity_output_is_refused() {
    let mut os = test_os(31);
    let slb = native_slb(b"overflow-pal", FillOutputPal(OUTPUTS_MAX + 1));
    let rec = run_session(&mut os, &slb, &SessionParams::default()).unwrap();
    let err = rec.pal_result.unwrap_err();
    assert!(err.contains("output"), "unexpected fault text: {err}");
    assert!(rec.outputs.is_empty());
}

/// Burns more virtual time than any sane limit, then tries to exfiltrate.
struct RunawayPal;
impl NativePal for RunawayPal {
    fn run(&self, ctx: &mut PalContext<'_>) -> FlickerResult<()> {
        ctx.charge_cpu(Duration::from_millis(50));
        ctx.write_output(b"EXFILTRATED-SECRET")
    }
}

#[test]
fn timed_out_native_pal_gets_no_outputs() {
    let mut os = test_os(32);
    // First, a well-behaved session dirties the output page so stale bytes
    // would be visible if cleanup failed to erase it.
    let slb = native_slb(b"reverse-pal", ReversePal);
    run_session(
        &mut os,
        &slb,
        &SessionParams::with_inputs(b"previous-session-output".to_vec()),
    )
    .unwrap();

    let slb = SlbImage::build(
        PalPayload::Native {
            identity: b"runaway-pal".to_vec(),
            program: Arc::new(RunawayPal),
        },
        SlbOptions {
            time_limit: Some(Duration::from_millis(1)),
            ..Default::default()
        },
    )
    .unwrap();
    let rec = run_session(&mut os, &slb, &SessionParams::default()).unwrap();

    let err = rec.pal_result.unwrap_err();
    assert!(err.contains("time limit"), "unexpected fault text: {err}");
    assert!(
        rec.outputs.is_empty(),
        "timed-out outputs must be discarded"
    );
    // The output page holds a zero length and no stale bytes from either
    // the runaway PAL or the previous session.
    let mem = os.machine().memory();
    let out_base = DEFAULT_SLB_BASE + OUTPUTS_OFFSET;
    assert_eq!(mem.read_u32_le(out_base).unwrap(), 0);
    assert_eq!(
        mem.read(out_base + 4, 0x1000 - 4).unwrap(),
        &[0u8; 0x1000 - 4][..]
    );
}

#[test]
fn failed_non_stub_staging_leaves_overflow_region_alone() {
    use flicker_core::{HASHING_STUB_SIZE, SLB_MAX};
    use flicker_faults::{Fault, FaultInjector, FaultPlan};

    // A direct-launch image long enough to trip the stub-path overflow
    // arithmetic (total > SLB_MAX - HASHING_STUB_SIZE) while still fitting
    // the measured window (not large).
    let identity = vec![0x5A; SLB_MAX - HASHING_STUB_SIZE];
    let slb = native_slb(&identity, ReversePal);
    assert!(!slb.is_large());

    let mut os = test_os(33);
    // OS-owned memory above the parameter pages; staging never wrote here,
    // so a failed session must not scrub it.
    let sentinel_addr = DEFAULT_SLB_BASE + OVERFLOW_OFFSET;
    os.machine_mut()
        .memory_mut()
        .write(sentinel_addr, &[0xEE; 16])
        .unwrap();
    // Fail the second staging store (the inputs page write).
    os.machine_mut()
        .set_fault_injector(FaultInjector::new(&FaultPlan::one(Fault::MemWriteFault {
            skip: 1,
        })));

    let err = run_session(&mut os, &slb, &SessionParams::with_inputs(b"in".to_vec())).unwrap_err();
    assert!(format!("{err}").contains("machine"), "{err}");
    assert_eq!(
        os.machine().memory().read(sentinel_addr, 16).unwrap(),
        &[0xEE; 16],
        "non-stub scrub must not reach the overflow region"
    );
}

/// Hashes its inputs (one logged `sha1` op) and emits the digest.
struct HashPal;
impl NativePal for HashPal {
    fn run(&self, ctx: &mut PalContext<'_>) -> FlickerResult<()> {
        let inputs = ctx.inputs().to_vec();
        let digest = ctx.sha1(&inputs);
        ctx.write_output(&digest)
    }
}

#[test]
fn traced_session_has_one_span_per_phase_summing_to_total() {
    let mut os = test_os(34);
    let trace = flicker_trace::Trace::default();
    os.set_tracer(trace.clone());

    let slb = native_slb(b"hash-pal", HashPal);
    let rec = run_session(
        &mut os,
        &slb,
        &SessionParams::with_inputs(b"span me".to_vec()),
    )
    .unwrap();
    assert_eq!(rec.pal_result, Ok(()));

    let mut sum = Duration::ZERO;
    for name in PHASE_SPAN_NAMES {
        let spans = trace.spans_named(name);
        assert_eq!(spans.len(), 1, "exactly one {name} span");
        sum += spans[0].duration.expect("span closed");
    }
    assert_eq!(sum, rec.timings.total, "phases must account for the total");

    // Phase spans agree with the record's own timings.
    let t = &rec.timings;
    for (name, expect) in [
        ("phase.suspend", t.suspend),
        ("phase.skinit", t.skinit),
        ("phase.stub_measure", t.stub_measure),
        ("phase.pal", t.pal),
        ("phase.cleanup", t.cleanup),
        ("phase.resume", t.resume),
    ] {
        assert_eq!(trace.spans_named(name)[0].duration, Some(expect), "{name}");
    }

    // The PAL's logged op landed in the trace and in the typed op events.
    assert_eq!(trace.histogram("sha1").unwrap().count(), 1);
    assert_eq!(rec.ops.iter().filter(|e| e.name == "sha1").count(), 1);
    assert_eq!(rec.op_log().len(), rec.ops.len());

    // A second traced session appends another set of spans.
    run_session(&mut os, &slb, &SessionParams::default()).unwrap();
    assert_eq!(trace.spans_named("phase.pal").len(), 2);

    // Native payloads have nothing to statically verify: no verify span,
    // no verdict counters.
    assert!(trace.spans_named(flicker_core::VERIFY_SPAN_NAME).is_empty());
    assert_eq!(trace.counter(flicker_core::VERIFY_ACCEPT_COUNTER), 0);
}

#[test]
fn traced_bytecode_session_records_the_verifier_verdict() {
    use flicker_core::{
        ANALYZE_SPAN_NAME, CT_ACCEPT_COUNTER, CT_REJECT_COUNTER, VERIFY_ACCEPT_COUNTER,
        VERIFY_REJECT_COUNTER, VERIFY_SPAN_NAME,
    };

    let mut os = test_os(35);
    let trace = flicker_trace::Trace::default();
    os.set_tracer(trace.clone());

    // A verified program: accept counter, one verify span, one analyze
    // span (hello_world handles no secrets, so it is also ct-clean).
    let slb = SlbImage::build(
        PalPayload::Bytecode(flicker_palvm::progs::hello_world()),
        SlbOptions::default(),
    )
    .unwrap();
    let rec = run_session(&mut os, &slb, &SessionParams::default()).unwrap();
    assert_eq!(rec.pal_result, Ok(()));
    assert_eq!(trace.spans_named(VERIFY_SPAN_NAME).len(), 1);
    assert_eq!(trace.spans_named(ANALYZE_SPAN_NAME).len(), 1);
    assert_eq!(trace.counter(VERIFY_ACCEPT_COUNTER), 1);
    assert_eq!(trace.counter(VERIFY_REJECT_COUNTER), 0);
    assert_eq!(trace.counter(CT_ACCEPT_COUNTER), 1);
    assert_eq!(trace.counter(CT_REJECT_COUNTER), 0);

    // An unverifiable program smuggled past the builder: the rejection is
    // on the record even though the session still runs (and the run-time
    // defences contain it). An unbounded loop is a safety finding, not a
    // timing-channel one, so the ct counters still call it clean.
    let bad = SlbImage::build_unverified(
        PalPayload::Bytecode(flicker_palvm::assemble("loop: jmp loop").unwrap()),
        SlbOptions {
            fuel: Some(10_000),
            ..Default::default()
        },
    )
    .unwrap();
    let rec = run_session(&mut os, &bad, &SessionParams::default()).unwrap();
    assert!(rec.pal_result.is_err());
    assert_eq!(trace.spans_named(VERIFY_SPAN_NAME).len(), 2);
    assert_eq!(trace.counter(VERIFY_ACCEPT_COUNTER), 1);
    assert_eq!(trace.counter(VERIFY_REJECT_COUNTER), 1);
    assert_eq!(trace.counter(CT_ACCEPT_COUNTER), 2);
    assert_eq!(trace.counter(CT_REJECT_COUNTER), 0);

    // A secret-leaking program smuggled past the builder lands on the
    // ct-reject counter: the timing-channel verdict is separately visible.
    let leaky = SlbImage::build_unverified(
        PalPayload::Bytecode(flicker_palvm::progs::password_gate_leaky()),
        SlbOptions::default(),
    )
    .unwrap();
    run_session(&mut os, &leaky, &SessionParams::default()).unwrap();
    assert_eq!(trace.spans_named(ANALYZE_SPAN_NAME).len(), 3);
    assert_eq!(trace.counter(CT_ACCEPT_COUNTER), 2);
    assert_eq!(trace.counter(CT_REJECT_COUNTER), 1);
}

#[test]
fn traced_session_event_stream_audits_clean() {
    let mut os = test_os(36);
    let trace = flicker_trace::Trace::default();
    os.set_tracer(trace.clone());

    // A seal session then an unseal session: the unseal exercises the
    // auditor's strictest rule (TPM_Unseal only inside a measured PAL).
    let slb1 = native_slb(
        b"audited-pal",
        SealerPal {
            secret: b"flight-recorded secret".to_vec(),
        },
    );
    let r1 = run_session(&mut os, &slb1, &SessionParams::default()).unwrap();
    assert_eq!(r1.pal_result, Ok(()));
    let slb2 = native_slb(b"audited-pal", UnsealerPal);
    let r2 = run_session(&mut os, &slb2, &SessionParams::with_inputs(r1.outputs)).unwrap();
    assert_eq!(r2.pal_result, Ok(()));

    let events = trace.events();
    let names: Vec<_> = events.iter().map(|e| e.kind.name()).collect();
    assert_eq!(names.iter().filter(|n| **n == "session_start").count(), 2);
    assert_eq!(names.iter().filter(|n| **n == "session_end").count(), 2);
    assert!(matches!(
        events[0].kind,
        flicker_trace::EventKind::SessionStart { id: 1 }
    ));
    assert_eq!(
        names.iter().filter(|n| **n == "phase_start").count(),
        names.iter().filter(|n| **n == "phase_end").count(),
        "every phase start has a matching end"
    );
    assert!(
        names.contains(&"tpm_command"),
        "TPM traffic is on the record"
    );

    // The real driver's stream satisfies every Figure-2 / §4 invariant.
    assert_eq!(flicker_trace::audit::audit_events(&events), vec![]);
}
