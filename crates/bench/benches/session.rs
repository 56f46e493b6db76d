//! Criterion benchmarks for full Flicker sessions (host-side cost of the
//! simulation pipeline: SLB build, SKINIT semantics, PAL dispatch,
//! measurement chain, cleanup).

use criterion::{criterion_group, criterion_main, Criterion};
use flicker_core::{
    run_session, ExpectedSession, FlickerResult, NativePal, PalContext, PalPayload, SessionParams,
    SlbImage, SlbOptions, Verifier,
};
use flicker_crypto::rng::XorShiftRng;
use flicker_os::{Os, OsConfig};
use flicker_tpm::{PcrSelection, PrivacyCa};
use flicker_trace::{audit, Trace};
use std::sync::Arc;

struct EchoPal;
impl NativePal for EchoPal {
    fn run(&self, ctx: &mut PalContext<'_>) -> FlickerResult<()> {
        let data = ctx.inputs().to_vec();
        ctx.write_output(&data)
    }
}

fn native_slb() -> SlbImage {
    SlbImage::build(
        PalPayload::Native {
            identity: b"bench-echo-pal".to_vec(),
            program: Arc::new(EchoPal),
        },
        SlbOptions::default(),
    )
    .unwrap()
}

fn bench_session(c: &mut Criterion) {
    let mut os = Os::boot(OsConfig::fast_for_tests(1));
    let slb = native_slb();

    c.bench_function("session/native_echo", |b| {
        let params = SessionParams::with_inputs(b"ping".to_vec());
        b.iter(|| run_session(&mut os, &slb, &params).unwrap());
    });

    c.bench_function("session/native_echo_with_stub", |b| {
        let params = SessionParams {
            inputs: b"ping".to_vec(),
            use_hashing_stub: true,
            ..Default::default()
        };
        b.iter(|| run_session(&mut os, &slb, &params).unwrap());
    });

    let hello = SlbImage::build(
        PalPayload::Bytecode(flicker_palvm::progs::hello_world()),
        SlbOptions::default(),
    )
    .unwrap();
    c.bench_function("session/bytecode_hello_world", |b| {
        let params = SessionParams::default();
        b.iter(|| run_session(&mut os, &hello, &params).unwrap());
    });

    // The Table-1 detector on the kernel it was booted with: the first
    // iteration hashes the kernel, the rest find its digest kept.
    let detector = flicker_apps::detector_slb();
    let (kbase, klen) = os.kernel_region();
    let params = SessionParams {
        inputs: [kbase.to_le_bytes(), (klen as u64).to_le_bytes()].concat(),
        use_hashing_stub: true,
        ..Default::default()
    };
    c.bench_function("session/rootkit_detector", |b| {
        b.iter(|| run_session(&mut os, &detector, &params).unwrap());
    });

    c.bench_function("session/slb_build_and_measure", |b| {
        b.iter(|| {
            let slb = native_slb();
            slb.measurement(0x10_0000)
        });
    });
}

/// One stub-launched detector quote checked by a fresh verifier, which
/// hashes the 64 KB launch window and checks the AIK certificate, and by a
/// warm one that has kept both.
fn bench_verify(c: &mut Criterion) {
    let mut rng = XorShiftRng::new(1);
    let mut ca = PrivacyCa::new(512, &mut rng);
    let mut os = Os::boot(OsConfig::fast_for_tests(1));
    let cert = os
        .provision_attestation(&mut ca, "bench-host")
        .unwrap()
        .clone();
    let detector = flicker_apps::detector_slb();
    let (kbase, klen) = os.kernel_region();
    let params = SessionParams {
        inputs: [kbase.to_le_bytes(), (klen as u64).to_le_bytes()].concat(),
        use_hashing_stub: true,
        ..Default::default()
    };
    let session = run_session(&mut os, &detector, &params).unwrap();
    let quote = os.tqd_quote(params.nonce, &PcrSelection::pcr17()).unwrap();
    let kernel_hash: [u8; 20] = session.outputs.as_slice().try_into().unwrap();
    let expected = ExpectedSession {
        slb: &detector,
        slb_base: params.slb_base,
        inputs: &params.inputs,
        outputs: &session.outputs,
        nonce: params.nonce,
        used_hashing_stub: true,
    };
    // Each fresh verifier gets a clone of a key whose Montgomery context
    // is built, so the cold row pays for the two kept checks only.
    let ca_public = ca.public_key().clone();
    cert.verify(&ca_public).unwrap();
    let verify = |v: &Verifier| {
        v.verify_with_extends(&cert, &quote, &expected, &[kernel_hash])
            .unwrap()
    };
    c.bench_function("attest/verify_cold", |b| {
        b.iter(|| verify(&Verifier::new(ca_public.clone())));
    });
    let warm = Verifier::new(ca_public.clone());
    c.bench_function("attest/verify_warm", |b| b.iter(|| verify(&warm)));
}

/// The per-window audit of a storage-sized flight record: echo sessions
/// recorded until the ring holds the 37,500 events of a 1,000-session
/// replay-protected-storage window.
fn bench_audit(c: &mut Criterion) {
    let mut os = Os::boot(OsConfig::fast_for_tests(1));
    let slb = native_slb();
    let trace = Trace::new();
    os.set_tracer(trace.clone());
    let params = SessionParams::with_inputs(b"ping".to_vec());
    while trace.event_count() < 37_500 {
        run_session(&mut os, &slb, &params).unwrap();
    }
    c.bench_function("trace/audit_window", |b| {
        b.iter(|| audit::audit_trace(&trace));
    });
}

criterion_group!(benches, bench_session, bench_verify, bench_audit);
criterion_main!(benches);
