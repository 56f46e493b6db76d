//! Criterion benchmarks for the from-scratch crypto substrate.
//!
//! These measure *host* wall-clock performance of this reproduction's
//! implementations (the paper's Crypto module equivalent), independent of
//! the simulation's virtual clock.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use flicker_crypto::aes::Aes128;
use flicker_crypto::drbg::HmacDrbg;
use flicker_crypto::hmac::Hmac;
use flicker_crypto::md5::md5;
use flicker_crypto::md5crypt::md5crypt;
use flicker_crypto::montgomery::MontgomeryCtx;
use flicker_crypto::mpint::Mpint;
use flicker_crypto::pkcs1;
use flicker_crypto::prime::generate_prime;
use flicker_crypto::rng::XorShiftRng;
use flicker_crypto::rsa::{RsaPrivateKey, MR_ROUNDS};
use flicker_crypto::sha1::{sha1, Sha1};
use flicker_crypto::sha256::{sha256, Sha256};

fn bench_hashes(c: &mut Criterion) {
    let mut g = c.benchmark_group("sha1");
    for size in [64usize, 4096, 65536] {
        let data = vec![0xABu8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, d| {
            b.iter(|| sha1(d));
        });
    }
    g.finish();

    // The HMAC-DRBG's hash, which draws every platform's kernel and keys.
    let mut g = c.benchmark_group("sha256");
    for size in [64usize, 4096, 65536] {
        let data = vec![0xABu8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, d| {
            b.iter(|| sha256(d));
        });
    }
    g.finish();

    // §7.5's integrity check and the inner hash of md5crypt.
    let mut g = c.benchmark_group("md5");
    for size in [64usize, 4096, 65536] {
        let data = vec![0xABu8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, d| {
            b.iter(|| md5(d));
        });
    }
    g.finish();
}

fn bench_symmetric(c: &mut Criterion) {
    let aes = Aes128::new(&[7u8; 16]);
    let mut g = c.benchmark_group("aes128_cbc");
    for size in [256usize, 4096] {
        let data = vec![1u8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_with_input(BenchmarkId::from_parameter(size), &data, |b, d| {
            b.iter(|| aes.cbc_encrypt(&[0u8; 16], d));
        });
    }
    g.finish();

    c.bench_function("hmac_sha1/1k", |b| {
        let data = vec![2u8; 1024];
        b.iter(|| Hmac::<Sha1>::mac(b"state-mac-key", &data));
    });

    // One authorization-session HMAC: the 61-byte message (paramDigest ‖
    // nonceEven ‖ nonceOdd ‖ continueAuthSession) under a 20-byte session
    // key, from a kept keyed state as the TPM's sessions compute it, and
    // with the key schedule built afresh.
    let message = [3u8; 61];
    let keyed = Hmac::<Sha1>::new(&[4u8; 20]);
    c.bench_function("hmac_sha1/auth_keyed", |b| {
        b.iter(|| {
            let mut h = keyed.clone();
            h.update(&message);
            let mut tag = [0u8; 20];
            h.finalize_into(&mut tag);
            tag
        });
    });
    c.bench_function("hmac_sha1/auth_fresh_key", |b| {
        b.iter(|| {
            let mut h = Hmac::<Sha1>::new(&[4u8; 20]);
            h.update(&message);
            let mut tag = [0u8; 20];
            h.finalize_into(&mut tag);
            tag
        });
    });

    c.bench_function("md5crypt", |b| {
        b.iter(|| md5crypt(b"hunter2", b"fl1ck3r"));
    });
}

/// The TPM's random number generator: one HMAC-DRBG block with its key
/// set-up, then whole draws of a 20-byte nonce and of the 2 MB text of
/// the evaluation kernel.
fn bench_drbg(c: &mut Criterion) {
    c.bench_function("hmac_sha256/32", |b| {
        let v = [1u8; 32];
        b.iter(|| Hmac::<Sha256>::mac(&[2u8; 32], &v));
    });

    let mut g = c.benchmark_group("drbg/generate");
    for size in [20usize, 2_000_000] {
        let mut drbg = HmacDrbg::new(b"bench-entropy", b"bench-nonce");
        let mut out = vec![0u8; size];
        g.throughput(Throughput::Bytes(size as u64));
        g.bench_function(&size.to_string(), |b| {
            b.iter(|| {
                drbg.generate(&mut out);
                out[0]
            });
        });
    }
    g.finish();
}

fn bench_rsa(c: &mut Criterion) {
    let mut rng = XorShiftRng::new(1);
    let (key, _) = RsaPrivateKey::generate(1024, &mut rng);
    let sig = pkcs1::sign(&key, b"certificate").unwrap();
    let ct = pkcs1::encrypt(key.public_key(), b"password+nonce", &mut rng).unwrap();

    c.bench_function("rsa1024/sign", |b| {
        b.iter(|| pkcs1::sign(&key, b"certificate").unwrap());
    });
    c.bench_function("rsa1024/verify", |b| {
        b.iter(|| pkcs1::verify(key.public_key(), b"certificate", &sig).unwrap());
    });
    c.bench_function("rsa1024/decrypt", |b| {
        b.iter(|| pkcs1::decrypt(&key, &ct).unwrap());
    });
    c.bench_function("rsa512/keygen", |b| {
        let mut rng = XorShiftRng::new(99);
        b.iter(|| RsaPrivateKey::generate(512, &mut rng));
    });
    // The size PALs generate (Figure 9a).
    c.bench_function("rsa1024/keygen", |b| {
        let mut rng = XorShiftRng::new(99);
        b.iter(|| RsaPrivateKey::generate(1024, &mut rng));
    });
    // The TPM's default key size.
    let (key2048, _) = RsaPrivateKey::generate(2048, &mut XorShiftRng::new(2));
    c.bench_function("rsa2048/sign", |b| {
        b.iter(|| pkcs1::sign(&key2048, b"certificate").unwrap());
    });
}

fn bench_mpint(c: &mut Criterion) {
    let m = Mpint::from_hex(&"f".repeat(256)).unwrap(); // 1024-bit odd modulus
    let base = Mpint::from(65537u64);
    let exp = Mpint::from_hex(&"a".repeat(64)).unwrap(); // 256-bit exponent
                                                         // Ablation: Montgomery (the default for odd moduli) vs the
                                                         // division-based reference.
    c.bench_function("mpint/modexp_1024_montgomery", |b| {
        b.iter(|| base.mod_exp(&exp, &m));
    });
    c.bench_function("mpint/modexp_1024_division", |b| {
        b.iter(|| base.mod_exp_plain(&exp, &m));
    });

    // One Miller–Rabin round on an RSA-1024 prime candidate: a 511-bit
    // exponent by a 512-bit modulus, 644 Montgomery products on a context
    // built once, as the prime search keeps one per candidate.
    let mut rng = XorShiftRng::new(3);
    let mut m512 = Mpint::random_bits(&mut rng, 512);
    m512.set_bit(0);
    let ctx512 = MontgomeryCtx::new(&m512).unwrap();
    let base512 = Mpint::random_below(&mut rng, &m512);
    let exp511 = Mpint::random_bits(&mut rng, 511);
    c.bench_function("mpint/modexp_512", |b| {
        b.iter(|| ctx512.mod_exp(&base512, &exp511));
    });
    // One RSA-1024 prime: the trial-division sieve plus Miller–Rabin.
    c.bench_function("prime/generate_512", |b| {
        let mut rng = XorShiftRng::new(98);
        b.iter(|| generate_prime(512, MR_ROUNDS, &mut rng));
    });

    let a = Mpint::from_hex(&"c".repeat(256)).unwrap();
    let d = Mpint::from_hex(&"7".repeat(128)).unwrap();
    c.bench_function("mpint/div_rem_1024_by_512", |b| {
        b.iter(|| a.div_rem(&d));
    });
    // Per-modulus set-up that every uncached `Mpint::mod_exp` pays.
    c.bench_function("mpint/montgomery_ctx_new_1024", |b| {
        b.iter(|| MontgomeryCtx::new(&m));
    });
}

criterion_group!(
    benches,
    bench_hashes,
    bench_symmetric,
    bench_drbg,
    bench_rsa,
    bench_mpint
);
criterion_main!(benches);
