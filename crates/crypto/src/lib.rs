//! From-scratch cryptographic primitives for the Flicker reproduction.
//!
//! The Flicker paper (EuroSys 2008, Figure 6) ships a self-contained
//! "Crypto" module inside the PAL's TCB precisely because the TCB argument
//! depends on owning every line of security-relevant code. This crate plays
//! that role for the reproduction: every algorithm Flicker's applications
//! use is implemented here, with no external cryptography dependencies.
//!
//! Provided algorithms (mirroring the paper's module):
//!
//! * Hashes: [`sha1`], [`sha256`], [`sha512`], [`md5`]
//! * MACs: [`hmac`]
//! * Symmetric ciphers: [`aes`] (AES-128, ECB/CBC/CTR), [`rc4`]
//! * Multi-precision integers: [`mpint`], primality testing in [`prime`]
//! * RSA: [`rsa`] (keygen / raw ops), [`pkcs1`] (v1.5 padding, sign/verify)
//! * Password hashing: [`md5crypt`] (the `$1$` scheme used in `/etc/passwd`)
//! * Deterministic random generation: [`drbg`] (HMAC-DRBG per SP 800-90A)
//! * Utilities: [`hex`], constant-time comparison in [`ct`], and the bounded
//!   exact-key [`memo`] the measurement and verifier caches share
//!
//! These implementations favour clarity and auditability over speed, like
//! the original PAL libraries did, except on the measured host hot paths:
//! Montgomery exponentiation ([`montgomery`], a fixed-width multiply and a
//! dedicated square per limb width); the prime search's allocation-free
//! trial division ([`prime`]); the unrolled SHA-1, MD5 and SHA-256
//! compression functions; and the HMAC-DRBG ([`drbg`]), which
//! draws every simulated platform's kernel image and TPM keys and keys its
//! allocation-free HMAC once per request. All four hashes share one block
//! buffer and padding routine ([`digest`]). They are validated against
//! published test vectors in each module's unit tests.

pub mod aes;
pub mod cost;
pub mod ct;
pub mod digest;
pub mod drbg;
pub mod hex;
pub mod hmac;
pub mod md5;
pub mod md5crypt;
pub mod memo;
pub mod montgomery;
pub mod mpint;
pub mod pkcs1;
pub mod prime;
pub mod rc4;
pub mod rng;
pub mod rsa;
pub mod sha1;
pub mod sha256;
pub mod sha512;

pub use ct::{ct_eq, ct_eq_examined};
pub use drbg::HmacDrbg;
pub use mpint::Mpint;
pub use rng::CryptoRng;
pub use rsa::{RsaPrivateKey, RsaPublicKey};

/// Errors produced by cryptographic operations in this crate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CryptoError {
    /// An input buffer had an invalid length for the requested operation.
    InvalidLength {
        /// What the operation expected.
        expected: usize,
        /// What it was given.
        actual: usize,
    },
    /// A padding check failed (PKCS#1, CBC, ...).
    BadPadding,
    /// A ciphertext or signature failed verification.
    VerificationFailed,
    /// A message was too large for the key or mode in use.
    MessageTooLong,
    /// Key generation could not find suitable parameters.
    KeyGeneration(&'static str),
    /// A value was out of the range required by the algorithm.
    OutOfRange(&'static str),
    /// Hex or other encoding input could not be parsed.
    Encoding(&'static str),
}

impl core::fmt::Display for CryptoError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CryptoError::InvalidLength { expected, actual } => {
                write!(f, "invalid length: expected {expected}, got {actual}")
            }
            CryptoError::BadPadding => write!(f, "bad padding"),
            CryptoError::VerificationFailed => write!(f, "verification failed"),
            CryptoError::MessageTooLong => write!(f, "message too long"),
            CryptoError::KeyGeneration(s) => write!(f, "key generation failed: {s}"),
            CryptoError::OutOfRange(s) => write!(f, "value out of range: {s}"),
            CryptoError::Encoding(s) => write!(f, "encoding error: {s}"),
        }
    }
}

impl std::error::Error for CryptoError {}
