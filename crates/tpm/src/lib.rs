//! Software TPM v1.2 for the Flicker reproduction.
//!
//! The paper's entire security argument rests on four TPM v1.2 facilities
//! (paper §2):
//!
//! 1. **PCRs with dynamic-reset semantics** ([`pcr`]) — PCR 17 can only be
//!    reset by the CPU's locality-4 `SKINIT` path, so its value proves a
//!    late launch happened and *which* code was launched.
//! 2. **Quote** ([`quote`]) — AIK-signed attestation of PCR contents.
//! 3. **Sealed storage** ([`seal`]) — secrets released only to the PCR
//!    configuration named at seal time.
//! 4. **NV storage and monotonic counters** ([`nv`], [`counter`]) — the
//!    building blocks for replay-protected sealed storage (paper §4.3.2).
//!
//! Plus the [`auth`] (OIAP/OSAP) sessions that authorize Seal/Unseal and
//! the [`keys`] hierarchy (EK/SRK/AIK + Privacy CA).
//!
//! Because no TPM hardware is available (see DESIGN.md), the chip is
//! simulated: logical behaviour follows the v1.2 spec subset Flicker uses,
//! and every command charges its hardware latency from a calibrated
//! [`timing::TpmTimingProfile`] (Broadcom BCM0102 and Infineon profiles
//! taken from the paper's measurements) into an accumulator the platform
//! drains via [`Tpm::take_elapsed`].

pub mod auth;
pub mod counter;
pub mod error;
pub mod eventlog;
pub mod keys;
pub mod nv;
pub mod pcr;
pub mod quote;
pub mod seal;
pub mod timing;
pub mod tis;
mod tpm;

pub use auth::{AuthData, ClientSession, CommandAuth, Nonce, ResponseAuth, WELL_KNOWN_AUTH};
pub use error::{TpmError, TpmResult};
pub use eventlog::{EventLog, LogEvent};
pub use keys::{AikCertificate, PrivacyCa};
pub use nv::NvPcrPolicy;
pub use pcr::{composite_hash_of, PcrBank, PcrSelection, PcrValue, NUM_PCRS, PCR_SKINIT};
pub use quote::TpmQuote;
pub use seal::SealedBlob;
pub use timing::TpmTimingProfile;
pub use tis::TpmDriver;
pub use tpm::{Tpm, TpmConfig, MAX_AUTH_SESSIONS};
