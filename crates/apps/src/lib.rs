//! The four Flicker applications from the paper's §6.
//!
//! * [`rootkit`] — stateless: a remotely-attested kernel rootkit detector
//!   (§6.1, Table 1).
//! * [`distcomp`] — integrity-protected state: BOINC-style distributed
//!   computing with HMAC-protected work-unit state across sessions (§6.2,
//!   Table 4, Figure 8).
//! * [`ssh`] — secret + integrity-protected state: SSH password handling
//!   where the cleartext password exists on the server only inside a PAL
//!   (§6.3.1, Figure 7, Figure 9).
//! * [`ca`] — secret + integrity-protected state: a certificate authority
//!   whose signing key only a PAL ever touches (§6.3.2).
//!
//! [`drivers`] holds one end-to-end run of each, plus a replay-protected
//! storage workload (§4.3.2), for the harnesses that drive them all: the
//! fault sweep, the farm and the perf baseline.

pub mod ca;
pub mod distcomp;
pub mod drivers;
pub mod rootkit;
pub mod ssh;

pub use ca::{Certificate, Csr, FlickerCa, IssuancePolicy, SigningReport};
pub use distcomp::{
    flicker_efficiency, replication_efficiency, Assignment, BoincClient, BoincServer, JobState,
    SliceReport, WorkUnit,
};
pub use drivers::AppKind;
pub use rootkit::{detector_slb, known_good_hash, Administrator, DetectionReport};
pub use ssh::{LoginOutcome, PasswdEntry, SetupTranscript, SshClient, SshServer};
