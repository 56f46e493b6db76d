//! Simulated AMD SVM platform for the Flicker reproduction.
//!
//! Stands in for the paper's hardware (an HP dc5750: dual-core Athlon64 X2
//! with SVM extensions, v1.2 TPM on the LPC bus — §7.1). The crate models
//! exactly the architectural behaviour Flicker's TCB argument rests on
//! (paper §2.4, §3.1, §4.2):
//!
//! * [`machine::Machine::skinit`] — the late launch: privileged-instruction
//!   and BSP/AP-handshake checks, DEV protection of the SLB, interrupt and
//!   debug disablement, dynamic PCR reset + SLB measurement into PCR 17,
//!   entry into flat 32-bit protected mode.
//! * [`dev`] — the Device Exclusion Vector filtering all device DMA.
//! * [`cpu`] — privilege rings, BSP/AP states, INIT IPI handshake.
//! * [`seg`] — GDT/segment translation with limit and ring checks (the
//!   mechanism behind both PAL relocation and the OS-Protection module).
//! * [`clock`] / [`skinit`] / [`cpumodel`] — the virtual clock and the
//!   latency models calibrated from the paper's Tables 1–2 and Figure 9.

pub mod clock;
pub mod cpu;
pub mod cpumodel;
pub mod dev;
pub mod error;
pub mod machine;
pub mod memory;
pub mod retry;
pub mod seg;
pub mod skinit;

pub use clock::{SimClock, Stopwatch};
pub use cpu::{Core, CoreState, CpuComplex, CpuMode};
pub use cpumodel::CpuCostModel;
pub use dev::{DevProtection, DeviceExclusionVector, PAGE_SIZE};
pub use error::{MachineError, MachineResult};
pub use machine::{ActiveSkinit, Machine, MachineConfig, TPM_RETRY_BACKOFF};
pub use memory::PhysMemory;
pub use retry::RetryPolicy;
pub use seg::{pal_segments, CallGate, Gdt, SegmentDescriptor, SegmentKind};
pub use skinit::{SkinitCostModel, SLB_MAX_LEN};
