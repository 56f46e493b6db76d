//! Flat physical memory.

use crate::clock::SimClock;
use crate::error::{MachineError, MachineResult};
use flicker_crypto::memo::Memo;
use flicker_crypto::sha1::sha1;
use flicker_faults::{fired, FaultInjector};
use flicker_trace::{EventKind, Trace};

/// Most digests [`PhysMemory::sha1`] keeps.
const DIGEST_MEMO_CAP: usize = 4;

/// The platform's physical RAM, addressed from 0.
#[derive(Debug, Clone)]
pub struct PhysMemory {
    bytes: Vec<u8>,
    /// Physical range → SHA-1 of its bytes, each kept until a store
    /// overlaps the range ([`PhysMemory::sha1`]).
    digests: Memo<std::ops::Range<usize>, [u8; 20], DIGEST_MEMO_CAP>,
    injector: Option<FaultInjector>,
    tracer: Option<Trace>,
    clock: Option<SimClock>,
}

impl PhysMemory {
    /// Installs `size` bytes of zeroed RAM.
    pub fn new(size: usize) -> Self {
        PhysMemory {
            bytes: vec![0u8; size],
            digests: Memo::default(),
            injector: None,
            tracer: None,
            clock: None,
        }
    }

    /// Shares the platform clock so flight-recorder events carry real
    /// virtual timestamps; without it they are stamped `Duration::ZERO`.
    pub fn set_clock(&mut self, clock: SimClock) {
        self.clock = Some(clock);
    }

    fn now(&self) -> std::time::Duration {
        self.clock.as_ref().map(SimClock::now).unwrap_or_default()
    }

    /// Installs a fault injector; subsequent stores consult its gate.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.injector = Some(injector);
    }

    /// Removes any installed fault injector.
    pub fn clear_fault_injector(&mut self) {
        self.injector = None;
    }

    /// Installs a tracer; stores and erasures bump `mem.*` byte counters.
    pub fn set_tracer(&mut self, tracer: Trace) {
        self.tracer = Some(tracer);
    }

    /// Removes any installed tracer.
    pub fn clear_tracer(&mut self) {
        self.tracer = None;
    }

    /// Installed RAM size.
    pub fn size(&self) -> usize {
        self.bytes.len()
    }

    fn range(&self, addr: u64, len: usize) -> MachineResult<std::ops::Range<usize>> {
        let start =
            usize::try_from(addr).map_err(|_| MachineError::PhysOutOfBounds { addr, len })?;
        let end = start
            .checked_add(len)
            .filter(|&e| e <= self.bytes.len())
            .ok_or(MachineError::PhysOutOfBounds { addr, len })?;
        Ok(start..end)
    }

    /// Reads `len` bytes at `addr`.
    pub fn read(&self, addr: u64, len: usize) -> MachineResult<&[u8]> {
        let r = self.range(addr, len)?;
        Ok(&self.bytes[r])
    }

    /// SHA-1 of `len` bytes at `addr`, hashed in place and kept until
    /// [`PhysMemory::write`] or [`PhysMemory::zeroize`] (the only stores)
    /// overlaps the range. Callers charge the simulated hashing time.
    pub fn sha1(&mut self, addr: u64, len: usize) -> MachineResult<[u8; 20]> {
        let r = self.range(addr, len)?;
        let bytes = &self.bytes[r.clone()];
        Ok(self.digests.get_or_insert_with(&r, || sha1(bytes)).0)
    }

    /// Drops every kept digest whose range overlaps the store `r`.
    fn invalidate(&mut self, r: &std::ops::Range<usize>) {
        self.digests
            .retain(|k| k.end <= r.start || r.end <= k.start);
    }

    /// Writes `data` at `addr`.
    pub fn write(&mut self, addr: u64, data: &[u8]) -> MachineResult<()> {
        let r = self.range(addr, data.len())?;
        if let Some(inj) = &self.injector {
            if inj.mem_write_fault(addr) {
                if let Some(t) = &self.tracer {
                    t.event(
                        self.now(),
                        EventKind::FaultInjected {
                            fault: fired::MEM_WRITE.to_string(),
                        },
                    );
                }
                return Err(MachineError::MemWriteFault { addr });
            }
        }
        self.invalidate(&r);
        self.bytes[r].copy_from_slice(data);
        if let Some(t) = &self.tracer {
            t.counter_add("mem.write_bytes", data.len() as u64);
        }
        Ok(())
    }

    /// Overwrites `len` bytes at `addr` with zeroes (the SLB Core's cleanup
    /// phase erasing PAL secrets, paper §4.2).
    ///
    /// Deliberately not subject to memory-write faults: erasure is the one
    /// store the recovery paths themselves rely on, and a real `rep stosb`
    /// sweep either completes or the power-loss fault model applies instead.
    pub fn zeroize(&mut self, addr: u64, len: usize) -> MachineResult<()> {
        let r = self.range(addr, len)?;
        self.invalidate(&r);
        self.bytes[r].fill(0);
        if let Some(t) = &self.tracer {
            t.event(
                self.now(),
                EventKind::Zeroize {
                    base: addr,
                    len: len as u64,
                },
            );
        }
        Ok(())
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> MachineResult<u8> {
        Ok(self.read(addr, 1)?[0])
    }

    /// Reads a little-endian u16 (the SLB header fields are 16-bit words,
    /// paper §2.4).
    pub fn read_u16_le(&self, addr: u64) -> MachineResult<u16> {
        let b = self.read(addr, 2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    /// Reads a little-endian u32.
    pub fn read_u32_le(&self, addr: u64) -> MachineResult<u32> {
        let b = self.read(addr, 4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Writes a little-endian u32.
    pub fn write_u32_le(&mut self, addr: u64, v: u32) -> MachineResult<()> {
        self.write(addr, &v.to_le_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flicker_crypto::sha1::sha1;

    #[test]
    fn read_write_round_trip() {
        let mut m = PhysMemory::new(1024);
        m.write(100, &[1, 2, 3]).unwrap();
        assert_eq!(m.read(100, 3).unwrap(), &[1, 2, 3]);
        assert_eq!(m.read(99, 1).unwrap(), &[0]);
    }

    #[test]
    fn out_of_bounds_detected() {
        let mut m = PhysMemory::new(16);
        assert!(matches!(
            m.read(16, 1),
            Err(MachineError::PhysOutOfBounds { .. })
        ));
        assert!(matches!(
            m.write(14, &[0; 3]),
            Err(MachineError::PhysOutOfBounds { .. })
        ));
        // Boundary access is fine.
        m.write(13, &[0; 3]).unwrap();
    }

    #[test]
    fn overflow_addresses_rejected() {
        let m = PhysMemory::new(16);
        assert!(m.read(u64::MAX, 1).is_err());
        assert!(m.read(u64::MAX - 10, 20).is_err());
    }

    #[test]
    fn zeroize_erases() {
        let mut m = PhysMemory::new(64);
        m.write(0, &[0xAA; 64]).unwrap();
        m.zeroize(8, 16).unwrap();
        assert_eq!(m.read(0, 8).unwrap(), &[0xAA; 8]);
        assert_eq!(m.read(8, 16).unwrap(), &[0u8; 16]);
        assert_eq!(m.read(24, 8).unwrap(), &[0xAA; 8]);
    }

    #[test]
    fn write_fault_leaves_memory_untouched() {
        use flicker_faults::{Fault, FaultInjector, FaultPlan};
        let mut m = PhysMemory::new(64);
        m.set_fault_injector(FaultInjector::new(&FaultPlan::one(Fault::MemWriteFault {
            skip: 1,
        })));
        m.write(0, &[1, 2, 3]).unwrap();
        assert_eq!(
            m.write(8, &[9, 9, 9]),
            Err(MachineError::MemWriteFault { addr: 8 })
        );
        assert_eq!(m.read(8, 3).unwrap(), &[0, 0, 0], "store dropped whole");
        m.write(8, &[9, 9, 9]).unwrap();
        // Zeroize is never faulted.
        m.zeroize(0, 64).unwrap();
    }

    /// SHA-1 compressions `f` runs on this thread.
    fn compressions<T>(f: impl FnOnce() -> T) -> u64 {
        let before = flicker_crypto::cost::snapshot();
        std::hint::black_box(f());
        flicker_crypto::cost::snapshot()
            .since(&before)
            .sha1_compress
    }

    /// 1 KB of `0x5A` with the digest of `[256, 768)` kept.
    fn hashed() -> (PhysMemory, [u8; 20]) {
        let mut m = PhysMemory::new(1024);
        m.write(0, &[0x5A; 1024]).unwrap();
        let digest = m.sha1(256, 512).unwrap();
        assert_eq!(digest, sha1(m.read(256, 512).unwrap()));
        (m, digest)
    }

    #[test]
    fn sha1_keeps_the_digest_across_stores_beside_the_range() {
        let (mut m, digest) = hashed();
        m.write(255, &[1]).unwrap();
        m.write(768, &[1]).unwrap();
        m.zeroize(0, 256).unwrap();
        m.zeroize(768, 256).unwrap();
        assert_eq!(compressions(|| m.sha1(256, 512).unwrap()), 0);
        assert_eq!(m.sha1(256, 512).unwrap(), digest);
    }

    #[test]
    fn a_store_to_the_first_or_last_byte_drops_the_digest() {
        for addr in [256, 767] {
            let (mut m, _) = hashed();
            m.write(addr, &[0xA5]).unwrap();
            let fresh = sha1(m.read(256, 512).unwrap());
            assert_eq!(m.sha1(256, 512).unwrap(), fresh, "write at {addr}");

            let (mut m, _) = hashed();
            m.zeroize(addr, 1).unwrap();
            let fresh = sha1(m.read(256, 512).unwrap());
            assert_eq!(m.sha1(256, 512).unwrap(), fresh, "zeroize at {addr}");
        }
    }

    #[test]
    fn a_dropped_store_keeps_the_digest() {
        use flicker_faults::{Fault, FaultInjector, FaultPlan};
        let (mut m, digest) = hashed();
        m.set_fault_injector(FaultInjector::new(&FaultPlan::one(Fault::MemWriteFault {
            skip: 0,
        })));
        assert!(m.write(300, &[0xA5]).is_err());
        assert_eq!(compressions(|| m.sha1(256, 512).unwrap()), 0);
        assert_eq!(m.sha1(256, 512).unwrap(), digest);
    }

    #[test]
    fn sha1_checks_the_range_like_read() {
        let mut m = PhysMemory::new(16);
        assert!(matches!(
            m.sha1(8, 9),
            Err(MachineError::PhysOutOfBounds { addr: 8, len: 9 })
        ));
        assert!(m.sha1(u64::MAX, 1).is_err());
        assert_eq!(m.sha1(16, 0).unwrap(), sha1(&[]));
    }

    #[test]
    fn digest_memo_is_bounded_and_most_recent_first() {
        let mut m = PhysMemory::new(1024);
        for i in 0..DIGEST_MEMO_CAP as u64 {
            m.sha1(i * 64, 64).unwrap();
        }
        assert_eq!(compressions(|| m.sha1(0, 64).unwrap()), 0);
        m.sha1(512, 64).unwrap();
        assert_eq!(compressions(|| m.sha1(0, 64).unwrap()), 0, "refreshed");
        assert!(compressions(|| m.sha1(64, 64).unwrap()) > 0, "evicted");
    }

    #[test]
    fn scalar_accessors() {
        let mut m = PhysMemory::new(64);
        m.write(0, &[0x34, 0x12]).unwrap();
        assert_eq!(m.read_u16_le(0).unwrap(), 0x1234);
        m.write_u32_le(4, 0xdeadbeef).unwrap();
        assert_eq!(m.read_u32_le(4).unwrap(), 0xdeadbeef);
        assert_eq!(m.read_u8(4).unwrap(), 0xef);
    }
}
