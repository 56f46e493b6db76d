//! Property-based tests for the machine substrate's isolation primitives.

use flicker_crypto::sha1::sha1;
use flicker_faults::{Fault, FaultInjector, FaultPlan};
use flicker_machine::{
    DeviceExclusionVector, Machine, MachineConfig, PhysMemory, SegmentDescriptor, SegmentKind,
    PAGE_SIZE,
};
use proptest::prelude::*;

/// The ranges the digest-memo property hashes: one more than the memo
/// keeps, nested (`[32, 48)` in `[16, 80)`), overlapping (`[48, 112)`)
/// and adjacent (`[0, 16)`, `[80, 112)`).
const HASHED: [(u64, usize); 5] = [(16, 64), (32, 16), (80, 32), (0, 16), (48, 64)];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The DEV blocks every byte of a protected range (rounded to pages)
    /// and nothing after release.
    #[test]
    fn dev_protection_is_exact_and_reversible(
        addr in 0u64..(1 << 24),
        len in 1u64..(1 << 16),
        probe in 0u64..(1 << 24),
    ) {
        let mut dev = DeviceExclusionVector::new();
        let token = dev.protect(addr, len);
        let first_page = addr / PAGE_SIZE;
        let last_page = (addr + len - 1) / PAGE_SIZE;
        let probe_page = probe / PAGE_SIZE;
        let should_block = (first_page..=last_page).contains(&probe_page);
        prop_assert_eq!(dev.check(probe, 1).is_err(), should_block);
        dev.release(token);
        prop_assert!(dev.check(probe, 1).is_ok());
    }

    /// Overlapping protections: an access is blocked iff at least one
    /// active protection covers it.
    #[test]
    fn dev_overlaps_compose(
        ranges in proptest::collection::vec((0u64..(1<<20), 1u64..(1<<12)), 1..6),
        probe in 0u64..(1 << 20),
    ) {
        let mut dev = DeviceExclusionVector::new();
        for &(a, l) in &ranges {
            dev.protect(a, l);
        }
        let probe_page = probe / PAGE_SIZE;
        let covered = ranges.iter().any(|&(a, l)| {
            let fp = a / PAGE_SIZE;
            let lp = (a + l - 1) / PAGE_SIZE;
            (fp..=lp).contains(&probe_page)
        });
        prop_assert_eq!(dev.check(probe, 1).is_err(), covered);
    }

    /// Segment translation never produces an address outside
    /// `[base, base + limit]`, for any offset/length the check accepts.
    #[test]
    fn segment_translation_stays_in_bounds(
        base in 0u64..(1 << 32),
        limit in 0u32..(1 << 20),
        offset in any::<u32>(),
        len in 1u32..4096,
    ) {
        let seg = SegmentDescriptor {
            base,
            limit,
            dpl: 3,
            kind: SegmentKind::Data,
        };
        match seg.translate(offset, len, 3) {
            Ok(phys) => {
                prop_assert!(phys >= base);
                prop_assert!(phys + len as u64 - 1 <= base + limit as u64);
            }
            Err(_) => {
                // Rejection must only happen when the access would exceed
                // the limit (or overflow).
                let end = offset.checked_add(len - 1);
                prop_assert!(end.is_none() || end.unwrap() > limit);
            }
        }
    }

    /// Ring-3 access through ring-3 descriptors succeeds within limits;
    /// ring-3 access through ring-0 descriptors always faults.
    #[test]
    fn privilege_check_is_total(offset in 0u32..1024, dpl in 0u8..=3, cpl in 0u8..=3) {
        let seg = SegmentDescriptor {
            base: 0,
            limit: 4095,
            dpl,
            kind: SegmentKind::Data,
        };
        let r = seg.translate(offset, 1, cpl);
        prop_assert_eq!(r.is_ok(), cpl <= dpl);
    }

    /// Physical memory: a write is visible exactly where it was written.
    #[test]
    fn memory_write_is_local(
        addr in 0u64..4000,
        data in proptest::collection::vec(any::<u8>(), 1..64),
        probe in 0u64..4096,
    ) {
        let mut m = PhysMemory::new(4096);
        prop_assume!(addr as usize + data.len() <= 4096);
        m.write(addr, &data).unwrap();
        let v = m.read_u8(probe).unwrap();
        if probe >= addr && probe < addr + data.len() as u64 {
            prop_assert_eq!(v, data[(probe - addr) as usize]);
        } else {
            prop_assert_eq!(v, 0);
        }
    }

    /// Every digest `PhysMemory::sha1` returns is the SHA-1 of the bytes
    /// there now, whatever stores ran since it was kept: plain,
    /// fault-dropped and device writes, erasures and power cycles, of one
    /// or two bytes on either side of a 16-byte boundary or of a whole
    /// 16-byte cell, so stores touch, nest in and abut the hashed ranges.
    #[test]
    fn kept_digests_match_the_current_bytes(
        ops in proptest::collection::vec(
            (0u8..8, 0u64..8, 0u64..3, 0usize..3, any::<u8>()),
            1..64,
        ),
    ) {
        let mut m = Machine::new(MachineConfig {
            mem_size: 256,
            ..MachineConfig::fast_for_tests(1)
        });
        for &(kind, cell, nudge, size, fill) in &ops {
            let addr = (cell * 16 + nudge).saturating_sub(1);
            let data = vec![fill; [1, 2, 16][size]];
            match kind {
                0 => m.memory_mut().write(addr, &data).unwrap(),
                1 => {
                    m.set_fault_injector(FaultInjector::new(&FaultPlan::one(
                        Fault::MemWriteFault { skip: 0 },
                    )));
                    prop_assert!(m.memory_mut().write(addr, &data).is_err());
                    m.clear_fault_injector();
                }
                2 => m.memory_mut().zeroize(addr, data.len()).unwrap(),
                3 => m.dma_write(addr, &data).unwrap(),
                4 if fill < 64 => m.power_cycle(),
                _ => {
                    let (a, len) = HASHED[fill as usize % HASHED.len()];
                    let digest = m.memory_mut().sha1(a, len).unwrap();
                    prop_assert_eq!(digest, sha1(m.memory().read(a, len).unwrap()));
                }
            }
        }
    }

    /// Zeroize erases exactly the requested range.
    #[test]
    fn zeroize_is_exact(start in 0usize..512, len in 0usize..512) {
        let mut m = PhysMemory::new(1024);
        m.write(0, &[0xAA; 1024]).unwrap();
        prop_assume!(start + len <= 1024);
        m.zeroize(start as u64, len).unwrap();
        let all = m.read(0, 1024).unwrap();
        for (i, &b) in all.iter().enumerate() {
            if i >= start && i < start + len {
                prop_assert_eq!(b, 0, "inside range at {}", i);
            } else {
                prop_assert_eq!(b, 0xAA, "outside range at {}", i);
            }
        }
    }
}
