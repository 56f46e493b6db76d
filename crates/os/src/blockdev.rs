//! Block-device transfers under OS suspension (paper §7.5).
//!
//! While a Flicker session runs, the OS is suspended with interrupts
//! disabled — the paper's stated "most significant risk to a system during
//! a Flicker session is lost data in a transfer involving a block device".
//! Their experiment copies large files between CD-ROM, hard drive, and USB
//! while 8.3 s sessions run back-to-back with ~37 ms OS windows, and finds
//! zero integrity errors, because block protocols are **host-paced**: a
//! drive simply waits when the host stops issuing requests.
//!
//! This module models a streaming copy through a device with a finite
//! buffer. Host-paced devices stall (losing time, never data); a
//! free-running device (failure injection: think an isochronous capture
//! stream) overflows its buffer during long suspensions and corrupts the
//! copy — exactly the risk §7.5 warns about and why Flicker-aware drivers
//! are future work.
//!
//! The paper checks each copy with `md5sum`. Every source byte here is a
//! function of its offset alone, so the destination's digest equals the
//! source's exactly when it received the offsets `0..total` once each, in
//! order; the model checks that order directly instead of generating and
//! hashing the bytes.

use std::collections::VecDeque;
use std::time::Duration;

/// Flow-control behaviour of the data source.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pacing {
    /// The host paces transfers (IDE/SATA/USB bulk): production stalls
    /// while the OS is suspended.
    HostPaced,
    /// The source free-runs (isochronous/streaming capture): data keeps
    /// arriving into the device buffer regardless of the host.
    FreeRunning,
}

/// Configuration of one modelled copy.
#[derive(Debug, Clone)]
pub struct CopyConfig {
    /// Total bytes to copy.
    pub total_bytes: u64,
    /// Source throughput in bytes per second (e.g. 20 MB/s for the
    /// dc5750-era hard drive).
    pub rate: u64,
    /// Device-side buffer capacity in bytes.
    pub buffer_capacity: u64,
    /// Flow control model.
    pub pacing: Pacing,
}

impl Default for CopyConfig {
    fn default() -> Self {
        CopyConfig {
            total_bytes: 1 << 30, // the paper's 1 GB /dev/urandom file
            rate: 20_000_000,
            buffer_capacity: 2 * 1024 * 1024,
            pacing: Pacing::HostPaced,
        }
    }
}

/// Final report of a copy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CopyReport {
    /// Bytes the destination received.
    pub delivered: u64,
    /// Bytes lost to buffer overflow.
    pub lost: u64,
    /// Wall (virtual) time consumed.
    pub elapsed: Duration,
    /// True iff the destination received every source offset once, in
    /// order: exactly when its `md5sum` would match the source's.
    pub integrity_ok: bool,
}

/// A contiguous run of source bytes sitting in the device buffer.
#[derive(Debug, Clone, Copy)]
struct Segment {
    offset: u64,
    len: u64,
}

/// A streaming copy through a buffered device.
pub struct CopyExperiment {
    config: CopyConfig,
    /// Source offsets produced so far (monotone cursor).
    produced: u64,
    delivered: u64,
    buffered: u64,
    lost: u64,
    elapsed: Duration,
    /// Buffered-but-undelivered runs, in offset order.
    buffer: VecDeque<Segment>,
    /// The source offset the destination expects next.
    next_offset: u64,
    /// False once a segment arrived anywhere but at `next_offset`.
    in_order: bool,
}

impl CopyExperiment {
    /// Starts a copy.
    pub fn new(config: CopyConfig) -> Self {
        CopyExperiment {
            config,
            produced: 0,
            delivered: 0,
            buffered: 0,
            lost: 0,
            elapsed: Duration::ZERO,
            buffer: VecDeque::new(),
            next_offset: 0,
            in_order: true,
        }
    }

    /// Hands `seg` to the destination.
    fn deliver(&mut self, seg: Segment) {
        self.in_order &= seg.offset == self.next_offset;
        self.next_offset = seg.offset + seg.len;
        self.delivered += seg.len;
    }

    /// True when every byte has been produced and the buffer drained.
    pub fn is_done(&self) -> bool {
        self.produced == self.config.total_bytes && self.buffered == 0
    }

    /// Advances the copy by `dt` of virtual time with the OS responsive
    /// (`os_up = true`) or suspended inside a Flicker session.
    pub fn advance(&mut self, dt: Duration, os_up: bool) {
        if self.is_done() {
            return;
        }
        self.elapsed += dt;
        let mut fresh = ((self.config.rate as u128 * dt.as_nanos()) / 1_000_000_000) as u64;
        fresh = fresh.min(self.config.total_bytes - self.produced);

        if os_up {
            // Drain the buffer in offset order, then stream fresh data
            // straight through (drain bandwidth ≫ source rate here).
            while let Some(seg) = self.buffer.pop_front() {
                self.deliver(seg);
            }
            self.buffered = 0;
            if fresh > 0 {
                self.deliver(Segment {
                    offset: self.produced,
                    len: fresh,
                });
                self.produced += fresh;
            }
        } else {
            match self.config.pacing {
                Pacing::HostPaced => {
                    // The device waits for the host: no production, no loss.
                }
                Pacing::FreeRunning => {
                    let space = self.config.buffer_capacity - self.buffered;
                    let stored = fresh.min(space);
                    if stored > 0 {
                        self.buffer.push_back(Segment {
                            offset: self.produced,
                            len: stored,
                        });
                        self.buffered += stored;
                    }
                    // Whatever did not fit is gone forever.
                    self.lost += fresh - stored;
                    self.produced += fresh;
                }
            }
        }
    }

    /// Finishes the copy and reports.
    pub fn finish(self) -> CopyReport {
        CopyReport {
            delivered: self.delivered,
            lost: self.lost,
            elapsed: self.elapsed,
            integrity_ok: self.in_order && self.next_offset == self.config.total_bytes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_config(pacing: Pacing) -> CopyConfig {
        CopyConfig {
            total_bytes: 1_000_000,
            rate: 1_000_000, // 1 MB/s ⇒ 1 s total
            buffer_capacity: 10_000,
            pacing,
        }
    }

    #[test]
    fn uninterrupted_copy_is_intact() {
        let mut c = CopyExperiment::new(small_config(Pacing::HostPaced));
        while !c.is_done() {
            c.advance(Duration::from_millis(50), true);
        }
        let r = c.finish();
        assert_eq!(r.delivered, 1_000_000);
        assert_eq!(r.lost, 0);
        assert!(r.integrity_ok);
    }

    #[test]
    fn host_paced_copy_survives_suspensions() {
        // The §7.5 result: interleave sessions with short OS windows and
        // the copy stays intact, only slower.
        let mut c = CopyExperiment::new(small_config(Pacing::HostPaced));
        let mut guard = 0;
        while !c.is_done() {
            c.advance(Duration::from_millis(200), false); // Flicker session
            c.advance(Duration::from_millis(37), true); // OS window
            guard += 1;
            assert!(guard < 2000);
        }
        let r = c.finish();
        assert_eq!(r.lost, 0);
        assert!(r.integrity_ok);
        // Paid for the suspensions in wall time.
        assert!(r.elapsed > Duration::from_secs(1));
    }

    #[test]
    fn free_running_device_loses_data_during_long_suspensions() {
        let mut c = CopyExperiment::new(small_config(Pacing::FreeRunning));
        // One long suspension: 100 ms at 1 MB/s = 100 KB produced into a
        // 10 KB buffer ⇒ 90 KB lost.
        c.advance(Duration::from_millis(100), false);
        while !c.is_done() {
            c.advance(Duration::from_millis(50), true);
        }
        let r = c.finish();
        assert!(r.lost > 0, "buffer overflow expected");
        assert!(!r.integrity_ok, "the order check must catch the gap");
        assert_eq!(r.delivered + r.lost, 1_000_000);
    }

    #[test]
    fn free_running_with_short_suspensions_survives() {
        // Short suspensions fit in the buffer: no loss.
        let mut c = CopyExperiment::new(small_config(Pacing::FreeRunning));
        let mut guard = 0;
        while !c.is_done() {
            c.advance(Duration::from_millis(5), false); // 5 KB < 10 KB buffer
            c.advance(Duration::from_millis(20), true);
            guard += 1;
            assert!(guard < 2000);
        }
        let r = c.finish();
        assert_eq!(r.lost, 0);
        assert!(r.integrity_ok);
    }

    #[test]
    fn buffered_data_arrives_in_offset_order() {
        // Two suspension/drain cycles must deliver segments in order.
        let mut c = CopyExperiment::new(small_config(Pacing::FreeRunning));
        c.advance(Duration::from_millis(5), false);
        c.advance(Duration::from_millis(5), true);
        c.advance(Duration::from_millis(5), false);
        while !c.is_done() {
            c.advance(Duration::from_millis(50), true);
        }
        let r = c.finish();
        assert!(r.integrity_ok);
    }

    #[test]
    fn swapped_or_repeated_segments_are_corrupt() {
        // Each delivery hands over the right byte count in all and ends at
        // the last offset, so only the order check can tell these apart
        // from an intact copy.
        let seg = |offset, len| Segment { offset, len };
        let q = 250_000;
        for order in [
            [seg(0, q), seg(2 * q, q), seg(q, q), seg(3 * q, q)],
            [seg(0, q), seg(q, q), seg(q, q), seg(3 * q, q)],
        ] {
            let mut c = CopyExperiment::new(small_config(Pacing::HostPaced));
            for s in order {
                c.deliver(s);
            }
            let r = c.finish();
            assert_eq!(r.delivered, 1_000_000);
            assert!(!r.integrity_ok, "{order:?} passed as intact");
        }
    }
}
