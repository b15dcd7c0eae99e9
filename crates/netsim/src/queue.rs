//! Drop-tail packet queue.
//!
//! Each simulated link owns a finite buffer. When a packet arrives while
//! the link is serializing another, it waits here; when the buffer is full
//! the packet is dropped — the congestion behaviour the paper provokes
//! with `tc-netem` rate caps in §8.
//!
//! The ring is not pre-sized from the byte capacity: it grows to the
//! peak packet count the link actually queues and keeps that allocation.
//! A `VecDeque` walks its head around the whole allocation as it wraps,
//! so every slot of an oversized ring is eventually touched. Reserving
//! 4,096 slots (320 KB) per 1 MB link cost a 1,024-room world about
//! 170 MB of resident memory.

use crate::packet::Packet;
use crate::units::ByteSize;
use std::collections::VecDeque;

/// A FIFO queue bounded by total buffered bytes.
#[derive(Debug)]
pub struct DropTailQueue {
    items: VecDeque<Packet>,
    buffered: ByteSize,
    capacity: ByteSize,
    /// Count of packets dropped because the buffer was full.
    pub drops: u64,
    /// High-water mark of buffered bytes, for diagnostics.
    pub max_buffered: ByteSize,
}

impl DropTailQueue {
    /// Create a queue holding at most `capacity` bytes of packets. The
    /// ring starts empty and allocates on the first queued packet.
    pub fn new(capacity: ByteSize) -> Self {
        DropTailQueue {
            items: VecDeque::new(),
            buffered: ByteSize::ZERO,
            capacity,
            drops: 0,
            max_buffered: ByteSize::ZERO,
        }
    }

    /// Attempt to enqueue; returns `false` (and counts a drop) when the
    /// packet does not fit.
    pub fn push(&mut self, pkt: Packet) -> bool {
        let cap = self.capacity;
        self.push_capped(pkt, cap)
    }

    /// Enqueue against a tighter temporary capacity (a shaped link keeps
    /// its buffer shallow — tc's rate limiter bounds queueing *latency*,
    /// not bytes, so a 0.1 Mbps cap must not hide 20 s of backlog).
    pub fn push_capped(&mut self, pkt: Packet, cap: ByteSize) -> bool {
        let size = pkt.wire_size();
        if self.buffered + size > cap.min(self.capacity) {
            self.drops += 1;
            return false;
        }
        self.buffered += size;
        if self.buffered > self.max_buffered {
            self.max_buffered = self.buffered;
        }
        self.items.push_back(pkt);
        true
    }

    /// Dequeue the oldest packet.
    pub fn pop(&mut self) -> Option<Packet> {
        let pkt = self.items.pop_front()?;
        self.buffered = self.buffered.saturating_sub(pkt.wire_size());
        Some(pkt)
    }

    /// Number of queued packets.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Bytes currently buffered.
    pub fn buffered(&self) -> ByteSize {
        self.buffered
    }

    /// Configured capacity in bytes.
    pub fn capacity(&self) -> ByteSize {
        self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Proto, TransportHeader};
    use crate::buf::Bytes;

    fn pkt(n: usize) -> Packet {
        Packet::new(
            TransportHeader::datagram(Proto::Udp, 1, 2),
            Bytes::from(vec![0u8; n]),
        )
    }

    #[test]
    fn fifo_order() {
        let mut q = DropTailQueue::new(ByteSize::from_kb(10));
        for i in 0..5 {
            let mut p = pkt(10);
            p.id = i;
            assert!(q.push(p));
        }
        for i in 0..5 {
            assert_eq!(q.pop().unwrap().id, i);
        }
        assert!(q.pop().is_none());
    }

    #[test]
    fn overflow_drops_tail() {
        // Each 58-byte packet (34+8+16); capacity fits exactly two.
        let mut q = DropTailQueue::new(ByteSize::from_bytes(116));
        assert!(q.push(pkt(16)));
        assert!(q.push(pkt(16)));
        assert!(!q.push(pkt(16)));
        assert_eq!(q.drops, 1);
        assert_eq!(q.len(), 2);
        // Draining frees space again.
        q.pop();
        assert!(q.push(pkt(16)));
    }

    #[test]
    fn byte_accounting() {
        let mut q = DropTailQueue::new(ByteSize::from_kb(100));
        q.push(pkt(100));
        q.push(pkt(200));
        assert_eq!(q.buffered().as_bytes(), (34 + 8 + 100) + (34 + 8 + 200));
        q.pop();
        assert_eq!(q.buffered().as_bytes(), 34 + 8 + 200);
        q.pop();
        assert_eq!(q.buffered(), ByteSize::ZERO);
        assert_eq!(q.max_buffered.as_bytes(), (34 + 8 + 100) + (34 + 8 + 200));
    }

    #[test]
    fn ring_tracks_peak_occupancy_not_byte_capacity() {
        let mut q = DropTailQueue::new(ByteSize::from_mb(1));
        assert_eq!(q.items.capacity(), 0, "nothing reserved before the first packet");
        let mut rng = crate::rng::SimRng::seed_from_u64(0x0B5E_55EE);
        let mut peak = 0;
        for _ in 0..10_000 {
            let depth = rng.range_u64(1, 32) as usize;
            for _ in q.len()..depth {
                assert!(q.push(pkt(100)));
            }
            peak = peak.max(q.len());
            for _ in 0..rng.range_u64(1, depth as u64) {
                q.pop();
            }
        }
        assert_eq!(peak, 32);
        assert!(
            q.items.capacity() <= 2 * peak,
            "ring holds {} slots for a peak of {peak} packets",
            q.items.capacity()
        );
    }

    /// Property check over inputs drawn from a fixed-seed RNG.
    #[test]
    fn prop_buffered_never_exceeds_capacity_seeded() {
        let mut rng = crate::rng::SimRng::seed_from_u64(0x0B5E_55ED);
        for _case in 0..64 {
            let mut q = DropTailQueue::new(ByteSize::from_kb(8));
            let ops = rng.range_u64(1, 199);
            for _ in 0..ops {
                if rng.chance(0.5) {
                    q.push(pkt(rng.range_u64(0, 1199) as usize));
                } else {
                    q.pop();
                }
                assert!(q.buffered() <= q.capacity());
                // Buffered bytes must equal the sum over queued packets.
                let sum: u64 = q.items.iter().map(|p| p.wire_size().as_bytes()).sum();
                assert_eq!(q.buffered().as_bytes(), sum);
            }
        }
    }
}
