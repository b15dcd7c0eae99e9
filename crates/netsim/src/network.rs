//! The discrete-event network: topology + event pump.
//!
//! [`Network`] owns nodes, directed links, capture taps, and the event
//! queue. It is *poll-based*: higher layers call [`Network::send`] to
//! inject packets and [`Network::poll`] / [`Network::poll_all`] to advance
//! simulated time and collect deliveries, interleaving their own timers
//! however they like. The event order is total and deterministic: events
//! are keyed by `(time, insertion sequence)`.

use crate::capture::{CaptureRecord, CaptureTap, Direction};
use crate::link::{Link, LinkId, LinkSpec};
use crate::node::{Node, NodeId, NodeKind};
use crate::packet::Packet;
use crate::rng::SimRng;
use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet, VecDeque};

/// A packet handed to its destination node.
#[derive(Debug, Clone)]
pub struct Delivery {
    /// Arrival time.
    pub at: SimTime,
    /// Destination node.
    pub dst: NodeId,
    /// The delivered packet.
    pub packet: Packet,
}

#[derive(Debug)]
enum EventKind {
    /// A link finished serializing a packet.
    TxDone { link: LinkId, packet: Packet },
    /// A packet arrived at a node after propagation.
    HopArrive { node: NodeId, packet: Packet },
}

/// A pending event's place in the queue: its time, the push count that
/// breaks ties, and the slab slot that holds it.
#[derive(Debug, Clone, Copy)]
struct Key {
    at: SimTime,
    seq: u64,
    slot: u32,
}

impl Key {
    /// `(at, seq)` as one integer, so a heap sift compares without
    /// branching on which half decides. `seq` is unique per queue, so
    /// `slot` never decides an order.
    fn order(&self) -> u128 {
        (u128::from(self.at.as_micros()) << 64) | u128::from(self.seq)
    }
}

impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        self.order() == other.order()
    }
}

impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Key) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Key {
    fn cmp(&self, other: &Key) -> std::cmp::Ordering {
        self.order().cmp(&other.order())
    }
}

/// Pending events in `(time, seq)` order.
///
/// The heap orders small `(time, seq, slot)` keys, so a sift moves 24
/// bytes, not a packet. Each event waits in `slab[slot]` until its key
/// pops, and the slot then goes on the free list for the next push.
/// `seq` counts pushes, so keys are unique, `slot` never decides an
/// order, and ties on time pop in the order they were pushed.
///
/// A slab that stays four times larger than the queue for as many pops
/// as it has slots is compacted, so a world of many small networks
/// holds slots for what each has queued, not for each one's peak. A
/// queue that drains and refills every tick never stays low that long,
/// and keeps its slots.
#[derive(Debug)]
struct EventQueue<T> {
    keys: BinaryHeap<Reverse<Key>>,
    slab: Vec<Option<T>>,
    free: Vec<u32>,
    next_seq: u64,
    /// Pops in a row that left fewer than a quarter of the slots full.
    low_pops: usize,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            keys: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            next_seq: 0,
            low_pops: 0,
        }
    }
}

impl<T> EventQueue<T> {
    /// Slab length below which [`EventQueue::pop`] never compacts.
    const MIN_SLAB: usize = 8;

    /// Queue `event` at `at`, after every event already queued at `at`.
    fn push(&mut self, at: SimTime, event: T) {
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(event);
                slot
            }
            None => {
                self.slab.push(Some(event));
                u32::try_from(self.slab.len() - 1).expect("fewer than 2^32 pending events")
            }
        };
        self.keys.push(Reverse(Key { at, seq: self.next_seq, slot }));
        self.next_seq += 1;
    }

    /// The time of the earliest event.
    fn next_time(&self) -> Option<SimTime> {
        self.keys.peek().map(|Reverse(key)| key.at)
    }

    /// Remove the earliest event (lowest `(time, seq)`).
    fn pop(&mut self) -> Option<(SimTime, T)> {
        let Reverse(Key { at, slot, .. }) = self.keys.pop()?;
        let event = self.slab[slot as usize].take().expect("a queued key owns its slot");
        self.free.push(slot);
        if self.keys.len() * 4 >= self.slab.len() {
            self.low_pops = 0;
        } else {
            self.low_pops += 1;
            if self.low_pops > self.slab.len() && self.slab.len() > Self::MIN_SLAB {
                self.compact();
            }
        }
        Some((at, event))
    }

    /// Move the queued events to slots `0..n` of a slab with room for
    /// `2n`. Renumbering leaves every `(time, seq)` as it was, so the key
    /// vector is still a valid heap and the pop order does not change.
    fn compact(&mut self) {
        let mut keys = std::mem::take(&mut self.keys).into_vec();
        let mut slab = Vec::with_capacity(2 * keys.len());
        for Reverse(key) in &mut keys {
            slab.push(self.slab[key.slot as usize].take());
            key.slot = (slab.len() - 1) as u32;
        }
        keys.shrink_to(2 * keys.len());
        self.keys = BinaryHeap::from(keys);
        self.slab = slab;
        self.free = Vec::new();
        self.low_pops = 0;
    }
}

/// The simulated network.
#[derive(Debug)]
pub struct Network {
    nodes: Vec<Node>,
    links: Vec<Link>,
    /// Outgoing links per node.
    adjacency: Vec<Vec<LinkId>>,
    /// Next-hop cache: (from, to) → first link of the shortest path.
    routes: HashMap<(NodeId, NodeId), LinkId>,
    /// Pending link and hop events.
    events: EventQueue<EventKind>,
    now: SimTime,
    next_packet_id: u64,
    rng: SimRng,
    taps: HashMap<NodeId, CaptureTap>,
    pending: VecDeque<Delivery>,
    /// Shard-boundary nodes: deliveries addressed to them leave this
    /// network through [`Network::drain_egress`] instead of `poll`.
    boundary: HashSet<NodeId>,
    egress: VecDeque<Delivery>,
}

impl Network {
    /// Create an empty network with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        Network {
            nodes: Vec::new(),
            links: Vec::new(),
            adjacency: Vec::new(),
            routes: HashMap::new(),
            events: EventQueue::default(),
            now: SimTime::ZERO,
            next_packet_id: 0,
            rng: SimRng::seed_from_u64(seed ^ 0x6E65_7473_696D), // "netsim"
            taps: HashMap::new(),
            pending: VecDeque::new(),
            boundary: HashSet::new(),
            egress: VecDeque::new(),
        }
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Add a node; returns its id.
    pub fn add_node(&mut self, name: impl Into<String>, kind: NodeKind) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node { name: name.into(), kind });
        self.adjacency.push(Vec::new());
        id
    }

    /// Node metadata.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Add a directed link; returns its id.
    pub fn add_link(&mut self, src: NodeId, dst: NodeId, spec: LinkSpec) -> LinkId {
        assert!(src != dst, "self-loop link");
        let id = LinkId(self.links.len() as u32);
        self.links.push(Link::new(src, dst, spec));
        self.adjacency[src.index()].push(id);
        self.routes.clear(); // topology changed; recompute lazily
        id
    }

    /// Add a pair of directed links between `a` and `b`.
    pub fn add_duplex_link(
        &mut self,
        a: NodeId,
        b: NodeId,
        spec_ab: LinkSpec,
        spec_ba: LinkSpec,
    ) -> (LinkId, LinkId) {
        (self.add_link(a, b, spec_ab), self.add_link(b, a, spec_ba))
    }

    /// Immutable access to a link.
    pub fn link(&self, id: LinkId) -> &Link {
        &self.links[id.index()]
    }

    /// Mutable access to a link (e.g. to install a netem schedule).
    pub fn link_mut(&mut self, id: LinkId) -> &mut Link {
        &mut self.links[id.index()]
    }

    /// The directed link from `a` to `b`, if one exists.
    pub fn link_between(&self, a: NodeId, b: NodeId) -> Option<LinkId> {
        self.adjacency[a.index()]
            .iter()
            .copied()
            .find(|l| self.links[l.index()].dst == b)
    }

    /// Mark `node` as a shard boundary (idempotent).
    ///
    /// A boundary node models the edge of this network's shard: packets
    /// *addressed to it* are not handed to `poll`/`poll_all` but parked on
    /// a separate egress queue, in arrival `(time, seq)` order, until the
    /// owning layer collects them with [`Network::drain_egress`] and
    /// forwards their contents across the shard boundary.
    pub fn set_boundary(&mut self, node: NodeId) {
        self.boundary.insert(node);
    }

    /// Whether `node` is a shard boundary.
    pub fn is_boundary(&self, node: NodeId) -> bool {
        self.boundary.contains(&node)
    }

    /// Drain packets that arrived at boundary nodes, in arrival order.
    pub fn drain_egress(&mut self) -> Vec<Delivery> {
        self.egress.drain(..).collect()
    }

    /// Install a capture tap on `node` (idempotent).
    pub fn add_tap(&mut self, node: NodeId) {
        self.taps.entry(node).or_default();
    }

    /// Records captured at `node` so far.
    pub fn tap_records(&self, node: NodeId) -> &[CaptureRecord] {
        self.taps.get(&node).map(|t| t.records()).unwrap_or(&[])
    }

    /// Drain the records captured at `node`.
    pub fn take_tap_records(&mut self, node: NodeId) -> Vec<CaptureRecord> {
        self.taps.get_mut(&node).map(|t| t.take_records()).unwrap_or_default()
    }

    /// Compute (and cache) the next hop from `from` toward `to` with a BFS
    /// over link hops. Panics when no route exists — a topology bug.
    fn next_hop(&mut self, from: NodeId, to: NodeId) -> LinkId {
        if let Some(&l) = self.routes.get(&(from, to)) {
            return l;
        }
        // BFS from `from`; record the first hop used to reach each node.
        let n = self.nodes.len();
        let mut first_hop: Vec<Option<LinkId>> = vec![None; n];
        let mut visited = vec![false; n];
        let mut q = VecDeque::new();
        visited[from.index()] = true;
        q.push_back(from);
        while let Some(u) = q.pop_front() {
            for &l in &self.adjacency[u.index()] {
                let v = self.links[l.index()].dst;
                if !visited[v.index()] {
                    visited[v.index()] = true;
                    first_hop[v.index()] =
                        if u == from { Some(l) } else { first_hop[u.index()] };
                    q.push_back(v);
                }
            }
        }
        let hop = first_hop[to.index()].unwrap_or_else(|| {
            panic!(
                "no route from {} ({}) to {} ({})",
                self.nodes[from.index()].name,
                from,
                self.nodes[to.index()].name,
                to
            )
        });
        self.routes.insert((from, to), hop);
        hop
    }

    /// Inject a packet at `from` destined for `to`.
    ///
    /// Fills in the packet's routing metadata (src, dst, send time, id) and
    /// offers it to the first link of the shortest path.
    pub fn send(&mut self, from: NodeId, to: NodeId, mut packet: Packet) {
        assert!(from != to, "packet to self");
        packet.src = from;
        packet.dst = to;
        packet.sent_at = self.now;
        packet.id = self.next_packet_id;
        self.next_packet_id += 1;
        let hop = self.next_hop(from, to);
        self.offer(hop, packet);
    }

    /// Offer a packet to a link: transmit now if idle, else queue.
    fn offer(&mut self, link_id: LinkId, packet: Packet) {
        let now = self.now;
        let link = &mut self.links[link_id.index()];
        if link.busy_until > now {
            // Link busy: queue (drop-tail, bounded further while shaped).
            let admitted = match link.shaped_queue_cap(now) {
                Some(cap) => link.queue.push_capped(packet, cap),
                None => link.queue.push(packet),
            };
            if !admitted {
                link.stats.queue_drops += 1;
            }
        } else {
            self.start_tx(link_id, packet);
        }
    }

    fn start_tx(&mut self, link_id: LinkId, packet: Packet) {
        let now = self.now;
        let link = &mut self.links[link_id.index()];
        let rate = link.effective_rate(now, packet.header.proto);
        let ser = rate.serialization_time(packet.wire_size());
        let done = now.checked_add(ser).unwrap_or(SimTime::MAX);
        link.busy_until = done;
        if done < SimTime::MAX {
            self.events.push(done, EventKind::TxDone { link: link_id, packet });
        }
        // A zero-rate link swallows the packet: it never finishes
        // serializing, exactly like a fully-blocked qdisc.
    }

    fn on_tx_done(&mut self, link_id: LinkId, mut packet: Packet) {
        let now = self.now;
        let link = &mut self.links[link_id.index()];
        link.stats.tx_packets += 1;
        link.stats.tx_bytes += packet.wire_size().as_bytes();
        // Fault injection: flip one byte of `payload ++ body`. A
        // checksummed transport (TCP) detects and discards the segment —
        // identical to loss from the endpoint's view; datagrams deliver
        // the damage upward.
        let corrupt_p = link.impairment_at(now, packet.header.proto).corrupt;
        let loss = link.effective_loss(now, packet.header.proto);
        let mut delay = link.effective_delay(now, packet.header.proto);
        let jitter = link.impairment_at(now, packet.header.proto).jitter;
        let dst = link.dst;
        if jitter > crate::time::SimDuration::ZERO {
            delay += crate::time::SimDuration::from_micros(
                self.rng.range_u64(0, jitter.as_micros()),
            );
        }
        let mut lost = self.rng.chance(loss);
        if !lost && corrupt_p > 0.0 && self.rng.chance(corrupt_p) && packet.payload_len() > 0 {
            if packet.header.proto == crate::packet::Proto::Tcp {
                // The receiver's checksum discards it.
                lost = true;
            } else {
                // Only the damaged part is copied; the other stays shared.
                let mut idx = self.rng.index(packet.payload_len());
                let part = if idx < packet.payload.len() {
                    &mut packet.payload
                } else {
                    idx -= packet.payload.len();
                    &mut packet.body
                };
                let mut bytes = part.to_vec();
                bytes[idx] ^= 0xA5;
                *part = crate::buf::Bytes::from(bytes);
            }
        }
        if lost {
            self.links[link_id.index()].stats.lost_packets += 1;
        } else {
            let arrive = now.checked_add(delay).unwrap_or(SimTime::MAX);
            if arrive < SimTime::MAX {
                self.events.push(arrive, EventKind::HopArrive { node: dst, packet });
            }
        }
        // Link is free: pull the next queued packet, if any.
        if let Some(next) = self.links[link_id.index()].queue.pop() {
            self.start_tx(link_id, next);
        }
    }

    fn on_hop_arrive(&mut self, node: NodeId, packet: Packet) {
        // Capture at tapped nodes (both transit and final-destination
        // arrivals, like a port-mirrored AP).
        if let Some(tap) = self.taps.get_mut(&node) {
            let dir = if self.nodes[packet.src.index()].kind.is_client_device() {
                Direction::Uplink
            } else {
                Direction::Downlink
            };
            tap.record(self.now, &packet, dir);
        }
        if node == packet.dst {
            crate::counters::count_delivery();
            let d = Delivery { at: self.now, dst: node, packet };
            if !self.boundary.is_empty() && self.boundary.contains(&node) {
                self.egress.push_back(d);
            } else {
                self.pending.push_back(d);
            }
        } else {
            let dst = packet.dst;
            let hop = self.next_hop(node, dst);
            self.offer(hop, packet);
        }
    }

    /// The time of the next scheduled network event, if any.
    pub fn next_event_time(&self) -> Option<SimTime> {
        if !self.pending.is_empty() {
            return Some(self.now);
        }
        self.events.next_time()
    }

    fn step(&mut self) {
        let (at, kind) = self.events.pop().expect("step with empty queue");
        debug_assert!(at >= self.now, "event in the past");
        crate::counters::count_event();
        self.now = at;
        match kind {
            EventKind::TxDone { link, packet } => self.on_tx_done(link, packet),
            EventKind::HopArrive { node, packet } => self.on_hop_arrive(node, packet),
        }
    }

    /// Advance until the first delivery at or before `until`.
    ///
    /// Returns `None` when no delivery happens by `until`; in that case the
    /// clock has advanced to `until` (or stays at `now` if already past).
    pub fn poll(&mut self, until: SimTime) -> Option<Delivery> {
        loop {
            if let Some(d) = self.pending.pop_front() {
                return Some(d);
            }
            match self.events.next_time() {
                Some(at) if at <= until => self.step(),
                _ => {
                    self.now = self.now.max(until);
                    return None;
                }
            }
        }
    }

    /// Advance to `until`, collecting every delivery on the way.
    pub fn poll_all(&mut self, until: SimTime) -> Vec<Delivery> {
        let mut out = Vec::new();
        while self.events.next_time().is_some_and(|at| at <= until) {
            self.step();
            out.extend(self.pending.drain(..));
        }
        out.extend(self.pending.drain(..));
        self.now = self.now.max(until);
        out
    }

    /// Total packets dropped anywhere in the network (loss + queue drops).
    pub fn total_drops(&self) -> u64 {
        self.links
            .iter()
            .map(|l| l.stats.lost_packets + l.stats.queue_drops)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netem::{Impairment, NetemSchedule, NetemStage};
    use crate::packet::{Proto, TransportHeader};
    use crate::time::SimDuration;
    use crate::units::{Bitrate, ByteSize};
    use crate::buf::Bytes;
    use std::collections::BTreeMap;

    fn two_node_net(spec: LinkSpec) -> (Network, NodeId, NodeId) {
        let mut net = Network::new(1);
        let a = net.add_node("a", NodeKind::Headset);
        let b = net.add_node("b", NodeKind::Server);
        net.add_duplex_link(a, b, spec, spec);
        (net, a, b)
    }

    fn udp_pkt(n: usize) -> Packet {
        Packet::new(
            TransportHeader::datagram(Proto::Udp, 1000, 2000),
            Bytes::from(vec![0u8; n]),
        )
    }

    #[test]
    fn delivery_time_is_serialization_plus_propagation() {
        // 12 Mbps, 10 ms delay; 1458-byte payload → 1500 wire bytes → 1 ms ser.
        let spec = LinkSpec {
            bandwidth: Bitrate::from_mbps(12),
            delay: SimDuration::from_millis(10),
            loss: 0.0,
            queue_capacity: ByteSize::from_mb(1),
        };
        let (mut net, a, b) = two_node_net(spec);
        net.send(a, b, udp_pkt(1458));
        let d = net.poll(SimTime::from_secs(1)).unwrap();
        assert_eq!(d.at.as_micros(), 11_000);
        assert_eq!(d.dst, b);
        assert_eq!(d.packet.src, a);
    }

    #[test]
    fn back_to_back_packets_queue_behind_each_other() {
        let spec = LinkSpec {
            bandwidth: Bitrate::from_mbps(12),
            delay: SimDuration::from_millis(1),
            loss: 0.0,
            queue_capacity: ByteSize::from_mb(1),
        };
        let (mut net, a, b) = two_node_net(spec);
        net.send(a, b, udp_pkt(1458)); // 1 ms ser
        net.send(a, b, udp_pkt(1458)); // waits for the first
        let d1 = net.poll(SimTime::from_secs(1)).unwrap();
        let d2 = net.poll(SimTime::from_secs(1)).unwrap();
        assert_eq!(d1.at.as_micros(), 2_000);
        assert_eq!(d2.at.as_micros(), 3_000);
    }

    #[test]
    fn multi_hop_route_found_and_timed() {
        let mut net = Network::new(1);
        let a = net.add_node("headset", NodeKind::Headset);
        let ap = net.add_node("ap", NodeKind::AccessPoint);
        let s = net.add_node("server", NodeKind::Server);
        let hop = LinkSpec {
            bandwidth: Bitrate::from_mbps(1000),
            delay: SimDuration::from_millis(5),
            loss: 0.0,
            queue_capacity: ByteSize::from_mb(1),
        };
        net.add_duplex_link(a, ap, hop, hop);
        net.add_duplex_link(ap, s, hop, hop);
        net.send(a, s, udp_pkt(100));
        let d = net.poll(SimTime::from_secs(1)).unwrap();
        // Two hops of 5 ms plus two tiny serializations.
        assert!(d.at >= SimTime::from_millis(10));
        assert!(d.at < SimTime::from_millis(11));
        assert_eq!(d.dst, s);
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn unroutable_packet_panics() {
        let mut net = Network::new(1);
        let a = net.add_node("a", NodeKind::Headset);
        let b = net.add_node("b", NodeKind::Server);
        // no links
        net.send(a, b, udp_pkt(10));
    }

    #[test]
    fn poll_returns_none_and_advances_clock_when_idle() {
        let (mut net, _a, _b) = two_node_net(LinkSpec::wifi());
        assert!(net.poll(SimTime::from_secs(5)).is_none());
        assert_eq!(net.now(), SimTime::from_secs(5));
    }

    #[test]
    fn random_loss_drops_proportionally() {
        let spec = LinkSpec::wifi().with_loss(0.5);
        let (mut net, a, b) = two_node_net(spec);
        let n = 400;
        let mut delivered = 0;
        for i in 0..n {
            // Space sends out so the queue never overflows.
            let at = SimTime::from_millis(10 * i as u64);
            delivered += net.poll_all(at).len();
            net.send(a, b, udp_pkt(100));
        }
        delivered += net.poll_all(SimTime::from_secs(100)).len();
        assert_eq!(delivered + net.total_drops() as usize, n);
        let lost = net.total_drops() as f64 / n as f64;
        assert!((lost - 0.5).abs() < 0.1, "loss fraction {lost}");
    }

    #[test]
    fn shaped_queue_bounds_latency_not_just_bytes() {
        // A 100 Kbps cap with a megabyte buffer must not build tens of
        // seconds of backlog: the shaper admits ~1 s of queue.
        let spec = LinkSpec {
            bandwidth: Bitrate::from_mbps(100),
            delay: SimDuration::from_millis(1),
            loss: 0.0,
            queue_capacity: ByteSize::from_mb(10),
        };
        let (mut net, a, b) = two_node_net(spec);
        let link = net.link_between(a, b).unwrap();
        net.link_mut(link).set_netem(NetemSchedule::from_stages(vec![NetemStage {
            start: SimTime::ZERO,
            end: SimTime::from_secs(1000),
            impairment: Impairment::rate(Bitrate::from_kbps(100)),
        }]));
        // Offer 100 KB instantly: only ~12.5 KB (1 s at 100 Kbps) queues.
        for _ in 0..100 {
            net.send(a, b, udp_pkt(958)); // 1000 wire bytes each
        }
        let deliveries = net.poll_all(SimTime::from_secs(60));
        let last = deliveries.last().unwrap().at;
        assert!(
            last < SimTime::from_millis(1_700),
            "worst queueing delay bounded to ~1 s of drain: {last}"
        );
        assert!(net.total_drops() > 80, "excess dropped, not buffered");
    }

    #[test]
    fn netem_rate_cap_throttles_throughput() {
        let spec = LinkSpec {
            bandwidth: Bitrate::from_mbps(100),
            delay: SimDuration::from_millis(1),
            loss: 0.0,
            queue_capacity: ByteSize::from_mb(10),
        };
        let (mut net, a, b) = two_node_net(spec);
        let link = net.link_between(a, b).unwrap();
        net.link_mut(link).set_netem(NetemSchedule::from_stages(vec![NetemStage {
            start: SimTime::ZERO,
            end: SimTime::from_secs(100),
            impairment: Impairment::rate(Bitrate::from_kbps(100)),
        }]));
        // 10 packets of 1000 wire bytes at 100 kbps: 80 ms each.
        for _ in 0..10 {
            net.send(a, b, udp_pkt(958));
        }
        let deliveries = net.poll_all(SimTime::from_secs(10));
        assert_eq!(deliveries.len(), 10);
        let last = deliveries.last().unwrap().at;
        // 10 * 80 ms serialization + 1 ms propagation = 801 ms.
        assert_eq!(last.as_millis(), 801);
    }

    #[test]
    fn corruption_damages_udp_but_drops_tcp() {
        use crate::packet::TcpFlags;
        let spec = LinkSpec::campus();
        let (mut net, a, b) = two_node_net(spec);
        let link = net.link_between(a, b).unwrap();
        net.link_mut(link).set_netem(NetemSchedule::from_stages(vec![NetemStage {
            start: SimTime::ZERO,
            end: SimTime::from_secs(1000),
            impairment: Impairment::corrupt(1.0),
        }]));
        // UDP: delivered, payload damaged.
        let mut damaged = 0;
        for _ in 0..50 {
            net.send(a, b, udp_pkt(64));
        }
        let deliveries = net.poll_all(SimTime::from_secs(10));
        assert_eq!(deliveries.len(), 50, "corruption is not loss for UDP");
        for d in deliveries {
            if d.packet.payload.iter().any(|&b| b != 0) {
                damaged += 1;
            }
        }
        assert_eq!(damaged, 50, "every UDP payload damaged at p=1");
        // TCP: corrupted segments are dropped (checksum).
        for _ in 0..50 {
            let pkt = Packet::new(
                TransportHeader::tcp(1, 2, 0, 0, TcpFlags::DATA),
                Bytes::from(vec![0u8; 64]),
            );
            net.send(a, b, pkt);
        }
        let delivered = net.poll_all(SimTime::from_secs(60)).len();
        assert_eq!(delivered, 0, "all corrupted TCP segments dropped");
    }

    #[test]
    fn corruption_flips_the_same_offset_in_either_part() {
        // Packet i is cut into a head of i bytes and a body, so the flip
        // lands in the head for some packets and in the body for others.
        let flipped = |split: bool| {
            let (mut net, a, b) = two_node_net(LinkSpec::campus());
            let link = net.link_between(a, b).unwrap();
            net.link_mut(link).set_netem(NetemSchedule::from_stages(vec![NetemStage {
                start: SimTime::ZERO,
                end: SimTime::from_secs(1000),
                impairment: Impairment::corrupt(1.0),
            }]));
            for i in 0..=64 {
                let p = udp_pkt(64);
                net.send(a, b, if split { p.cut_at(i) } else { p });
            }
            net.poll_all(SimTime::from_secs(10))
                .iter()
                .map(|d| {
                    let bytes = [&d.packet.payload[..], &d.packet.body[..]].concat();
                    let at = bytes.iter().position(|&x| x != 0).expect("one byte flipped");
                    (at, at < d.packet.payload.len())
                })
                .collect::<Vec<_>>()
        };
        let whole = flipped(false);
        let split = flipped(true);
        let offsets = |v: &[(usize, bool)]| v.iter().map(|x| x.0).collect::<Vec<_>>();
        assert_eq!(offsets(&split), offsets(&whole));
        assert!(split.iter().any(|x| x.1) && split.iter().any(|x| !x.1), "both parts hit");
    }

    #[test]
    fn netem_jitter_spreads_arrivals() {
        let (mut net, a, b) = two_node_net(LinkSpec::campus());
        let link = net.link_between(a, b).unwrap();
        net.link_mut(link).set_netem(NetemSchedule::from_stages(vec![NetemStage {
            start: SimTime::ZERO,
            end: SimTime::from_secs(100),
            impairment: Impairment::delay_jitter(
                SimDuration::from_millis(50),
                SimDuration::from_millis(40),
            ),
        }]));
        let mut delays = Vec::new();
        for i in 0..50u64 {
            let t0 = SimTime::from_millis(i * 200);
            net.poll_all(t0);
            net.send(a, b, udp_pkt(100));
            let d = net.poll(t0 + SimDuration::from_millis(150)).unwrap();
            delays.push(d.at.saturating_since(t0).as_millis_f64());
        }
        let min = delays.iter().cloned().fold(f64::MAX, f64::min);
        let max = delays.iter().cloned().fold(0.0, f64::max);
        assert!(min >= 50.0, "base delay respected: {min}");
        assert!(max <= 91.0, "jitter bounded: {max}");
        assert!(max - min > 15.0, "jitter actually spreads arrivals: {min}..{max}");
    }

    #[test]
    fn netem_extra_delay_shifts_arrivals() {
        let (mut net, a, b) = two_node_net(LinkSpec::campus());
        let link = net.link_between(a, b).unwrap();
        net.link_mut(link).set_netem(NetemSchedule::from_stages(vec![NetemStage {
            start: SimTime::ZERO,
            end: SimTime::from_secs(10),
            impairment: Impairment::delay(SimDuration::from_millis(200)),
        }]));
        net.send(a, b, udp_pkt(100));
        let d = net.poll(SimTime::from_secs(1)).unwrap();
        assert!(d.at >= SimTime::from_millis(200));
    }

    #[test]
    fn tap_records_transit_traffic_with_direction() {
        let mut net = Network::new(1);
        let u1 = net.add_node("u1", NodeKind::Headset);
        let ap = net.add_node("ap", NodeKind::AccessPoint);
        let s = net.add_node("server", NodeKind::Server);
        net.add_duplex_link(u1, ap, LinkSpec::wifi(), LinkSpec::wifi());
        net.add_duplex_link(ap, s, LinkSpec::campus(), LinkSpec::campus());
        net.add_tap(ap);
        net.send(u1, s, udp_pkt(50));
        net.poll_all(SimTime::from_secs(1));
        net.send(s, u1, udp_pkt(60));
        net.poll_all(SimTime::from_secs(2));
        let recs = net.tap_records(ap);
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].direction, Direction::Uplink);
        assert_eq!(recs[1].direction, Direction::Downlink);
        assert_eq!(recs[0].payload_len, 50);
        assert_eq!(recs[1].payload_len, 60);
    }

    #[test]
    fn queue_overflow_counts_drops() {
        let spec = LinkSpec {
            bandwidth: Bitrate::from_kbps(8), // 1 KB/s: glacial
            delay: SimDuration::from_millis(1),
            loss: 0.0,
            queue_capacity: ByteSize::from_bytes(300),
        };
        let (mut net, a, b) = two_node_net(spec);
        for _ in 0..10 {
            net.send(a, b, udp_pkt(100)); // 142 wire bytes each
        }
        // One in flight, two fit in the 300-byte queue, rest dropped.
        assert!(net.total_drops() >= 7, "drops = {}", net.total_drops());
    }

    #[test]
    fn deterministic_across_runs() {
        let run = || {
            let (mut net, a, b) = two_node_net(LinkSpec::wifi().with_loss(0.3));
            let mut times = Vec::new();
            for _ in 0..50 {
                net.send(a, b, udp_pkt(500));
            }
            for d in net.poll_all(SimTime::from_secs(10)) {
                times.push(d.at.as_micros());
            }
            times
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn boundary_node_diverts_deliveries_to_egress() {
        let mut net = Network::new(1);
        let a = net.add_node("a", NodeKind::Headset);
        let s = net.add_node("server", NodeKind::Server);
        let gw = net.add_node("gateway", NodeKind::Server);
        net.add_duplex_link(a, s, LinkSpec::wifi(), LinkSpec::wifi());
        net.add_duplex_link(s, gw, LinkSpec::campus(), LinkSpec::campus());
        net.set_boundary(gw);
        assert!(net.is_boundary(gw) && !net.is_boundary(s));
        // One packet to the in-shard server, two across the boundary.
        net.send(a, s, udp_pkt(100));
        net.send(a, gw, udp_pkt(200));
        net.send(a, gw, udp_pkt(300));
        let local = net.poll_all(SimTime::from_secs(1));
        assert_eq!(local.len(), 1, "only the in-shard delivery is polled");
        assert_eq!(local[0].dst, s);
        let egress = net.drain_egress();
        assert_eq!(egress.len(), 2);
        assert_eq!(egress[0].dst, gw);
        assert!(egress[0].at <= egress[1].at, "egress keeps arrival order");
        assert_eq!(egress[0].packet.payload.len(), 200);
        assert_eq!(egress[1].packet.payload.len(), 300);
        assert!(net.drain_egress().is_empty(), "drain empties the queue");
    }

    #[test]
    fn tied_arrivals_deliver_in_send_order() {
        // Sixteen spokes each send one packet at t = 0 over identical
        // links, so every TxDone and every HopArrive ties on time: only
        // the `seq` half of the event key orders them.
        let mut net = Network::new(1);
        let hub = net.add_node("hub", NodeKind::Server);
        let spokes: Vec<NodeId> = (0..16)
            .map(|i| net.add_node(format!("s{i}"), NodeKind::Headset))
            .collect();
        for &s in &spokes {
            net.add_link(s, hub, LinkSpec::campus());
        }
        for &s in &spokes {
            net.send(s, hub, udp_pkt(100));
        }
        let deliveries = net.poll_all(SimTime::from_secs(1));
        assert_eq!(deliveries.len(), spokes.len(), "no tied event lost");
        assert!(
            deliveries.iter().all(|d| d.at == deliveries[0].at),
            "all arrive together"
        );
        let ids: Vec<u64> = deliveries.iter().map(|d| d.packet.id).collect();
        let sent: Vec<u64> = (0..spokes.len() as u64).collect();
        assert_eq!(ids, sent, "ties pop in scheduling order");
    }

    #[test]
    fn event_queue_pops_what_a_btreemap_pops() {
        // Bursts land on a handful of times, so most keys tie on time,
        // and partial drains free slots that later pushes reuse.
        let mut rng = SimRng::seed_from_u64(0xE7E7);
        let mut queue = EventQueue::default();
        let mut model = BTreeMap::new();
        let mut seq = 0u64;
        let mut now = SimTime::ZERO;
        let mut pops = 0;
        for round in 0..600 {
            let burst = if round % 50 < 10 { 120 } else { 12 };
            for _ in 0..rng.range_u64(0, burst) {
                let at = now + SimDuration::from_micros(100 * rng.range_u64(0, 6));
                queue.push(at, seq);
                model.insert((at, seq), seq);
                seq += 1;
            }
            // `poll` pops at most one event due by `until`, `poll_all`
            // every one.
            let until = now + SimDuration::from_micros(100 * rng.range_u64(0, 4));
            let drain_all = rng.chance(0.7);
            loop {
                assert_eq!(queue.next_time(), model.keys().next().map(|k| k.0), "round {round}");
                let due = model.first_key_value().is_some_and(|(k, _)| k.0 <= until);
                if !due {
                    break;
                }
                let ((at, _), want) = model.pop_first().expect("due");
                assert_eq!(queue.pop(), Some((at, want)), "round {round}");
                pops += 1;
                if !drain_all {
                    break;
                }
            }
            now = until;
        }
        while let Some(((at, _), want)) = model.pop_first() {
            assert_eq!(queue.pop(), Some((at, want)));
            pops += 1;
        }
        assert_eq!(queue.pop(), None);
        assert!(pops > 10_000, "the trace drained {pops} events");
    }

    #[test]
    fn fifo_order_preserved_per_flow() {
        let (mut net, a, b) = two_node_net(LinkSpec::wifi());
        for _ in 0..20 {
            net.send(a, b, udp_pkt(700));
        }
        let ids: Vec<u64> = net
            .poll_all(SimTime::from_secs(5))
            .iter()
            .map(|d| d.packet.id)
            .collect();
        let mut sorted = ids.clone();
        sorted.sort_unstable();
        assert_eq!(ids, sorted, "in-order delivery on a FIFO link");
    }
}
