//! Classic libpcap-format dump of simulated traffic.
//!
//! The paper's raw data is Wireshark pcap files collected on the APs. For
//! parity (and for debugging the simulator with real tooling), this module
//! writes captured packets in the classic libpcap file format, using
//! `LINKTYPE_USER0` (147) with SVRP-encoded frames (see [`crate::wire`]),
//! and can read such files back.

use crate::packet::Packet;
use crate::time::SimTime;
use crate::wire::{self, DecodedFrame};
use std::io::{self, Read, Write};

/// libpcap magic number (microsecond timestamps, little-endian).
pub const PCAP_MAGIC: u32 = 0xA1B2_C3D4;
/// Link type for user-defined encapsulation #0.
pub const LINKTYPE_USER0: u32 = 147;
/// Snap length we declare (larger than any simulated frame).
pub const SNAPLEN: u32 = 65_535;

/// Streaming pcap writer.
pub struct PcapWriter<W: Write> {
    out: W,
    packets: u64,
}

impl<W: Write> PcapWriter<W> {
    /// Create a writer and emit the global header.
    pub fn new(mut out: W) -> io::Result<Self> {
        out.write_all(&PCAP_MAGIC.to_le_bytes())?;
        out.write_all(&2u16.to_le_bytes())?; // version major
        out.write_all(&4u16.to_le_bytes())?; // version minor
        out.write_all(&0i32.to_le_bytes())?; // thiszone
        out.write_all(&0u32.to_le_bytes())?; // sigfigs
        out.write_all(&SNAPLEN.to_le_bytes())?;
        out.write_all(&LINKTYPE_USER0.to_le_bytes())?;
        Ok(PcapWriter { out, packets: 0 })
    }

    /// Append one packet with its capture timestamp.
    pub fn write_packet(&mut self, ts: SimTime, pkt: &Packet) -> io::Result<()> {
        let frame = wire::encode(pkt);
        let us = ts.as_micros();
        let secs = (us / 1_000_000) as u32;
        let micros = (us % 1_000_000) as u32;
        self.out.write_all(&secs.to_le_bytes())?;
        self.out.write_all(&micros.to_le_bytes())?;
        self.out.write_all(&(frame.len() as u32).to_le_bytes())?;
        self.out.write_all(&(frame.len() as u32).to_le_bytes())?;
        self.out.write_all(&frame)?;
        self.packets += 1;
        Ok(())
    }

    /// Packets written so far.
    pub fn packet_count(&self) -> u64 {
        self.packets
    }

    /// Flush and return the underlying writer.
    pub fn finish(mut self) -> io::Result<W> {
        self.out.flush()?;
        Ok(self.out)
    }
}

/// A packet read back from a pcap file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PcapRecord {
    /// Capture timestamp.
    pub ts: SimTime,
    /// Decoded SVRP frame.
    pub frame: DecodedFrame,
}

/// Errors reading a pcap file.
#[derive(Debug)]
pub enum PcapError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// File header malformed or wrong magic/linktype.
    BadHeader(String),
    /// Frame failed SVRP decoding.
    BadFrame(wire::WireError),
}

impl std::fmt::Display for PcapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PcapError::Io(e) => write!(f, "pcap io error: {e}"),
            PcapError::BadHeader(s) => write!(f, "bad pcap header: {s}"),
            PcapError::BadFrame(e) => write!(f, "bad frame: {e}"),
        }
    }
}

impl std::error::Error for PcapError {}

impl From<io::Error> for PcapError {
    fn from(e: io::Error) -> Self {
        PcapError::Io(e)
    }
}

fn read_u32<R: Read>(r: &mut R) -> io::Result<u32> {
    let mut b = [0u8; 4];
    r.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u16<R: Read>(r: &mut R) -> io::Result<u16> {
    let mut b = [0u8; 2];
    r.read_exact(&mut b)?;
    Ok(u16::from_le_bytes(b))
}

/// Read an entire pcap file produced by [`PcapWriter`].
pub fn read_pcap<R: Read>(mut r: R) -> Result<Vec<PcapRecord>, PcapError> {
    let magic = read_u32(&mut r)?;
    if magic != PCAP_MAGIC {
        return Err(PcapError::BadHeader(format!("magic 0x{magic:08x}")));
    }
    let (maj, min) = (read_u16(&mut r)?, read_u16(&mut r)?);
    if (maj, min) != (2, 4) {
        return Err(PcapError::BadHeader(format!("version {maj}.{min}")));
    }
    let _thiszone = read_u32(&mut r)?;
    let _sigfigs = read_u32(&mut r)?;
    let _snaplen = read_u32(&mut r)?;
    let linktype = read_u32(&mut r)?;
    if linktype != LINKTYPE_USER0 {
        return Err(PcapError::BadHeader(format!("linktype {linktype}")));
    }

    let mut out = Vec::new();
    loop {
        let secs = match read_u32(&mut r) {
            Ok(v) => v,
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => break,
            Err(e) => return Err(e.into()),
        };
        let micros = read_u32(&mut r)?;
        let incl_len = read_u32(&mut r)? as usize;
        let orig_len = read_u32(&mut r)? as usize;
        if incl_len != orig_len {
            return Err(PcapError::BadHeader(format!(
                "truncated capture record ({incl_len} of {orig_len} bytes)"
            )));
        }
        let mut buf = vec![0u8; incl_len];
        r.read_exact(&mut buf)?;
        let frame = wire::decode(&buf).map_err(PcapError::BadFrame)?;
        out.push(PcapRecord {
            ts: SimTime::from_micros(secs as u64 * 1_000_000 + micros as u64),
            frame,
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::NodeId;
    use crate::packet::{Proto, TransportHeader};
    use crate::buf::Bytes;

    fn pkt(payload: &'static [u8], id: u64) -> Packet {
        let mut p = Packet::new(
            TransportHeader::datagram(Proto::Udp, 4000, 443),
            Bytes::from_static(payload),
        );
        p.src = NodeId(0);
        p.dst = NodeId(1);
        p.id = id;
        p
    }

    #[test]
    fn write_read_roundtrip() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_packet(SimTime::from_millis(1500), &pkt(b"one", 1)).unwrap();
        w.write_packet(SimTime::from_millis(2500), &pkt(b"two-longer", 2)).unwrap();
        assert_eq!(w.packet_count(), 2);
        let buf = w.finish().unwrap();
        let recs = read_pcap(&buf[..]).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].ts, SimTime::from_millis(1500));
        assert_eq!(recs[0].frame.payload.as_ref(), b"one");
        assert_eq!(recs[1].frame.payload.as_ref(), b"two-longer");
        assert_eq!(recs[1].frame.header.proto, Proto::Udp);
    }

    #[test]
    fn head_body_split_writes_the_same_bytes() {
        let write = |p: &Packet| {
            let mut w = PcapWriter::new(Vec::new()).unwrap();
            w.write_packet(SimTime::from_millis(1500), p).unwrap();
            w.finish().unwrap()
        };
        let one = pkt(b"app-header-bytes+body", 3);
        let expect = write(&one);
        for at in 0..=one.payload_len() {
            assert_eq!(write(&one.cut_at(at)), expect, "cut at {at}");
        }
    }

    #[test]
    fn empty_file_has_header_only() {
        let w = PcapWriter::new(Vec::new()).unwrap();
        let buf = w.finish().unwrap();
        assert_eq!(buf.len(), 24);
        assert!(read_pcap(&buf[..]).unwrap().is_empty());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = PcapWriter::new(Vec::new()).unwrap().finish().unwrap();
        buf[0] = 0;
        assert!(matches!(read_pcap(&buf[..]), Err(PcapError::BadHeader(_))));
    }

    #[test]
    fn corrupted_frame_detected() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        w.write_packet(SimTime::ZERO, &pkt(b"payload", 0)).unwrap();
        let mut buf = w.finish().unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0xFF;
        assert!(matches!(read_pcap(&buf[..]), Err(PcapError::BadFrame(_))));
    }

    #[test]
    fn timestamp_precision_is_microseconds() {
        let mut w = PcapWriter::new(Vec::new()).unwrap();
        let t = SimTime::from_micros(3_000_007);
        w.write_packet(t, &pkt(b"x", 0)).unwrap();
        let buf = w.finish().unwrap();
        assert_eq!(read_pcap(&buf[..]).unwrap()[0].ts, t);
    }
}
