//! TLS-shaped record layer and handshake choreography.
//!
//! All five platforms carry their control channels over HTTPS (Table 2),
//! so the byte counts the paper measured include TLS handshake flights and
//! per-record overhead. This module reproduces that shape without real
//! cryptography: application bytes are framed into records with the TLS
//! 1.3 wire overhead (5-byte record header + 17-byte AEAD expansion), and
//! the handshake exchanges flights of realistic sizes. The "ciphertext"
//! is the plaintext — we are modelling *byte counts on the wire*, not
//! confidentiality.

use svr_netsim::buf::{Bytes, BytesMut};

/// Record header: content type (1) + legacy version (2) + length (2).
pub const RECORD_HEADER_LEN: usize = 5;
/// AEAD tag (16) + content-type byte (1) appended to every record.
pub const RECORD_EXPANSION: usize = 17;
/// Total per-record overhead.
pub const RECORD_OVERHEAD: usize = RECORD_HEADER_LEN + RECORD_EXPANSION;
/// Maximum plaintext fragment per record.
pub const MAX_FRAGMENT: usize = 16_384;

/// Content type byte for application data records.
pub const CONTENT_APPDATA: u8 = 23;
/// Content type byte for handshake records.
pub const CONTENT_HANDSHAKE: u8 = 22;

/// Handshake flight sizes, calibrated to a typical TLS 1.3 exchange with
/// a certificate chain (the dominant cost of the platforms' short control
/// transactions).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HandshakeProfile {
    /// ClientHello bytes.
    pub client_hello: usize,
    /// ServerHello + EncryptedExtensions + Certificate + Verify + Finished.
    pub server_flight: usize,
    /// Client Finished.
    pub client_finished: usize,
    /// NewSessionTicket(s).
    pub session_tickets: usize,
}

impl Default for HandshakeProfile {
    fn default() -> Self {
        HandshakeProfile {
            client_hello: 320,
            server_flight: 3_650,
            client_finished: 74,
            session_tickets: 250,
        }
    }
}

/// Seal `head ++ [fill; n]` as records of at most [`MAX_FRAGMENT`]
/// plaintext bytes each, and return the record stream as shared chunks,
/// in order. The records that carry head bytes share one buffer, the
/// last of them topped up with fill. Every further full record is a
/// clone of one sealed record of fill bytes, however long the body, and
/// a short last record gets a buffer of its own. An empty plaintext
/// still makes one (empty) record.
pub fn seal(content_type: u8, head: &[u8], fill: u8, n: usize) -> Vec<Bytes> {
    let fill_record = |len: usize| {
        let mut buf = BytesMut::with_capacity(RECORD_OVERHEAD + len);
        put_record(&mut buf, content_type, &[], fill, len);
        buf.freeze()
    };
    let mut chunks = Vec::new();
    let top_up = (head.len().next_multiple_of(MAX_FRAGMENT) - head.len()).min(n);
    if !head.is_empty() {
        let mut lead = BytesMut::with_capacity(sealed_len(head.len() + top_up));
        for part in head.chunks(MAX_FRAGMENT) {
            // Only the last part can be short.
            put_record(&mut lead, content_type, part, fill, top_up.min(MAX_FRAGMENT - part.len()));
        }
        chunks.push(lead.freeze());
    }
    let (full, short) = ((n - top_up) / MAX_FRAGMENT, (n - top_up) % MAX_FRAGMENT);
    if full > 0 {
        chunks.extend(std::iter::repeat_n(fill_record(MAX_FRAGMENT), full));
    }
    if short > 0 || head.len() + n == 0 {
        chunks.push(fill_record(short));
    }
    chunks
}

/// Append one record carrying `head ++ [fill; fill_len]` to `buf`.
fn put_record(buf: &mut BytesMut, content_type: u8, head: &[u8], fill: u8, fill_len: usize) {
    let plain_len = head.len() + fill_len;
    assert!(plain_len <= MAX_FRAGMENT, "fragment too large");
    buf.put_u8(CONTENT_APPDATA); // outer type is always appdata in TLS 1.3
    buf.put_u16(0x0303); // legacy version
    buf.put_u16((plain_len + RECORD_EXPANSION) as u16);
    buf.put_slice(head);
    buf.put_bytes(fill, fill_len);
    buf.put_u8(content_type); // inner content type
    buf.put_bytes(0xA5, RECORD_EXPANSION - 1); // stand-in AEAD tag
}

/// Wire bytes needed to carry `plain_len` bytes of application data.
pub fn sealed_len(plain_len: usize) -> usize {
    if plain_len == 0 {
        return RECORD_OVERHEAD;
    }
    let full = plain_len / MAX_FRAGMENT;
    let rem = plain_len % MAX_FRAGMENT;
    full * (MAX_FRAGMENT + RECORD_OVERHEAD) + if rem > 0 { rem + RECORD_OVERHEAD } else { 0 }
}

/// Errors unsealing a record stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TlsError {
    /// Record claims a length beyond the protocol limit.
    OversizedRecord(usize),
    /// Record body shorter than the AEAD expansion.
    ShortRecord(usize),
    /// The stand-in AEAD tag failed to verify (corruption).
    BadTag,
}

impl std::fmt::Display for TlsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TlsError::OversizedRecord(n) => write!(f, "record length {n} exceeds limit"),
            TlsError::ShortRecord(n) => write!(f, "record body {n} shorter than expansion"),
            TlsError::BadTag => write!(f, "record authentication failed"),
        }
    }
}

impl std::error::Error for TlsError {}

/// Incremental record-stream parser (handles records split across TCP
/// segment boundaries).
#[derive(Debug, Default)]
pub struct RecordUnsealer {
    buf: BytesMut,
}

/// One unsealed record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlainRecord {
    /// Inner content type ([`CONTENT_APPDATA`] or [`CONTENT_HANDSHAKE`]).
    pub content_type: u8,
    /// Decrypted plaintext.
    pub plaintext: Bytes,
}

impl RecordUnsealer {
    /// Create an empty parser.
    pub fn new() -> Self {
        Self::default()
    }

    /// Feed stream bytes; returns every complete record now available.
    pub fn feed(&mut self, data: &[u8]) -> Result<Vec<PlainRecord>, TlsError> {
        self.buf.extend_from_slice(data);
        let mut out = Vec::new();
        loop {
            if self.buf.len() < RECORD_HEADER_LEN {
                break;
            }
            let body_len = u16::from_be_bytes([self.buf[3], self.buf[4]]) as usize;
            if body_len > MAX_FRAGMENT + RECORD_EXPANSION {
                return Err(TlsError::OversizedRecord(body_len));
            }
            if body_len < RECORD_EXPANSION {
                return Err(TlsError::ShortRecord(body_len));
            }
            if self.buf.len() < RECORD_HEADER_LEN + body_len {
                break;
            }
            let record = self.buf.split_to(RECORD_HEADER_LEN + body_len).freeze();
            let body = &record[RECORD_HEADER_LEN..];
            let plain_len = body_len - RECORD_EXPANSION;
            // Verify the stand-in tag.
            if body[plain_len + 1..].iter().any(|&b| b != 0xA5) {
                return Err(TlsError::BadTag);
            }
            out.push(PlainRecord {
                content_type: body[plain_len],
                plaintext: record.slice(RECORD_HEADER_LEN..RECORD_HEADER_LEN + plain_len),
            });
        }
        Ok(out)
    }

    /// Bytes buffered awaiting a complete record.
    pub fn pending(&self) -> usize {
        self.buf.len()
    }
}

/// Client-side handshake driver layered over a byte stream.
///
/// Tracks which flight is due and produces the flight bytes to write to
/// the TCP stream. The session is `established` after the client Finished
/// is sent (TLS 1.3 allows the client to send data immediately after).
#[derive(Debug)]
pub struct TlsSession {
    profile: HandshakeProfile,
    /// Whether this endpoint initiated the connection.
    pub is_client: bool,
    state: HsState,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum HsState {
    Start,
    HelloSent,
    Established,
}

impl TlsSession {
    /// New client-side session.
    pub fn client(profile: HandshakeProfile) -> Self {
        TlsSession { profile, is_client: true, state: HsState::Start }
    }

    /// New server-side session.
    pub fn server(profile: HandshakeProfile) -> Self {
        TlsSession { profile, is_client: false, state: HsState::Start }
    }

    /// Whether application data may flow.
    pub fn is_established(&self) -> bool {
        self.state == HsState::Established
    }

    /// The next handshake records this endpoint should write, if any.
    /// Call once the transport connects, and again after each incoming
    /// handshake record.
    pub fn flight_to_send(&mut self) -> Option<Vec<Bytes>> {
        match (self.is_client, self.state) {
            (true, HsState::Start) => {
                self.state = HsState::HelloSent;
                Some(handshake_blob(self.profile.client_hello))
            }
            _ => None,
        }
    }

    /// Process an incoming handshake record; returns response records.
    pub fn on_handshake_record(&mut self, record: &PlainRecord) -> Option<Vec<Bytes>> {
        if record.content_type != CONTENT_HANDSHAKE {
            return None;
        }
        match (self.is_client, self.state) {
            // Server receives ClientHello → sends its whole flight.
            (false, HsState::Start) => {
                self.state = HsState::HelloSent;
                Some(handshake_blob(self.profile.server_flight))
            }
            // Client receives server flight → Finished; established.
            (true, HsState::HelloSent) => {
                self.state = HsState::Established;
                Some(handshake_blob(self.profile.client_finished))
            }
            // Server receives client Finished → tickets; established.
            (false, HsState::HelloSent) => {
                self.state = HsState::Established;
                Some(handshake_blob(self.profile.session_tickets))
            }
            // Client receives tickets (already established).
            (true, HsState::Established) => None,
            _ => None,
        }
    }
}

/// A handshake flight as sealed records totalling roughly `size` bytes.
fn handshake_blob(size: usize) -> Vec<Bytes> {
    seal(CONTENT_HANDSHAKE, &[], 0x48, size.saturating_sub(RECORD_OVERHEAD))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn joined(chunks: &[Bytes]) -> Vec<u8> {
        chunks.iter().flat_map(|c| c.iter().copied()).collect()
    }

    /// The record stream of `plain`, concatenated.
    fn sealed(plain: &[u8]) -> Vec<u8> {
        joined(&seal(CONTENT_APPDATA, plain, 0, 0))
    }

    /// Records of at most [`MAX_FRAGMENT`] bytes cut from one contiguous
    /// plaintext, written one after another without sharing.
    fn reference_stream(content_type: u8, plaintext: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        let fragments: Vec<&[u8]> = if plaintext.is_empty() {
            vec![&[]]
        } else {
            plaintext.chunks(MAX_FRAGMENT).collect()
        };
        for fragment in fragments {
            out.push(CONTENT_APPDATA);
            out.extend_from_slice(&[3, 3]);
            out.extend_from_slice(&((fragment.len() + RECORD_EXPANSION) as u16).to_be_bytes());
            out.extend_from_slice(fragment);
            out.push(content_type);
            out.extend_from_slice(&[0xA5; RECORD_EXPANSION - 1]);
        }
        out
    }

    #[test]
    fn record_roundtrip() {
        let sealed = sealed(b"GET / HTTP/1.1");
        assert_eq!(sealed.len(), 14 + RECORD_OVERHEAD);
        let mut u = RecordUnsealer::new();
        let recs = u.feed(&sealed).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].plaintext.as_ref(), b"GET / HTTP/1.1");
        assert_eq!(recs[0].content_type, CONTENT_APPDATA);
    }

    #[test]
    fn records_split_across_segments() {
        let sealed = sealed(&[7u8; 1000]);
        let mut u = RecordUnsealer::new();
        assert!(u.feed(&sealed[..100]).unwrap().is_empty());
        assert!(u.feed(&sealed[100..600]).unwrap().is_empty());
        let recs = u.feed(&sealed[600..]).unwrap();
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].plaintext.len(), 1000);
        assert_eq!(u.pending(), 0);
    }

    #[test]
    fn large_stream_fragments() {
        let plain = vec![1u8; MAX_FRAGMENT * 2 + 100];
        let mut u = RecordUnsealer::new();
        let records = u.feed(&joined(&seal(CONTENT_APPDATA, &[], 1, plain.len()))).unwrap();
        assert_eq!(records.len(), 3);
        let got: Vec<u8> = records.iter().flat_map(|r| r.plaintext.iter().copied()).collect();
        assert_eq!(got, plain);
    }

    /// The chunks concatenate to the records cut from the contiguous
    /// plaintext, for heads around and past one record and bodies around
    /// a record, at download sizes and at none.
    #[test]
    fn seal_matches_the_contiguous_record_stream() {
        let bodies = [0, 1, MAX_FRAGMENT - 1, MAX_FRAGMENT, MAX_FRAGMENT + 1, 40_000, 5_000_000, 22_000_000];
        for head_len in [0, 1, 40, 16_400] {
            let head: Vec<u8> = (0..head_len).map(|i| (i % 251) as u8).collect();
            for n in bodies {
                let mut plain = head.clone();
                plain.resize(head_len + n, 0x42);
                let want = reference_stream(CONTENT_APPDATA, &plain);
                let chunks = seal(CONTENT_APPDATA, &head, 0x42, n);
                let mut pos = 0;
                for chunk in &chunks {
                    assert!(
                        chunk[..] == want[pos..pos + chunk.len()],
                        "head {head_len}, body {n}: chunk at {pos} differs"
                    );
                    pos += chunk.len();
                }
                assert_eq!(pos, want.len(), "head {head_len}, body {n}");
                assert_eq!(pos, sealed_len(head_len + n), "head {head_len}, body {n}");
            }
        }
    }

    #[test]
    fn full_fill_records_share_one_sealed_record() {
        let n = 22_000_000;
        let chunks = seal(CONTENT_APPDATA, b"HTTP/1.1 200 OK\r\n\r\n", 0x42, n);
        let full = &chunks[1..chunks.len() - 1];
        let head_fill = MAX_FRAGMENT - 19;
        assert_eq!(full.len(), (n - head_fill) / MAX_FRAGMENT);
        for record in full {
            assert_eq!(record.len(), MAX_FRAGMENT + RECORD_OVERHEAD);
            assert_eq!(record.as_ptr(), full[0].as_ptr(), "a fill record was sealed twice");
        }
        assert_ne!(chunks[0].as_ptr(), full[0].as_ptr());
    }

    #[test]
    fn corrupted_tag_detected() {
        let mut bad = sealed(b"data");
        let last = bad.len() - 1;
        bad[last] = 0;
        let mut u = RecordUnsealer::new();
        assert_eq!(u.feed(&bad).unwrap_err(), TlsError::BadTag);
    }

    #[test]
    fn oversized_record_rejected() {
        let mut hdr = vec![CONTENT_APPDATA, 3, 3];
        hdr.extend_from_slice(&(60_000u16).to_be_bytes());
        let mut u = RecordUnsealer::new();
        assert!(matches!(u.feed(&hdr).unwrap_err(), TlsError::OversizedRecord(_)));
    }

    #[test]
    fn full_handshake_choreography() {
        let mut client = TlsSession::client(HandshakeProfile::default());
        let mut server = TlsSession::server(HandshakeProfile::default());
        let mut c_un = RecordUnsealer::new();
        let mut s_un = RecordUnsealer::new();

        // Client hello.
        let hello = joined(&client.flight_to_send().expect("client hello"));
        assert!(server.flight_to_send().is_none(), "server never speaks first");
        // Server processes, responds with its flight.
        let mut server_out = BytesMut::new();
        for rec in s_un.feed(&hello).unwrap() {
            if let Some(resp) = server.on_handshake_record(&rec) {
                server_out.extend_from_slice(&joined(&resp));
            }
        }
        assert!(!server.is_established());
        // Client processes server flight → Finished, established.
        let mut client_out = BytesMut::new();
        for rec in c_un.feed(&server_out).unwrap() {
            if let Some(resp) = client.on_handshake_record(&rec) {
                client_out.extend_from_slice(&joined(&resp));
            }
        }
        assert!(client.is_established());
        // Server processes Finished → tickets, established.
        let mut tickets = BytesMut::new();
        for rec in s_un.feed(&client_out).unwrap() {
            if let Some(resp) = server.on_handshake_record(&rec) {
                tickets.extend_from_slice(&joined(&resp));
            }
        }
        assert!(server.is_established());
        // Client consumes tickets silently.
        for rec in c_un.feed(&tickets).unwrap() {
            assert!(client.on_handshake_record(&rec).is_none());
        }
        // Handshake volume is dominated by the server flight.
        assert!(server_out.len() > hello.len());
        assert!(server_out.len() > 3_000);
    }

    #[test]
    fn appdata_records_ignored_by_handshake() {
        let mut server = TlsSession::server(HandshakeProfile::default());
        let rec = PlainRecord { content_type: CONTENT_APPDATA, plaintext: Bytes::from_static(b"x") };
        assert!(server.on_handshake_record(&rec).is_none());
    }

    /// Property checks over inputs drawn from a fixed-seed RNG.
    #[test]
    fn prop_stream_roundtrip_seeded() {
        let mut rng = svr_netsim::SimRng::seed_from_u64(0x715_0001);
        for _case in 0..32 {
            let plain: Vec<u8> = (0..rng.range_u64(0, 49_999))
                .map(|_| rng.range_u64(0, 255) as u8)
                .collect();
            let mut u = RecordUnsealer::new();
            let mut got = Vec::new();
            for rec in u.feed(&sealed(&plain)).unwrap() {
                got.extend_from_slice(&rec.plaintext);
            }
            assert_eq!(got, plain);
            assert_eq!(u.pending(), 0);
        }
    }

    #[test]
    fn prop_arbitrary_split_points_seeded() {
        let mut rng = svr_netsim::SimRng::seed_from_u64(0x715_0002);
        for _case in 0..64 {
            let plain: Vec<u8> = (0..rng.range_u64(1, 4_999))
                .map(|_| rng.range_u64(0, 255) as u8)
                .collect();
            let cuts: Vec<usize> = (0..rng.range_u64(0, 19))
                .map(|_| rng.range_u64(1, 199) as usize)
                .collect();
            let stream = sealed(&plain);
            let mut u = RecordUnsealer::new();
            let mut got = Vec::new();
            let mut pos = 0;
            for c in cuts {
                let end = (pos + c).min(stream.len());
                for rec in u.feed(&stream[pos..end]).unwrap() {
                    got.extend_from_slice(&rec.plaintext);
                }
                pos = end;
            }
            for rec in u.feed(&stream[pos..]).unwrap() {
                got.extend_from_slice(&rec.plaintext);
            }
            assert_eq!(got, plain);
        }
    }
}
