//! Minimal HTTP/1.1 over the TLS record layer over TCP.
//!
//! The control channel of every platform is HTTPS (§4.1): menu
//! operations, initialization downloads, and the periodic ~10 s client
//! report "spikes". [`HttpClient`] and [`HttpServer`] implement enough of
//! HTTP/1.1 (request line, `Content-Length` framing, pipelining) over the
//! [`crate::tls`] record layer and [`crate::tcp`] to generate honest wire
//! byte counts for those interactions.

use crate::tcp::{TcpConfig, TcpConnection, TcpEvent};
use crate::tls::{
    seal, HandshakeProfile, PlainRecord, RecordUnsealer, TlsSession, CONTENT_APPDATA,
    CONTENT_HANDSHAKE,
};
use std::collections::VecDeque;
use svr_netsim::{Packet, SimTime};

/// A completed request/response exchange, as seen by the client.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpExchange {
    /// Request path.
    pub path: String,
    /// Response status code.
    pub status: u16,
    /// Response body length.
    pub body_len: usize,
    /// When the request was issued.
    pub started: SimTime,
    /// When the full response arrived.
    pub completed: SimTime,
}

/// Events surfaced by [`HttpClient::on_packet`] / [`HttpClient::on_tick`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpEvent {
    /// TLS session established; requests will now flow.
    Ready,
    /// A response completed.
    Response(HttpExchange),
    /// The underlying TCP connection died.
    Dead,
}

/// Incremental parser for `Content-Length`-framed HTTP messages. It keeps
/// the header of the message being read and counts body bytes without
/// keeping them: nothing reads a body, only its length.
#[derive(Debug, Default)]
struct MessageParser {
    /// Header bytes of the message being read, while its header is.
    head: Vec<u8>,
    /// Once its header is complete: the message, and the body bytes
    /// still to come.
    body: Option<(Message, usize)>,
}

/// One parsed message: start line + body length.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Message {
    start_line: String,
    body_len: usize,
}

impl MessageParser {
    fn feed(&mut self, mut data: &[u8]) -> Vec<Message> {
        let mut out = Vec::new();
        loop {
            if let Some((_, left)) = &mut self.body {
                let take = (*left).min(data.len());
                *left -= take;
                data = &data[take..];
                if *left > 0 {
                    break;
                }
                out.extend(self.body.take().map(|(msg, _)| msg));
                continue;
            }
            let Some(end) = header_end(&self.head, data) else {
                self.head.extend_from_slice(data);
                break;
            };
            self.head.extend_from_slice(&data[..end]);
            data = &data[end..];
            let header = String::from_utf8_lossy(&self.head[..self.head.len() - 4]);
            let body_len = header
                .lines()
                .find_map(|l| {
                    let l = l.trim();
                    let rest = l
                        .strip_prefix("Content-Length:")
                        .or_else(|| l.strip_prefix("content-length:"))?;
                    rest.trim().parse::<usize>().ok()
                })
                .unwrap_or(0);
            let start_line = header.lines().next().unwrap_or_default().to_string();
            self.head.clear();
            self.body = Some((Message { start_line, body_len }, body_len));
        }
        out
    }
}

/// How many bytes of `data` complete a header of which `head` was read
/// already: the search covers the new bytes and the last three old ones,
/// where a `\r\n\r\n` cut by a record boundary starts.
fn header_end(head: &[u8], data: &[u8]) -> Option<usize> {
    const END: &[u8] = b"\r\n\r\n";
    let old = &head[head.len().saturating_sub(3)..];
    let mut edge = [0u8; 6];
    let new = data.len().min(3);
    edge[..old.len()].copy_from_slice(old);
    edge[old.len()..old.len() + new].copy_from_slice(&data[..new]);
    let across = edge[..old.len() + new].windows(4).position(|w| w == END);
    match across {
        Some(at) => Some(at + 4 - old.len()),
        None => data.windows(4).position(|w| w == END).map(|at| at + 4),
    }
}

fn format_request(method: &str, path: &str, body_len: usize) -> String {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: platform\r\nContent-Length: {body_len}\r\nConnection: keep-alive\r\n\r\n"
    )
}

fn format_response(status: u16, body_len: usize) -> String {
    let reason = if status == 200 { "OK" } else { "Error" };
    format!("HTTP/1.1 {status} {reason}\r\nContent-Length: {body_len}\r\n\r\n")
}

/// Fill byte of request bodies.
const REQUEST_FILL: u8 = 0;
/// Fill byte of response bodies.
const RESPONSE_FILL: u8 = 0x42;

/// Seal a message head and `body_len` fill bytes, and hand the records
/// to TCP without copying them.
fn send_sealed(tcp: &mut TcpConnection, now: SimTime, head: &str, fill: u8, body_len: usize) -> Vec<Packet> {
    tcp.send_chunks(now, seal(CONTENT_APPDATA, head.as_bytes(), fill, body_len))
}

/// HTTPS client endpoint.
#[derive(Debug)]
pub struct HttpClient {
    tcp: TcpConnection,
    tls: TlsSession,
    unsealer: RecordUnsealer,
    parser: MessageParser,
    /// Requests issued but not yet answered (FIFO; HTTP/1.1 pipelining).
    inflight: VecDeque<(String, SimTime)>,
    /// Request heads and body lengths queued until TLS establishes.
    queued: VecDeque<(String, usize)>,
    ready_emitted: bool,
}

impl HttpClient {
    /// Open a connection; returns the client and the TCP SYN.
    pub fn connect(cfg: TcpConfig, local_port: u16, remote_port: u16, now: SimTime) -> (Self, Vec<Packet>) {
        let (tcp, pkts) = TcpConnection::client(cfg, local_port, remote_port, now);
        (
            HttpClient {
                tcp,
                tls: TlsSession::client(HandshakeProfile::default()),
                unsealer: RecordUnsealer::new(),
                parser: MessageParser::default(),
                inflight: VecDeque::new(),
                queued: VecDeque::new(),
                ready_emitted: false,
            },
            pkts,
        )
    }

    /// Whether TLS is established and requests flow immediately.
    pub fn is_ready(&self) -> bool {
        self.tls.is_established()
    }

    /// Whether TCP has unacknowledged data in flight (the Worlds
    /// UDP-gating signal of §8.1).
    pub fn has_unacked_data(&self) -> bool {
        self.tcp.has_unacked_data()
    }

    /// Access the underlying TCP connection (for diagnostics).
    pub fn tcp(&self) -> &TcpConnection {
        &self.tcp
    }

    /// Issue a request with a body of `body_len` bytes (queued until
    /// TLS is up).
    pub fn request(&mut self, now: SimTime, method: &str, path: &str, body_len: usize) -> Vec<Packet> {
        self.inflight.push_back((path.to_string(), now));
        let head = format_request(method, path, body_len);
        if !self.tls.is_established() {
            self.queued.push_back((head, body_len));
            return Vec::new();
        }
        send_sealed(&mut self.tcp, now, &head, REQUEST_FILL, body_len)
    }

    fn drain_queued(&mut self, now: SimTime) -> Vec<Packet> {
        let mut out = Vec::new();
        while let Some((head, body_len)) = self.queued.pop_front() {
            out.extend(send_sealed(&mut self.tcp, now, &head, REQUEST_FILL, body_len));
        }
        out
    }

    fn process_tcp_events(
        &mut self,
        now: SimTime,
        tcp_events: Vec<TcpEvent>,
        out: &mut Vec<Packet>,
        events: &mut Vec<HttpEvent>,
    ) {
        for ev in tcp_events {
            match ev {
                TcpEvent::Connected => {
                    if let Some(flight) = self.tls.flight_to_send() {
                        out.extend(self.tcp.send_chunks(now, flight));
                    }
                }
                TcpEvent::Data(data) => {
                    let records = match self.unsealer.feed(&data) {
                        Ok(r) => r,
                        Err(_) => continue, // corrupted record: drop
                    };
                    for rec in records {
                        self.handle_record(now, &rec, out, events);
                    }
                }
                TcpEvent::Dead => events.push(HttpEvent::Dead),
                TcpEvent::Closed => {}
            }
        }
    }

    fn handle_record(
        &mut self,
        now: SimTime,
        rec: &PlainRecord,
        out: &mut Vec<Packet>,
        events: &mut Vec<HttpEvent>,
    ) {
        if rec.content_type == CONTENT_HANDSHAKE {
            if let Some(resp) = self.tls.on_handshake_record(rec) {
                out.extend(self.tcp.send_chunks(now, resp));
            }
            if self.tls.is_established() && !self.ready_emitted {
                self.ready_emitted = true;
                events.push(HttpEvent::Ready);
                out.extend(self.drain_queued(now));
            }
            return;
        }
        for msg in self.parser.feed(&rec.plaintext) {
            let status: u16 = msg
                .start_line
                .split_whitespace()
                .nth(1)
                .and_then(|s| s.parse().ok())
                .unwrap_or(0);
            if let Some((path, started)) = self.inflight.pop_front() {
                events.push(HttpEvent::Response(HttpExchange {
                    path,
                    status,
                    body_len: msg.body_len,
                    started,
                    completed: now,
                }));
            }
        }
    }

    /// Process an incoming packet.
    pub fn on_packet(&mut self, now: SimTime, pkt: &Packet) -> (Vec<Packet>, Vec<HttpEvent>) {
        let (mut out, tcp_events) = self.tcp.on_packet(now, pkt);
        let mut events = Vec::new();
        self.process_tcp_events(now, tcp_events, &mut out, &mut events);
        (out, events)
    }

    /// Drive timers.
    pub fn on_tick(&mut self, now: SimTime) -> (Vec<Packet>, Vec<HttpEvent>) {
        let (mut out, tcp_events) = self.tcp.on_tick(now);
        let mut events = Vec::new();
        self.process_tcp_events(now, tcp_events, &mut out, &mut events);
        (out, events)
    }

    /// Next timer deadline of the underlying TCP machine.
    pub fn next_timer(&self) -> Option<SimTime> {
        self.tcp.next_timer()
    }
}

/// Decides the response to a request: `(status, body_len)`.
pub type Responder = Box<dyn FnMut(&str, usize) -> (u16, usize) + Send>;

/// HTTPS server endpoint (one per client connection).
pub struct HttpServer {
    tcp: TcpConnection,
    tls: TlsSession,
    unsealer: RecordUnsealer,
    parser: MessageParser,
    responder: Responder,
    /// Requests served.
    pub requests_served: u64,
}

impl std::fmt::Debug for HttpServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HttpServer")
            .field("requests_served", &self.requests_served)
            .finish_non_exhaustive()
    }
}

impl HttpServer {
    /// Create a server endpoint awaiting a client SYN.
    pub fn listen(cfg: TcpConfig, local_port: u16, remote_port: u16, responder: Responder) -> Self {
        HttpServer {
            tcp: TcpConnection::listen(cfg, local_port, remote_port),
            tls: TlsSession::server(HandshakeProfile::default()),
            unsealer: RecordUnsealer::new(),
            parser: MessageParser::default(),
            responder,
            requests_served: 0,
        }
    }

    /// Process an incoming packet.
    pub fn on_packet(&mut self, now: SimTime, pkt: &Packet) -> Vec<Packet> {
        let (mut out, tcp_events) = self.tcp.on_packet(now, pkt);
        for ev in tcp_events {
            if let TcpEvent::Data(data) = ev {
                let Ok(records) = self.unsealer.feed(&data) else { continue };
                for rec in records {
                    if rec.content_type == CONTENT_HANDSHAKE {
                        if let Some(resp) = self.tls.on_handshake_record(&rec) {
                            out.extend(self.tcp.send_chunks(now, resp));
                        }
                        continue;
                    }
                    for msg in self.parser.feed(&rec.plaintext) {
                        let path = msg
                            .start_line
                            .split_whitespace()
                            .nth(1)
                            .unwrap_or("/")
                            .to_string();
                        let (status, body_len) = (self.responder)(&path, msg.body_len);
                        self.requests_served += 1;
                        let head = format_response(status, body_len);
                        out.extend(send_sealed(&mut self.tcp, now, &head, RESPONSE_FILL, body_len));
                    }
                }
            }
        }
        out
    }

    /// Drive timers.
    pub fn on_tick(&mut self, now: SimTime) -> Vec<Packet> {
        let (out, _) = self.tcp.on_tick(now);
        out
    }

    /// Next timer deadline.
    pub fn next_timer(&self) -> Option<SimTime> {
        self.tcp.next_timer()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use svr_netsim::SimDuration;

    /// Drive a client/server pair over a zero-loss pipe with fixed delay.
    fn run_pair(
        client: &mut HttpClient,
        server: &mut HttpServer,
        mut from_client: Vec<Packet>,
        delay: SimDuration,
        start: SimTime,
        until: SimTime,
    ) -> Vec<HttpEvent> {
        let mut events = Vec::new();
        let mut c2s: VecDeque<(SimTime, Packet)> = VecDeque::new();
        let mut s2c: VecDeque<(SimTime, Packet)> = VecDeque::new();
        let mut now = start;
        for p in from_client.drain(..) {
            c2s.push_back((now + delay, p));
        }
        loop {
            let mut next = SimTime::MAX;
            if let Some((t, _)) = c2s.front() {
                next = next.min(*t);
            }
            if let Some((t, _)) = s2c.front() {
                next = next.min(*t);
            }
            if let Some(t) = client.next_timer() {
                next = next.min(t);
            }
            if let Some(t) = server.next_timer() {
                next = next.min(t);
            }
            if next > until {
                break;
            }
            now = next;
            if let Some((t, _)) = c2s.front() {
                if *t <= now {
                    let (_, p) = c2s.pop_front().unwrap();
                    for pkt in server.on_packet(now, &p) {
                        s2c.push_back((now + delay, pkt));
                    }
                    continue;
                }
            }
            if let Some((t, _)) = s2c.front() {
                if *t <= now {
                    let (_, p) = s2c.pop_front().unwrap();
                    let (pkts, evs) = client.on_packet(now, &p);
                    events.extend(evs);
                    for pkt in pkts {
                        c2s.push_back((now + delay, pkt));
                    }
                    continue;
                }
            }
            let (pkts, evs) = client.on_tick(now);
            events.extend(evs);
            for pkt in pkts {
                c2s.push_back((now + delay, pkt));
            }
            for pkt in server.on_tick(now) {
                s2c.push_back((now + delay, pkt));
            }
        }
        events
    }

    fn new_pair(responder: Responder) -> (HttpClient, HttpServer, Vec<Packet>) {
        let cfg = TcpConfig::default();
        let (client, syn) = HttpClient::connect(cfg, 50_000, 443, SimTime::ZERO);
        let server = HttpServer::listen(cfg, 443, 50_000, responder);
        (client, server, syn)
    }

    #[test]
    fn request_response_roundtrip() {
        let (mut client, mut server, syn) = new_pair(Box::new(|path, _| {
            assert_eq!(path, "/menu");
            (200, 5_000)
        }));
        let mut pkts = syn;
        pkts.extend(client.request(SimTime::ZERO, "GET", "/menu", 0));
        let events = run_pair(
            &mut client,
            &mut server,
            pkts,
            SimDuration::from_millis(10),
            SimTime::ZERO,
            SimTime::from_secs(10),
        );
        assert!(events.contains(&HttpEvent::Ready));
        let resp = events
            .iter()
            .find_map(|e| match e {
                HttpEvent::Response(x) => Some(x.clone()),
                _ => None,
            })
            .expect("response arrived");
        assert_eq!(resp.status, 200);
        assert_eq!(resp.body_len, 5_000);
        assert_eq!(resp.path, "/menu");
        assert!(resp.completed > resp.started);
        assert_eq!(server.requests_served, 1);
    }

    #[test]
    fn queued_requests_flow_after_tls() {
        // Request issued immediately at connect time must survive the
        // handshake and still be answered.
        let (mut client, mut server, syn) = new_pair(Box::new(|_, _| (200, 10)));
        let mut pkts = syn;
        pkts.extend(client.request(SimTime::ZERO, "POST", "/report", 500));
        let events = run_pair(
            &mut client,
            &mut server,
            pkts,
            SimDuration::from_millis(5),
            SimTime::ZERO,
            SimTime::from_secs(10),
        );
        let responses: Vec<_> = events
            .iter()
            .filter(|e| matches!(e, HttpEvent::Response(_)))
            .collect();
        assert_eq!(responses.len(), 1);
    }

    #[test]
    fn pipelined_requests_answered_in_order() {
        let (mut client, mut server, syn) = new_pair(Box::new(|path, _| {
            (200, if path == "/a" { 100 } else { 200 })
        }));
        let mut pkts = syn;
        pkts.extend(client.request(SimTime::ZERO, "GET", "/a", 0));
        pkts.extend(client.request(SimTime::ZERO, "GET", "/b", 0));
        let events = run_pair(
            &mut client,
            &mut server,
            pkts,
            SimDuration::from_millis(5),
            SimTime::ZERO,
            SimTime::from_secs(10),
        );
        let resps: Vec<HttpExchange> = events
            .into_iter()
            .filter_map(|e| match e {
                HttpEvent::Response(x) => Some(x),
                _ => None,
            })
            .collect();
        assert_eq!(resps.len(), 2);
        assert_eq!(resps[0].path, "/a");
        assert_eq!(resps[0].body_len, 100);
        assert_eq!(resps[1].path, "/b");
        assert_eq!(resps[1].body_len, 200);
    }

    /// Up to VRChat's 22 MB initialization download: the body is sealed
    /// as shared records and counted, never buffered, on both sides.
    #[test]
    fn large_response_spans_many_segments() {
        for size in [300_000, 22_000_000] {
            let (mut client, mut server, syn) = new_pair(Box::new(move |_, _| (200, size)));
            let mut pkts = syn;
            pkts.extend(client.request(SimTime::ZERO, "GET", "/world.glb", 0));
            let events = run_pair(
                &mut client,
                &mut server,
                pkts,
                SimDuration::from_millis(10),
                SimTime::ZERO,
                SimTime::from_secs(60),
            );
            let resp = events
                .iter()
                .find_map(|e| match e {
                    HttpEvent::Response(x) => Some(x.clone()),
                    _ => None,
                })
                .expect("large response completes");
            assert_eq!(resp.body_len, size);
        }
    }

    #[test]
    fn request_latency_includes_handshake_and_rtt() {
        let (mut client, mut server, syn) = new_pair(Box::new(|_, _| (200, 10)));
        let mut pkts = syn;
        pkts.extend(client.request(SimTime::ZERO, "GET", "/x", 0));
        let delay = SimDuration::from_millis(35); // one-way; RTT 70 ms like Hubs
        let events = run_pair(
            &mut client,
            &mut server,
            pkts,
            delay,
            SimTime::ZERO,
            SimTime::from_secs(10),
        );
        let resp = events
            .iter()
            .find_map(|e| match e {
                HttpEvent::Response(x) => Some(x.clone()),
                _ => None,
            })
            .unwrap();
        let elapsed = resp.completed.saturating_since(resp.started);
        // SYN exchange + TLS flights + request/response ≥ 3 RTTs = 210 ms.
        assert!(
            elapsed >= SimDuration::from_millis(210),
            "elapsed {elapsed} too fast for 70 ms RTT handshake"
        );
    }

    #[test]
    fn message_parser_handles_fragmentation() {
        let mut p = MessageParser::default();
        let msg = b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello";
        assert!(p.feed(&msg[..10]).is_empty());
        assert!(p.feed(&msg[10..40]).is_empty());
        let done = p.feed(&msg[40..]);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].body_len, 5);
        assert_eq!(done[0].start_line, "HTTP/1.1 200 OK");
    }

    #[test]
    fn message_parser_handles_back_to_back_messages() {
        let mut p = MessageParser::default();
        let two = b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nAHTTP/1.1 404 Error\r\nContent-Length: 0\r\n\r\n";
        let done = p.feed(two);
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].body_len, 1);
        assert!(done[1].start_line.contains("404"));
    }

    /// Two pipelined messages fed in two parts, cut at every offset:
    /// inside a start line, a `\r\n\r\n`, a body, or between them.
    #[test]
    fn message_parser_counts_bodies_at_every_split_point() {
        let two = b"POST /menu HTTP/1.1\r\nContent-Length: 8\r\n\r\nAB\r\n\r\nCDHTTP/1.1 200 OK\r\ncontent-length: 12\r\n\r\n\r\n\r\n12345678";
        let want = [
            Message { start_line: "POST /menu HTTP/1.1".into(), body_len: 8 },
            Message { start_line: "HTTP/1.1 200 OK".into(), body_len: 12 },
        ];
        for cut in 0..=two.len() {
            let mut p = MessageParser::default();
            let mut done = p.feed(&two[..cut]);
            done.extend(p.feed(&two[cut..]));
            assert_eq!(done, want, "cut at {cut}");
            assert!(p.head.is_empty() && p.body.is_none(), "cut at {cut}");
        }
    }

    #[test]
    fn message_without_content_length_has_empty_body() {
        let mut p = MessageParser::default();
        let done = p.feed(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].body_len, 0);
    }
}
