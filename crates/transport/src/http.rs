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
    seal_stream, HandshakeProfile, PlainRecord, RecordUnsealer, TlsSession, CONTENT_APPDATA,
    CONTENT_HANDSHAKE,
};
use svr_netsim::buf::{Bytes, BytesMut};
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

/// Incremental parser for `Content-Length`-framed HTTP messages.
#[derive(Debug, Default)]
struct MessageParser {
    buf: BytesMut,
}

/// One parsed message: start line + body.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Message {
    start_line: String,
    body: Bytes,
}

impl MessageParser {
    fn feed(&mut self, data: &[u8]) -> Vec<Message> {
        self.buf.extend_from_slice(data);
        let mut out = Vec::new();
        while let Some(header_end) = find_subslice(&self.buf, b"\r\n\r\n") {
            let header = String::from_utf8_lossy(&self.buf[..header_end]).into_owned();
            let content_length = header
                .lines()
                .find_map(|l| {
                    let l = l.trim();
                    let rest = l
                        .strip_prefix("Content-Length:")
                        .or_else(|| l.strip_prefix("content-length:"))?;
                    rest.trim().parse::<usize>().ok()
                })
                .unwrap_or(0);
            let total = header_end + 4 + content_length;
            if self.buf.len() < total {
                break;
            }
            let msg = self.buf.split_to(total).freeze();
            let start_line = header.lines().next().unwrap_or_default().to_string();
            out.push(Message {
                start_line,
                body: msg.slice(header_end + 4..),
            });
        }
        out
    }
}

fn find_subslice(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
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

/// Seal application bytes and hand the records to TCP. The plaintext is
/// freed first and TCP takes the sealed buffer, so a large response is
/// written twice and held twice at most.
fn send_sealed(tcp: &mut TcpConnection, now: SimTime, plain: Vec<u8>) -> Vec<Packet> {
    let sealed = seal_stream(CONTENT_APPDATA, &plain);
    drop(plain);
    tcp.send_buf(now, sealed)
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
    /// Requests queued until TLS establishes.
    queued: VecDeque<(String, Vec<u8>)>,
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

    /// Issue a request (queued until TLS is up).
    pub fn request(&mut self, now: SimTime, method: &str, path: &str, body: &[u8]) -> Vec<Packet> {
        if !self.tls.is_established() {
            self.queued.push_back((format!("{method} {path}"), body.to_vec()));
            // Store enough to rebuild: we re-issue from `queued` on Ready.
            self.inflight.push_back((path.to_string(), now));
            return Vec::new();
        }
        self.inflight.push_back((path.to_string(), now));
        let head = format_request(method, path, body.len());
        let mut plain = head.into_bytes();
        plain.extend_from_slice(body);
        send_sealed(&mut self.tcp, now, plain)
    }

    fn drain_queued(&mut self, now: SimTime) -> Vec<Packet> {
        let mut out = Vec::new();
        while let Some((head, body)) = self.queued.pop_front() {
            let mut it = head.splitn(2, ' ');
            let method = it.next().unwrap_or("GET").to_string();
            let path = it.next().unwrap_or("/").to_string();
            let req = format_request(&method, &path, body.len());
            let mut plain = req.into_bytes();
            plain.extend_from_slice(&body);
            out.extend(send_sealed(&mut self.tcp, now, plain));
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
                        out.extend(self.tcp.send_data(now, &flight));
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
                out.extend(self.tcp.send_data(now, &resp));
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
                    body_len: msg.body.len(),
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
                            out.extend(self.tcp.send_data(now, &resp));
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
                        let (status, body_len) = (self.responder)(&path, msg.body.len());
                        self.requests_served += 1;
                        let head = format_response(status, body_len);
                        let mut plain = head.into_bytes();
                        plain.extend(std::iter::repeat_n(0x42u8, body_len));
                        out.extend(send_sealed(&mut self.tcp, now, plain));
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
        pkts.extend(client.request(SimTime::ZERO, "GET", "/menu", &[]));
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
        pkts.extend(client.request(SimTime::ZERO, "POST", "/report", &[1u8; 500]));
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
        pkts.extend(client.request(SimTime::ZERO, "GET", "/a", &[]));
        pkts.extend(client.request(SimTime::ZERO, "GET", "/b", &[]));
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

    #[test]
    fn large_response_spans_many_segments() {
        let (mut client, mut server, syn) = new_pair(Box::new(|_, _| (200, 300_000)));
        let mut pkts = syn;
        pkts.extend(client.request(SimTime::ZERO, "GET", "/world.glb", &[]));
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
        assert_eq!(resp.body_len, 300_000);
    }

    #[test]
    fn request_latency_includes_handshake_and_rtt() {
        let (mut client, mut server, syn) = new_pair(Box::new(|_, _| (200, 10)));
        let mut pkts = syn;
        pkts.extend(client.request(SimTime::ZERO, "GET", "/x", &[]));
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
        assert_eq!(done[0].body.as_ref(), b"hello");
        assert_eq!(done[0].start_line, "HTTP/1.1 200 OK");
    }

    #[test]
    fn message_parser_handles_back_to_back_messages() {
        let mut p = MessageParser::default();
        let two = b"HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nAHTTP/1.1 404 Error\r\nContent-Length: 0\r\n\r\n";
        let done = p.feed(two);
        assert_eq!(done.len(), 2);
        assert_eq!(done[0].body.as_ref(), b"A");
        assert!(done[1].start_line.contains("404"));
    }

    #[test]
    fn message_without_content_length_has_empty_body() {
        let mut p = MessageParser::default();
        let done = p.feed(b"GET / HTTP/1.1\r\nHost: x\r\n\r\n");
        assert_eq!(done.len(), 1);
        assert!(done[0].body.is_empty());
    }
}
