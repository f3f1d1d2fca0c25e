//! The TCP front door: one readiness-driven gateway thread per replica.
//!
//! A [`ServiceGateway`] owns the client listener for one replica. It is
//! a single thread multiplexing the listener and every client socket
//! through the same `poll(2)` wrapper the replica mesh reactor uses
//! (`meba_wire::poller`) — no thread-per-client. Each poll interval it:
//!
//! 1. accepts new connections and runs the [`ClientHello`] handshake
//!    (version + config digest, mirroring the replica link handshake);
//! 2. reads one request frame per readable client and feeds it to the
//!    replica's [`ServicePort`] — replying `Accepted` or the typed
//!    `Overloaded` immediately for submits;
//! 3. drains the port's reply events (`Committed`, `ReadResult`) and
//!    routes each to the connection registered for its client id.
//!
//! Events for clients that have disconnected are dropped: a reconnecting
//! client re-submits its unacked ops and the replica's dedup table
//! re-acks committed ones idempotently.

use crate::admission::{ServicePort, SubmitError};
use crate::protocol::{
    service_config_digest, validate_client_hello, ClientHello, ClientRequest, ServiceReply,
};
use meba_core::SystemConfig;
use meba_crypto::{ProcessId, WireCodec};
use meba_wire::frame::{read_frame, write_frame};
use meba_wire::poller::{poll, PollFd, POLLIN};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long the gateway blocks in `poll` per loop iteration.
const POLL_INTERVAL: Duration = Duration::from_millis(5);
/// Per-frame read budget once a socket reports readable.
const FRAME_TIMEOUT: Duration = Duration::from_secs(2);

struct Conn {
    stream: TcpStream,
    client: Option<u64>,
    /// Reused frame-read scratch: steady-state requests don't allocate.
    scratch: Vec<u8>,
}

/// A running gateway thread serving one replica's clients.
pub struct ServiceGateway {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ServiceGateway {
    /// Binds `bind` (e.g. `"127.0.0.1:0"`) and spawns the gateway loop
    /// serving `port` on behalf of `replica`.
    ///
    /// # Errors
    ///
    /// Propagates the listener bind failure.
    pub fn spawn(
        bind: &str,
        cfg: &SystemConfig,
        replica: ProcessId,
        port: Arc<ServicePort>,
    ) -> io::Result<ServiceGateway> {
        let listener = TcpListener::bind(bind)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let digest = service_config_digest(cfg);
        let thread_stop = stop.clone();
        let handle = std::thread::Builder::new()
            .name(format!("svc-gateway-{replica}"))
            .spawn(move || gateway_loop(listener, digest, replica, port, thread_stop))
            .expect("spawn gateway thread");
        Ok(ServiceGateway { addr, stop, handle: Some(handle) })
    }

    /// The bound listener address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the gateway loop and joins the thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for ServiceGateway {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn gateway_loop(
    listener: TcpListener,
    digest: meba_crypto::Digest,
    replica: ProcessId,
    port: Arc<ServicePort>,
    stop: Arc<AtomicBool>,
) {
    let mut conns: Vec<Conn> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        let mut fds = Vec::with_capacity(1 + conns.len());
        fds.push(PollFd::new(listener.as_raw_fd(), POLLIN));
        for c in &conns {
            fds.push(PollFd::new(c.stream.as_raw_fd(), POLLIN));
        }
        let _ = poll(&mut fds, POLL_INTERVAL);

        if fds[0].readable() {
            while let Ok((stream, _)) = listener.accept() {
                // No Nagle delay: a reply frame is one small segment.
                if stream.set_nonblocking(true).and_then(|()| stream.set_nodelay(true)).is_ok() {
                    conns.push(Conn { stream, client: None, scratch: Vec::new() });
                }
            }
        }

        let mut alive = Vec::with_capacity(conns.len());
        for (i, mut conn) in conns.into_iter().enumerate() {
            let keep = if fds.get(i + 1).is_some_and(|fd| fd.readable()) {
                serve_readable(&mut conn, &digest, replica, &port).is_ok()
            } else {
                true
            };
            if keep {
                alive.push(conn);
            }
        }
        conns = alive;

        for ev in port.drain_events() {
            let target = match &ev {
                ServiceReply::Committed { client, .. }
                | ServiceReply::ReadResult { client, .. }
                | ServiceReply::Accepted { client, .. }
                | ServiceReply::Overloaded { client, .. } => *client,
                ServiceReply::HelloOk { .. } => continue,
            };
            if let Some(conn) = conns.iter_mut().find(|c| c.client == Some(target)) {
                // A failed write means the client vanished; the next
                // poll's read error reaps the connection.
                let _ = write_reply(&mut conn.stream, &ev);
            }
        }
    }
}

/// Reads and serves one frame from a readable client socket. `Err` means
/// the connection is dead (or the handshake was rejected) and should be
/// reaped.
fn serve_readable(
    conn: &mut Conn,
    digest: &meba_crypto::Digest,
    replica: ProcessId,
    port: &Arc<ServicePort>,
) -> io::Result<()> {
    let Conn { stream, client, scratch } = conn;
    read_one_frame(stream, scratch)?;
    match *client {
        None => {
            let hello = ClientHello::from_wire_bytes(scratch)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad client hello"))?;
            validate_client_hello(digest, &hello)
                .map_err(|e| io::Error::new(io::ErrorKind::PermissionDenied, e.to_string()))?;
            *client = Some(hello.client);
            write_reply(stream, &ServiceReply::HelloOk { replica })
        }
        Some(client) => {
            let req = ClientRequest::from_wire_bytes(scratch)
                .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "bad client request"))?;
            match req {
                ClientRequest::Submit { op } => {
                    let reply = match port.submit(op) {
                        Ok(()) => ServiceReply::Accepted { client: op.client, seq: op.seq },
                        Err(SubmitError::Overloaded { queue_len, capacity }) => {
                            ServiceReply::Overloaded {
                                client: op.client,
                                seq: op.seq,
                                queue_len: queue_len as u64,
                                capacity: capacity as u64,
                            }
                        }
                    };
                    write_reply(stream, &reply)
                }
                ClientRequest::Read { client: c, key, mode } => {
                    match port.read(c, key, mode) {
                        Ok(()) => Ok(()), // the ReadResult event answers
                        Err(SubmitError::Overloaded { queue_len, capacity }) => write_reply(
                            stream,
                            &ServiceReply::Overloaded {
                                client,
                                seq: 0,
                                queue_len: queue_len as u64,
                                capacity: capacity as u64,
                            },
                        ),
                    }
                }
            }
        }
    }
}

/// Reads one length-prefixed frame from a nonblocking socket by briefly
/// switching it to blocking mode with a read deadline. Frames are tiny
/// (requests are a few dozen bytes), so the switch cannot stall the loop
/// meaningfully; the deadline bounds a half-written frame from a dying
/// client.
fn read_one_frame(stream: &mut TcpStream, payload: &mut Vec<u8>) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(FRAME_TIMEOUT))?;
    let res = read_frame(stream, payload)
        .map_err(|e| io::Error::new(io::ErrorKind::UnexpectedEof, e.to_string()));
    stream.set_nonblocking(true)?;
    res
}

fn write_reply(stream: &mut TcpStream, reply: &ServiceReply) -> io::Result<()> {
    stream.set_nonblocking(false)?;
    let res = write_frame(stream, &reply.to_wire_bytes())
        .map_err(|e| io::Error::new(io::ErrorKind::BrokenPipe, e.to_string()));
    stream.set_nonblocking(true)?;
    res
}
