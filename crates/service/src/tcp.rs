//! Framed-TCP transport: [`TcpService`] serves a [`ServiceStack`] over a
//! `std::net` listener, [`TcpClient`] speaks the same frames from the other
//! end.
//!
//! One length-prefixed request frame in, one response frame out, pipelined
//! per connection; each accepted connection gets its own thread, so clients
//! are isolated from each other's latency.  Malformed frames answer with an
//! [`InvalidRequest`](sigma_core::ServiceCode::InvalidRequest) envelope when
//! the direction is still recoverable, and close the connection otherwise —
//! a framing error means the byte stream can no longer be trusted.

use crate::builder::ServiceStack;
use crate::codec::{
    self, decode_request, decode_response, encode_request, encode_response, CodecError,
};
use crate::{RequestEnvelope, ResponseEnvelope};
use sigma_core::ServiceCode;
use std::collections::HashMap;
use std::io::{self, BufReader, BufWriter};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// Live connections by connection id: one stream clone each, so shutdown can
/// sever streams that are blocked waiting for a client's next frame.  A
/// connection thread removes its own entry when it stops serving.
type Registry = Arc<Mutex<HashMap<u64, TcpStream>>>;

fn lock(registry: &Registry) -> MutexGuard<'_, HashMap<u64, TcpStream>> {
    registry.lock().unwrap_or_else(|e| e.into_inner())
}

/// A running framed-TCP server in front of a [`ServiceStack`].
///
/// Dropping the handle shuts the server down and joins every connection
/// thread.
pub struct TcpService {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    conns: Registry,
    accept_thread: Option<JoinHandle<()>>,
}

impl TcpService {
    /// Binds `addr` (use `127.0.0.1:0` for an ephemeral test port) and starts
    /// accepting connections, each served on its own thread.
    ///
    /// # Errors
    ///
    /// Returns the bind error verbatim.
    pub fn bind(addr: impl ToSocketAddrs, stack: Arc<ServiceStack>) -> io::Result<TcpService> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let conns: Registry = Arc::default();
        let accept_shutdown = shutdown.clone();
        let accept_conns = conns.clone();
        let accept_thread = std::thread::Builder::new()
            .name("sigma-service-accept".into())
            .spawn(move || {
                let mut workers = Vec::new();
                for (id, conn) in (0u64..).zip(listener.incoming()) {
                    if accept_shutdown.load(Ordering::SeqCst) {
                        break;
                    }
                    let Ok(stream) = conn else { continue };
                    if let Ok(clone) = stream.try_clone() {
                        let mut registry = lock(&accept_conns);
                        // Re-checked under the lock: shutdown raises the flag
                        // before draining, so a stream registered here is
                        // either drained by it or never served.
                        if accept_shutdown.load(Ordering::SeqCst) {
                            break;
                        }
                        registry.insert(id, clone);
                    }
                    let stack = stack.clone();
                    let conns = accept_conns.clone();
                    let spawned = std::thread::Builder::new()
                        .name("sigma-service-conn".into())
                        .spawn(move || {
                            serve_connection(stream, &stack);
                            lock(&conns).remove(&id);
                        });
                    match spawned {
                        Ok(handle) => workers.push(handle),
                        Err(_) => {
                            lock(&accept_conns).remove(&id);
                        }
                    }
                    workers.retain(|w| !w.is_finished());
                }
                for w in workers {
                    let _ = w.join();
                }
            })?;
        Ok(TcpService {
            local_addr,
            shutdown,
            conns,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address the server actually bound (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting, severs live connections, joins every thread.
    /// Idempotent.
    pub fn shutdown(&mut self) {
        if self.shutdown.swap(true, Ordering::SeqCst) {
            return;
        }
        // Connection threads block in read_frame until their client's next
        // frame; sever the streams so they observe EOF and exit.
        let registry = std::mem::take(&mut *lock(&self.conns));
        for stream in registry.into_values() {
            let _ = stream.shutdown(Shutdown::Both);
        }
        // `incoming()` blocks in accept(2); poke it awake with a throwaway
        // connection so the loop observes the flag.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for TcpService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

impl std::fmt::Debug for TcpService {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpService")
            .field("local_addr", &self.local_addr)
            .field("shutdown", &self.shutdown.load(Ordering::SeqCst))
            .finish()
    }
}

fn serve_connection(stream: TcpStream, stack: &ServiceStack) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(stream);
    let mut writer = BufWriter::new(write_half);
    loop {
        let body = match codec::read_frame(&mut reader) {
            Ok(body) => body,
            // Clean disconnect or torn stream either way: stop serving.
            Err(_) => return,
        };
        let response = match decode_request(&body) {
            Ok(req) => stack.call(req),
            // The frame boundary held, so the stream is still in sync;
            // answer the bad body and keep the connection.
            Err(err) => ResponseEnvelope {
                request_id: 0,
                code: ServiceCode::InvalidRequest,
                message: format!("undecodable request: {}", err),
                metadata: Default::default(),
                payload: Vec::new(),
            },
        };
        let Ok(frame) = encode_response(&response) else {
            return;
        };
        if codec::write_frame(&mut writer, &frame).is_err() {
            return;
        }
    }
}

/// A blocking framed-TCP client for [`TcpService`].
pub struct TcpClient {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    peer: SocketAddr,
}

impl TcpClient {
    /// Connects to a running service.
    ///
    /// # Errors
    ///
    /// Returns the connect error verbatim.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<TcpClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let peer = stream.peer_addr()?;
        let write_half = stream.try_clone()?;
        Ok(TcpClient {
            reader: BufReader::new(stream),
            writer: BufWriter::new(write_half),
            peer,
        })
    }

    /// Sends one request and blocks for its response.
    ///
    /// # Errors
    ///
    /// Returns [`CodecError`] on socket failure or an undecodable response
    /// frame.  Service-level rejections are *not* errors — they come back as
    /// envelopes with a non-[`Ok`](ServiceCode::Ok) code, exactly like the
    /// in-process transport.
    pub fn call(&mut self, req: &RequestEnvelope) -> Result<ResponseEnvelope, CodecError> {
        let frame = encode_request(req)?;
        codec::write_frame(&mut self.writer, &frame)?;
        let body = codec::read_frame(&mut self.reader)?;
        decode_response(&body)
    }

    /// The server address this client is connected to.
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer
    }
}

impl std::fmt::Debug for TcpClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TcpClient")
            .field("peer", &self.peer)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::is_clean_eof;
    use crate::middleware::{RateLimit, TenantQuota, TokenAuth};
    use crate::{Operation, ServiceBuilder};
    use sigma_core::{DedupCluster, SigmaConfig};

    fn serve_default_stack() -> (TcpService, Arc<ServiceStack>) {
        let cluster = Arc::new(DedupCluster::with_similarity_router(
            2,
            SigmaConfig::default(),
        ));
        let stack = Arc::new(
            ServiceBuilder::default_stack(
                TokenAuth::new().tenant("acme", "s3cret"),
                TenantQuota::new().budget("acme", 64 << 20),
                RateLimit::new(1000, 1000.0),
            )
            .build(cluster),
        );
        let service = TcpService::bind("127.0.0.1:0", stack.clone()).unwrap();
        (service, stack)
    }

    #[test]
    fn loopback_backup_restore_round_trip() {
        let (mut service, _stack) = serve_default_stack();
        let mut client = TcpClient::connect(service.local_addr()).unwrap();
        let payload = vec![0x5A; 200_000];
        let backup = client
            .call(
                &RequestEnvelope::new(
                    1,
                    "acme",
                    Operation::Backup {
                        file_name: "wire.bin".into(),
                        generation: 0,
                    },
                )
                .with_payload(payload.clone())
                .with_token("s3cret"),
            )
            .unwrap();
        assert!(backup.is_ok(), "{:?}", backup.message);
        let file_id = backup.metadata_u64(crate::backend::FILE_ID_KEY).unwrap();
        let restore = client
            .call(
                &RequestEnvelope::new(2, "acme", Operation::Restore { file_id })
                    .with_token("s3cret"),
            )
            .unwrap();
        assert_eq!(restore.payload, payload, "byte-identical over the wire");
        service.shutdown();
    }

    #[test]
    fn rejections_travel_as_envelopes_not_errors() {
        let (mut service, _stack) = serve_default_stack();
        let mut client = TcpClient::connect(service.local_addr()).unwrap();
        let resp = client
            .call(&RequestEnvelope::new(3, "acme", Operation::Stats).with_token("wrong"))
            .unwrap();
        assert_eq!(resp.code, ServiceCode::Unauthorized);
        // The connection survives a rejection.
        let resp = client
            .call(&RequestEnvelope::new(4, "acme", Operation::Stats).with_token("s3cret"))
            .unwrap();
        assert!(resp.is_ok());
        service.shutdown();
    }

    #[test]
    fn concurrent_clients_are_isolated() {
        let (mut service, _stack) = serve_default_stack();
        let addr = service.local_addr();
        let handles: Vec<_> = (0..4u64)
            .map(|i| {
                std::thread::spawn(move || {
                    let mut client = TcpClient::connect(addr).unwrap();
                    let payload = vec![i as u8; 10_000 + i as usize];
                    let backup = client
                        .call(
                            &RequestEnvelope::new(
                                i,
                                "acme",
                                Operation::Backup {
                                    file_name: format!("f{}", i),
                                    generation: 0,
                                },
                            )
                            .with_payload(payload.clone())
                            .with_token("s3cret"),
                        )
                        .unwrap();
                    assert!(backup.is_ok(), "{:?}", backup.message);
                    assert_eq!(backup.request_id, i, "correlator echoes back");
                    let file_id = backup.metadata_u64(crate::backend::FILE_ID_KEY).unwrap();
                    let restore = client
                        .call(
                            &RequestEnvelope::new(100 + i, "acme", Operation::Restore { file_id })
                                .with_token("s3cret"),
                        )
                        .unwrap();
                    assert_eq!(restore.payload, payload);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        service.shutdown();
    }

    #[test]
    fn undecodable_request_answers_invalid_request() {
        let (mut service, _stack) = serve_default_stack();
        let stream = TcpStream::connect(service.local_addr()).unwrap();
        let mut writer = BufWriter::new(stream.try_clone().unwrap());
        let mut reader = BufReader::new(stream);
        codec::write_frame(&mut writer, &[0xDE, 0xAD, 0xBE, 0xEF]).unwrap();
        let body = codec::read_frame(&mut reader).unwrap();
        let resp = decode_response(&body).unwrap();
        assert_eq!(resp.code, ServiceCode::InvalidRequest);
        service.shutdown();
    }

    #[test]
    fn shutdown_is_idempotent_and_drop_safe() {
        let (mut service, _stack) = serve_default_stack();
        service.shutdown();
        service.shutdown();
        drop(service);
    }

    #[test]
    fn clean_client_disconnect_is_quiet() {
        let (mut service, _stack) = serve_default_stack();
        {
            let mut client = TcpClient::connect(service.local_addr()).unwrap();
            let resp = client
                .call(&RequestEnvelope::new(1, "acme", Operation::Stats).with_token("s3cret"))
                .unwrap();
            assert!(resp.is_ok());
        } // client drops: connection thread sees EOF and exits.
        service.shutdown();
    }

    /// Polls until the server's connection registry holds `want` entries.
    fn wait_for_registry_len(service: &TcpService, want: usize) {
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        loop {
            let len = lock(&service.conns).len();
            if len == want {
                return;
            }
            assert!(
                std::time::Instant::now() < deadline,
                "registry stuck at {len} live connections, want {want}"
            );
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    }

    #[test]
    fn closed_connections_leave_the_registry_and_shutdown_severs_blocked_reads() {
        use std::io::{Read, Write};

        let (mut service, _stack) = serve_default_stack();
        let addr = service.local_addr();
        for _ in 0..200 {
            drop(TcpStream::connect(addr).unwrap());
        }
        // Connections are accepted in order, so once this call is answered
        // every earlier one has been registered.
        let mut client = TcpClient::connect(addr).unwrap();
        let resp = client
            .call(&RequestEnvelope::new(1, "acme", Operation::Stats).with_token("s3cret"))
            .unwrap();
        assert!(resp.is_ok());
        drop(client);
        wait_for_registry_len(&service, 0);

        // A frame header with no body leaves the server blocked mid-read.
        let mut blocked = TcpStream::connect(addr).unwrap();
        blocked.write_all(&16u32.to_le_bytes()).unwrap();
        wait_for_registry_len(&service, 1);
        let (done_tx, done_rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            service.shutdown();
            done_tx.send(lock(&service.conns).len()).unwrap();
        });
        let left = done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("shutdown must sever the blocked connection and return");
        assert_eq!(left, 0);
        blocked
            .set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        assert_eq!(blocked.read(&mut [0u8; 1]).unwrap(), 0, "server closed");
    }

    #[test]
    fn clean_eof_helper_matches_disconnect() {
        let err = CodecError::Io(io::Error::new(io::ErrorKind::UnexpectedEof, "eof"));
        assert!(is_clean_eof(&err));
        let err = CodecError::UnknownKind(9);
        assert!(!is_clean_eof(&err));
    }
}
