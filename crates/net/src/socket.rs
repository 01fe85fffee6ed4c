//! The socket backend: one implementation generic over TCP and Unix
//! domain sockets.
//!
//! Each rank binds one listener. Data connections are opened lazily by
//! the sender (one connection per directed rank pair, all channels
//! multiplexed over it); the acceptor verifies the handshake, then a
//! reader thread demultiplexes incoming frames into per-`(from, chan)`
//! queues. Frames for channels nobody has opened yet are buffered, so
//! open order never races message arrival. When a peer's connection
//! dies, its queues are torn down and every blocked receiver wakes
//! with [`TransportError::PeerClosed`] instead of hanging.

use crate::error::TransportError;
use crate::frame::{
    read_frame, write_frame, write_frame_with, FrameError, Handshake, CTRL_CHAN, FRAME_OVERHEAD,
    HS_CHAN,
};
use crate::throttle::TokenBucket;
use crate::{FrameRx, FrameTx, Transport, TransportKind};
use std::collections::{HashMap, HashSet, VecDeque};
use std::io::{BufReader, IoSlice, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, RecvTimeoutError, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Timeouts and shaping knobs for a socket endpoint.
#[derive(Debug, Clone, Copy)]
pub struct SocketOptions {
    /// How long a lazy connect retries before giving up (covers peers
    /// that have not bound their listener yet).
    pub connect_timeout: Duration,
    /// How long either side of a handshake waits for the other.
    pub handshake_timeout: Duration,
    /// Outgoing bandwidth cap in megabits per second (TCP only; the
    /// checker rejects it elsewhere as `AC0703`). The cap models the
    /// rank's NIC: all connections of the endpoint share one bucket.
    pub link_mbps: Option<f64>,
    /// Restart generation of the run. Carried in every handshake and
    /// enforced by the acceptor, so a worker left over from a fenced
    /// generation cannot feed stale frames into a recovered run.
    pub epoch: u32,
}

impl Default for SocketOptions {
    fn default() -> Self {
        SocketOptions {
            connect_timeout: Duration::from_secs(10),
            handshake_timeout: Duration::from_secs(10),
            link_mbps: None,
            epoch: 0,
        }
    }
}

/// A listener of either flavor.
pub(crate) enum ListenerInner {
    Tcp(TcpListener),
    #[cfg(unix)]
    Uds(UnixListener),
}

/// A connected stream of either flavor.
pub(crate) enum Stream {
    Tcp(TcpStream),
    #[cfg(unix)]
    Uds(UnixStream),
}

impl Stream {
    fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.set_read_timeout(t),
            #[cfg(unix)]
            Stream::Uds(s) => s.set_read_timeout(t),
        }
    }

    /// Hard-closes both directions — the fault-injection `sever` hook.
    fn shutdown_both(&self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.shutdown(Shutdown::Both),
            #[cfg(unix)]
            Stream::Uds(s) => s.shutdown(Shutdown::Both),
        }
    }
}

impl Read for Stream {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Stream::Uds(s) => s.read(buf),
        }
    }
}

impl Write for Stream {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Stream::Uds(s) => s.write(buf),
        }
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> std::io::Result<usize> {
        match self {
            Stream::Tcp(s) => s.write_vectored(bufs),
            #[cfg(unix)]
            Stream::Uds(s) => s.write_vectored(bufs),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Stream::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Stream::Uds(s) => s.flush(),
        }
    }
}

/// Incoming-frame router shared between reader threads and receivers.
#[derive(Default)]
struct DemuxState {
    /// Live queues for opened receive channels.
    queues: HashMap<(usize, u16), Sender<Vec<u8>>>,
    /// Frames that arrived before their channel was opened.
    pending: HashMap<(usize, u16), VecDeque<Vec<u8>>>,
    /// Peers whose inbound connection hit EOF or an error.
    closed: HashSet<usize>,
    /// Peers whose connection died on a corrupt frame, with the CRC
    /// failure that killed it. Receivers report [`TransportError::
    /// FrameCorrupt`] instead of `PeerClosed` for these.
    corrupt: HashMap<usize, String>,
}

type Demux = Arc<Mutex<DemuxState>>;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Monotonic suffix for Unix socket paths within one process.
static UDS_COUNTER: AtomicU64 = AtomicU64::new(0);

/// Owns a bound Unix-socket path and unlinks it on drop, so a worker
/// that panics (or a transport dropped on any error path) never leaks
/// a stale socket file for the next run to trip over.
struct UdsPathGuard(PathBuf);

impl Drop for UdsPathGuard {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

/// Binds a Unix listener at `path`, reclaiming a stale path left by an
/// abnormally killed process: if the bind hits `AddrInUse` but nobody
/// answers a probe connect, the file is a leftover — unlink and retry.
/// A live listener on the path keeps the original error.
#[cfg(unix)]
fn bind_uds(path: &std::path::Path) -> std::io::Result<UnixListener> {
    match UnixListener::bind(path) {
        Err(e) if e.kind() == std::io::ErrorKind::AddrInUse => {
            match UnixStream::connect(path) {
                // Someone is actually listening: a genuine collision.
                Ok(_) => Err(e),
                Err(_) => {
                    std::fs::remove_file(path)?;
                    UnixListener::bind(path)
                }
            }
        }
        other => other,
    }
}

/// One rank's socket endpoint (TCP or Unix domain).
///
/// Build with [`SocketTransport::bind`], exchange addresses out of
/// band, install the peer table with [`SocketTransport::set_peer`],
/// then open channels through the [`Transport`] trait.
pub struct SocketTransport {
    kind: TransportKind,
    rank: usize,
    world: usize,
    config_hash: u64,
    opts: SocketOptions,
    addr: String,
    peers: Vec<Option<String>>,
    demux: Demux,
    conns: HashMap<usize, Arc<Mutex<Stream>>>,
    bucket: Option<Arc<Mutex<TokenBucket>>>,
    accept_handle: Option<JoinHandle<()>>,
    stop: Arc<AtomicBool>,
    uds_path: Option<UdsPathGuard>,
}

impl std::fmt::Debug for SocketTransport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "SocketTransport({} rank {}/{} at {})",
            self.kind, self.rank, self.world, self.addr
        )
    }
}

impl SocketTransport {
    /// Binds this rank's listener (an ephemeral loopback port for TCP,
    /// a fresh temp-dir socket file for UDS) and starts accepting.
    ///
    /// `config_hash` must be identical on every rank of the run; the
    /// handshake enforces it.
    pub fn bind(
        kind: TransportKind,
        rank: usize,
        world: usize,
        config_hash: u64,
        opts: SocketOptions,
    ) -> Result<SocketTransport, TransportError> {
        let (listener, addr, uds_path) = match kind {
            TransportKind::Tcp => {
                let l = TcpListener::bind("127.0.0.1:0")
                    .map_err(|e| TransportError::io("binding a loopback TCP listener", &e))?;
                let a = l
                    .local_addr()
                    .map_err(|e| TransportError::io("reading the bound TCP address", &e))?;
                (ListenerInner::Tcp(l), a.to_string(), None)
            }
            #[cfg(unix)]
            TransportKind::Uds => {
                let path = std::env::temp_dir().join(format!(
                    "actcomp-{}-{}-{}.sock",
                    std::process::id(),
                    rank,
                    UDS_COUNTER.fetch_add(1, Ordering::Relaxed),
                ));
                let l = bind_uds(&path).map_err(|e| {
                    TransportError::io(format!("binding unix socket {}", path.display()), &e)
                })?;
                let a = path.display().to_string();
                (ListenerInner::Uds(l), a, Some(UdsPathGuard(path)))
            }
            #[cfg(not(unix))]
            TransportKind::Uds => {
                return Err(TransportError::BadAddress {
                    addr: String::new(),
                    reason: "unix domain sockets are unavailable on this platform".to_string(),
                })
            }
            TransportKind::Mpsc => {
                return Err(TransportError::UnknownTransport(
                    "mpsc is not a socket transport; use actcomp_net::mpsc_world".to_string(),
                ))
            }
        };
        let demux: Demux = Arc::new(Mutex::new(DemuxState::default()));
        let stop = Arc::new(AtomicBool::new(false));
        let accept_handle = spawn_acceptor(
            listener,
            Arc::clone(&demux),
            Arc::clone(&stop),
            world,
            config_hash,
            opts.epoch,
            opts.handshake_timeout,
        );
        Ok(SocketTransport {
            kind,
            rank,
            world,
            config_hash,
            opts,
            addr,
            peers: (0..world).map(|_| None).collect(),
            demux,
            conns: HashMap::new(),
            bucket: opts
                .link_mbps
                .map(|m| Arc::new(Mutex::new(TokenBucket::from_mbps(m)))),
            accept_handle: Some(accept_handle),
            stop,
            uds_path,
        })
    }

    /// The address peers connect to (host:port for TCP, a filesystem
    /// path for UDS).
    pub fn local_addr(&self) -> &str {
        &self.addr
    }

    /// Records where rank `peer` listens; required before the first
    /// `open_send` to that rank.
    pub fn set_peer(&mut self, peer: usize, addr: String) {
        if peer < self.peers.len() {
            self.peers[peer] = Some(addr);
        }
    }

    /// Opens (or reuses) the data connection to `to`, performing the
    /// handshake on first use.
    fn ensure_conn(&mut self, to: usize) -> Result<Arc<Mutex<Stream>>, TransportError> {
        if let Some(c) = self.conns.get(&to) {
            return Ok(Arc::clone(c));
        }
        let addr = self.peers.get(to).and_then(|a| a.clone()).ok_or_else(|| {
            TransportError::BadAddress {
                addr: String::new(),
                reason: format!("no address recorded for rank {to} (peer table not installed?)"),
            }
        })?;
        let mut stream = connect_retry(self.kind, &addr, to, self.opts.connect_timeout)?;
        // Handshake: prove both ends run the same world, config, and
        // restart generation.
        let hs = Handshake {
            world: self.world as u32,
            from: self.rank as u32,
            config_hash: self.config_hash,
            epoch: self.opts.epoch,
        };
        write_frame(&mut stream, HS_CHAN, &hs.encode())
            .map_err(|e| TransportError::io(format!("handshaking with rank {to}"), &e))?;
        stream
            .set_read_timeout(Some(self.opts.handshake_timeout))
            .map_err(|e| TransportError::io("arming the handshake timeout", &e))?;
        let (chan, ack) = read_frame(&mut stream).map_err(|e| match e {
            FrameError::Io(e) if is_timeout(&e) => TransportError::Timeout {
                what: format!("handshake ack from rank {to}"),
                after: self.opts.handshake_timeout,
            },
            FrameError::Io(e) => {
                TransportError::io(format!("reading handshake ack from rank {to}"), &e)
            }
            corrupt => corrupt.into_transport("reading a handshake ack"),
        })?;
        if chan != HS_CHAN || ack.is_empty() {
            return Err(TransportError::BadFrame {
                what: format!("handshake ack on channel {chan}"),
            });
        }
        if ack[0] != 0 {
            return Err(TransportError::HandshakeRejected {
                reason: String::from_utf8_lossy(&ack[1..]).into_owned(),
            });
        }
        stream
            .set_read_timeout(None)
            .map_err(|e| TransportError::io("clearing the handshake timeout", &e))?;
        let conn = Arc::new(Mutex::new(stream));
        self.conns.insert(to, Arc::clone(&conn));
        Ok(conn)
    }
}

impl Transport for SocketTransport {
    fn kind(&self) -> TransportKind {
        self.kind
    }

    fn rank(&self) -> usize {
        self.rank
    }

    fn world(&self) -> usize {
        self.world
    }

    fn open_send(&mut self, to: usize, chan: u16) -> Result<Box<dyn FrameTx>, TransportError> {
        if chan >= CTRL_CHAN {
            return Err(TransportError::BadFrame {
                what: format!("application channel {chan} collides with a reserved channel"),
            });
        }
        if chan == 0 {
            return Err(TransportError::BadFrame {
                what: "channel 0 is reserved (corrupt-header sentinel)".to_string(),
            });
        }
        let conn = self.ensure_conn(to)?;
        Ok(Box::new(SocketTx {
            conn,
            chan,
            to,
            bucket: self.bucket.as_ref().map(Arc::clone),
        }))
    }

    fn open_recv(&mut self, from: usize, chan: u16) -> Result<Box<dyn FrameRx>, TransportError> {
        if from >= self.world {
            return Err(TransportError::BadAddress {
                addr: from.to_string(),
                reason: format!("rank out of range (world {})", self.world),
            });
        }
        let (tx, rx) = channel();
        let mut st = lock(&self.demux);
        if let Some(buffered) = st.pending.remove(&(from, chan)) {
            for frame in buffered {
                // The receiving half is right here; this cannot fail.
                let _ = tx.send(frame);
            }
        }
        if !st.closed.contains(&from) {
            st.queues.insert((from, chan), tx);
        }
        // When `from` is already closed the sender is dropped here, so
        // the receiver yields the buffered frames then PeerClosed (or
        // FrameCorrupt when corruption is what killed the connection).
        drop(st);
        Ok(Box::new(SocketRx {
            rx,
            from,
            demux: Arc::clone(&self.demux),
        }))
    }

    fn shutdown(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the acceptor with a throwaway connection; it checks the
        // stop flag after every accept.
        match self.kind {
            TransportKind::Tcp => {
                let _ = TcpStream::connect(&self.addr);
            }
            #[cfg(unix)]
            TransportKind::Uds => {
                let _ = UnixStream::connect(&self.addr);
            }
            _ => {}
        }
        if let Some(h) = self.accept_handle.take() {
            let _ = h.join();
        }
        // Closing our write sides EOFs the peers' reader threads; the
        // path guard unlinks the socket file.
        self.conns.clear();
        self.uds_path = None;
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Whether an I/O error is a read-timeout expiry (platform-dependent
/// kind).
fn is_timeout(e: &std::io::Error) -> bool {
    matches!(
        e.kind(),
        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
    )
}

/// Connects to `addr`, retrying connection-refused / not-found with
/// bounded exponential backoff until the deadline (the peer may not
/// have bound its listener yet, or may be restarting after a fault).
fn connect_retry(
    kind: TransportKind,
    addr: &str,
    to: usize,
    timeout: Duration,
) -> Result<Stream, TransportError> {
    // `usize::MAX` is the control plane (no rank yet).
    let who = if to == usize::MAX {
        "the control endpoint".to_string()
    } else {
        format!("rank {to}")
    };
    let deadline = Instant::now() + timeout;
    let mut backoff = Duration::from_millis(2);
    loop {
        let attempt: std::io::Result<Stream> = match kind {
            TransportKind::Tcp => TcpStream::connect(addr).map(|s| {
                let _ = s.set_nodelay(true);
                Stream::Tcp(s)
            }),
            #[cfg(unix)]
            TransportKind::Uds => UnixStream::connect(addr).map(Stream::Uds),
            _ => {
                return Err(TransportError::UnknownTransport(
                    "mpsc has no socket address".to_string(),
                ))
            }
        };
        match attempt {
            Ok(s) => return Ok(s),
            Err(e) => {
                let retryable = matches!(
                    e.kind(),
                    std::io::ErrorKind::ConnectionRefused
                        | std::io::ErrorKind::NotFound
                        | std::io::ErrorKind::ConnectionReset
                );
                if !retryable {
                    return Err(TransportError::io(
                        format!("connecting to {who} at {addr}"),
                        &e,
                    ));
                }
                let now = Instant::now();
                if now >= deadline {
                    return Err(TransportError::Timeout {
                        what: format!("connecting to {who} at {addr}"),
                        after: timeout,
                    });
                }
                // Bounded exponential backoff: fast while the peer is
                // milliseconds from binding, polite while it restarts.
                std::thread::sleep(backoff.min(deadline - now));
                backoff = (backoff * 2).min(Duration::from_millis(250));
            }
        }
    }
}

/// Spawns the accept loop: handshake every inbound connection, then
/// hand it to a detached reader thread that demultiplexes frames.
fn spawn_acceptor(
    listener: ListenerInner,
    demux: Demux,
    stop: Arc<AtomicBool>,
    world: usize,
    config_hash: u64,
    epoch: u32,
    handshake_timeout: Duration,
) -> JoinHandle<()> {
    std::thread::Builder::new()
        .name("actcomp-net-accept".to_string())
        .spawn(move || loop {
            let stream = match &listener {
                ListenerInner::Tcp(l) => l.accept().map(|(s, _)| {
                    let _ = s.set_nodelay(true);
                    Stream::Tcp(s)
                }),
                #[cfg(unix)]
                ListenerInner::Uds(l) => l.accept().map(|(s, _)| Stream::Uds(s)),
            };
            if stop.load(Ordering::SeqCst) {
                break;
            }
            let stream = match stream {
                Ok(s) => s,
                Err(_) => {
                    // Transient accept failure; don't spin.
                    std::thread::sleep(Duration::from_millis(2));
                    continue;
                }
            };
            let demux = Arc::clone(&demux);
            // Reader threads are detached: they exit on EOF when the
            // peer closes its write side (or its process dies).
            let _ = std::thread::Builder::new()
                .name("actcomp-net-read".to_string())
                .spawn(move || {
                    serve_conn(stream, demux, world, config_hash, epoch, handshake_timeout);
                });
        })
        .expect("spawn acceptor thread")
}

/// Handshakes one inbound connection and pumps its frames into the
/// demux until EOF or a corrupt frame. Reads go through a 64 KiB
/// buffer, so a small frame costs one `read` rather than one each for
/// header, payload and trailer.
fn serve_conn(
    stream: Stream,
    demux: Demux,
    world: usize,
    config_hash: u64,
    epoch: u32,
    handshake_timeout: Duration,
) {
    if stream.set_read_timeout(Some(handshake_timeout)).is_err() {
        return;
    }
    let mut stream = BufReader::with_capacity(64 << 10, stream);
    let from = match accept_handshake(&mut stream, world, config_hash, epoch) {
        Ok(from) => from,
        Err(reason) => {
            // Best-effort rejection; the connector surfaces it as
            // HandshakeRejected.
            let mut ack = vec![1u8];
            ack.extend_from_slice(reason.to_string().as_bytes());
            let _ = write_frame(stream.get_mut(), HS_CHAN, &ack);
            return;
        }
    };
    if write_frame(stream.get_mut(), HS_CHAN, &[0u8]).is_err()
        || stream.get_ref().set_read_timeout(None).is_err()
    {
        return;
    }
    loop {
        match read_frame(&mut stream) {
            Ok((chan, payload)) => {
                let mut st = lock(&demux);
                match st.queues.get(&(from, chan)) {
                    Some(tx) => {
                        if tx.send(payload).is_err() {
                            // Receiver dropped; stop routing this chan.
                            st.queues.remove(&(from, chan));
                        }
                    }
                    None => st
                        .pending
                        .entry((from, chan))
                        .or_default()
                        .push_back(payload),
                }
            }
            Err(FrameError::Corrupt(what)) => {
                // Frame alignment is lost; the connection is dead.
                // Remember why, so receivers report FrameCorrupt
                // instead of a bare PeerClosed.
                lock(&demux).corrupt.insert(from, what);
                let _ = stream.get_ref().shutdown_both();
                break;
            }
            Err(FrameError::Io(_)) => break,
        }
    }
    // EOF or error: tear down this peer's queues so blocked receivers
    // wake with PeerClosed/FrameCorrupt instead of hanging.
    let mut st = lock(&demux);
    st.closed.insert(from);
    st.queues.retain(|(f, _), _| *f != from);
}

/// Reads and validates the handshake frame, returning the peer rank.
fn accept_handshake(
    stream: &mut impl Read,
    world: usize,
    config_hash: u64,
    epoch: u32,
) -> Result<usize, TransportError> {
    let (chan, payload) =
        read_frame(stream).map_err(|e| e.into_transport("reading a handshake"))?;
    if chan != HS_CHAN {
        return Err(TransportError::BadFrame {
            what: format!("first frame on channel {chan} (expected the handshake channel)"),
        });
    }
    let hs = Handshake::decode(&payload)?;
    if hs.world as usize != world {
        return Err(TransportError::HandshakeMismatch {
            field: "world",
            ours: world as u64,
            theirs: u64::from(hs.world),
        });
    }
    if hs.config_hash != config_hash {
        return Err(TransportError::HandshakeMismatch {
            field: "config_hash",
            ours: config_hash,
            theirs: hs.config_hash,
        });
    }
    if hs.epoch != epoch {
        // The fencing check: a peer from another restart generation
        // (usually a stale worker the supervisor already replaced) is
        // refused before any of its frames can reach the demux.
        return Err(TransportError::HandshakeMismatch {
            field: "epoch",
            ours: u64::from(epoch),
            theirs: u64::from(hs.epoch),
        });
    }
    if hs.from as usize >= world {
        return Err(TransportError::HandshakeMismatch {
            field: "rank",
            ours: world as u64,
            theirs: u64::from(hs.from),
        });
    }
    Ok(hs.from as usize)
}

/// The sending end of one channel over a shared socket connection.
struct SocketTx {
    conn: Arc<Mutex<Stream>>,
    chan: u16,
    to: usize,
    bucket: Option<Arc<Mutex<TokenBucket>>>,
}

impl SocketTx {
    /// Writes one frame, optionally with a deliberately broken CRC
    /// trailer (`crc_flip != 0` — the fault-injection path).
    fn send_with(&mut self, payload: &[u8], crc_flip: u32) -> Result<(), TransportError> {
        if let Some(bucket) = &self.bucket {
            // Debit under the lock, sleep outside it so concurrent
            // senders are shaped collectively without serializing.
            let wait = lock(bucket).debit(payload.len() + FRAME_OVERHEAD);
            if !wait.is_zero() {
                std::thread::sleep(wait);
            }
        }
        let mut w = lock(&self.conn);
        write_frame_with(&mut *w, self.chan, payload, crc_flip).map_err(|e| match e.kind() {
            std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::UnexpectedEof => TransportError::PeerClosed {
                rank: Some(self.to),
                what: "sending a frame".to_string(),
            },
            _ => TransportError::io(format!("sending a frame to rank {}", self.to), &e),
        })
    }
}

impl FrameTx for SocketTx {
    fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.send_with(payload, 0)
    }

    fn send_corrupt(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.send_with(payload, 0xA5A5_A5A5)
    }

    fn sever(&mut self) -> Result<(), TransportError> {
        lock(&self.conn)
            .shutdown_both()
            .map_err(|e| TransportError::io(format!("severing the link to rank {}", self.to), &e))
    }
}

/// The receiving end of one channel, fed by the peer's reader thread.
struct SocketRx {
    rx: Receiver<Vec<u8>>,
    from: usize,
    /// Consulted when the queue disconnects, to distinguish a corrupt
    /// connection from a plainly closed one.
    demux: Demux,
}

impl SocketRx {
    fn disconnected(&self) -> TransportError {
        if let Some(what) = lock(&self.demux).corrupt.get(&self.from) {
            return TransportError::FrameCorrupt { what: what.clone() };
        }
        TransportError::PeerClosed {
            rank: Some(self.from),
            what: "receiving a frame".to_string(),
        }
    }
}

impl FrameRx for SocketRx {
    fn recv(&mut self) -> Result<Vec<u8>, TransportError> {
        self.rx.recv().map_err(|_| self.disconnected())
    }

    fn recv_timeout(&mut self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => TransportError::Timeout {
                what: format!("a frame from rank {}", self.from),
                after: timeout,
            },
            RecvTimeoutError::Disconnected => self.disconnected(),
        })
    }
}

/// Stream/listener plumbing shared with the control plane
/// ([`crate::CtrlConn`]): same socket flavors, no demux.
pub(crate) mod ctrl_stream {
    use super::*;

    /// A control listener (nonblocking, polled with a deadline).
    pub(crate) struct CtrlListenerInner {
        listener: ListenerInner,
        /// Held only for its Drop (unlinks the socket file).
        _uds_path: Option<UdsPathGuard>,
    }

    impl CtrlListenerInner {
        /// Binds a listener for `kind`, returning it with its address.
        pub(crate) fn bind(kind: TransportKind) -> Result<(Self, String), TransportError> {
            let (listener, addr, uds_path) = match kind {
                TransportKind::Tcp => {
                    let l = TcpListener::bind("127.0.0.1:0")
                        .map_err(|e| TransportError::io("binding a control listener", &e))?;
                    let a = l
                        .local_addr()
                        .map_err(|e| TransportError::io("reading the control address", &e))?;
                    l.set_nonblocking(true)
                        .map_err(|e| TransportError::io("arming nonblocking accept", &e))?;
                    (ListenerInner::Tcp(l), a.to_string(), None)
                }
                #[cfg(unix)]
                TransportKind::Uds => {
                    let path = std::env::temp_dir().join(format!(
                        "actcomp-ctrl-{}-{}.sock",
                        std::process::id(),
                        UDS_COUNTER.fetch_add(1, Ordering::Relaxed),
                    ));
                    let l = bind_uds(&path).map_err(|e| {
                        TransportError::io(format!("binding control socket {}", path.display()), &e)
                    })?;
                    l.set_nonblocking(true)
                        .map_err(|e| TransportError::io("arming nonblocking accept", &e))?;
                    let a = path.display().to_string();
                    (ListenerInner::Uds(l), a, Some(UdsPathGuard(path)))
                }
                #[cfg(not(unix))]
                TransportKind::Uds => {
                    return Err(TransportError::BadAddress {
                        addr: String::new(),
                        reason: "unix domain sockets are unavailable on this platform".to_string(),
                    })
                }
                TransportKind::Mpsc => {
                    return Err(TransportError::UnknownTransport(
                        "mpsc has no control listener".to_string(),
                    ))
                }
            };
            Ok((
                CtrlListenerInner {
                    listener,
                    _uds_path: uds_path,
                },
                addr,
            ))
        }

        /// Polls for one inbound connection until `timeout`.
        pub(crate) fn accept(&self, timeout: Duration) -> Result<CtrlStream, TransportError> {
            let deadline = Instant::now() + timeout;
            loop {
                let attempt = match &self.listener {
                    ListenerInner::Tcp(l) => l.accept().map(|(s, _)| {
                        let _ = s.set_nodelay(true);
                        let _ = s.set_nonblocking(false);
                        Stream::Tcp(s)
                    }),
                    #[cfg(unix)]
                    ListenerInner::Uds(l) => l.accept().map(|(s, _)| {
                        let _ = s.set_nonblocking(false);
                        Stream::Uds(s)
                    }),
                };
                match attempt {
                    Ok(s) => return Ok(CtrlStream { stream: s }),
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                        if Instant::now() >= deadline {
                            return Err(TransportError::Timeout {
                                what: "a control connection".to_string(),
                                after: timeout,
                            });
                        }
                        std::thread::sleep(Duration::from_millis(2));
                    }
                    Err(e) => return Err(TransportError::io("accepting a control connection", &e)),
                }
            }
        }
    }

    // No Drop impl needed: the UdsPathGuard member unlinks the socket
    // file when the listener drops.

    /// One established control stream. Used strictly sequentially
    /// (send then receive from one thread), so a single stream serves
    /// both directions.
    pub(crate) struct CtrlStream {
        stream: Stream,
    }

    impl CtrlStream {
        /// Dials `addr`, retrying while the listener comes up.
        pub(crate) fn connect(
            kind: TransportKind,
            addr: &str,
            timeout: Duration,
        ) -> Result<CtrlStream, TransportError> {
            let stream = connect_retry(kind, addr, usize::MAX, timeout)?;
            Ok(CtrlStream { stream })
        }

        pub(crate) fn set_read_timeout(&self, t: Option<Duration>) -> std::io::Result<()> {
            self.stream.set_read_timeout(t)
        }

        pub(crate) fn with_read<R>(&mut self, f: impl FnOnce(&mut Stream) -> R) -> R {
            f(&mut self.stream)
        }

        pub(crate) fn with_write<R>(
            &mut self,
            f: impl FnOnce(&mut Stream) -> std::io::Result<R>,
        ) -> std::io::Result<R> {
            f(&mut self.stream)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(kind: TransportKind) -> (SocketTransport, SocketTransport) {
        let opts = SocketOptions {
            connect_timeout: Duration::from_secs(5),
            handshake_timeout: Duration::from_secs(5),
            link_mbps: None,
            epoch: 0,
        };
        let mut a = SocketTransport::bind(kind, 0, 2, 42, opts).expect("bind rank 0");
        let mut b = SocketTransport::bind(kind, 1, 2, 42, opts).expect("bind rank 1");
        let (aa, ba) = (a.local_addr().to_string(), b.local_addr().to_string());
        a.set_peer(1, ba);
        b.set_peer(0, aa);
        (a, b)
    }

    fn frames_flow(kind: TransportKind) {
        let (mut a, mut b) = pair(kind);
        let mut tx = a.open_send(1, 3).expect("send side");
        tx.send(b"early").expect("send before open_recv");
        let mut rx = b.open_recv(0, 3).expect("recv side");
        assert_eq!(rx.recv().expect("buffered frame"), b"early");
        tx.send(b"late").expect("send");
        assert_eq!(
            rx.recv_timeout(Duration::from_secs(5)).expect("frame"),
            b"late"
        );
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn tcp_frames_flow_and_buffer() {
        frames_flow(TransportKind::Tcp);
    }

    #[cfg(unix)]
    #[test]
    fn uds_frames_flow_and_buffer() {
        frames_flow(TransportKind::Uds);
    }

    #[test]
    fn config_hash_mismatch_is_rejected() {
        let opts = SocketOptions::default();
        let mut a = SocketTransport::bind(TransportKind::Tcp, 0, 2, 1, opts).expect("bind");
        let b = SocketTransport::bind(TransportKind::Tcp, 1, 2, 2, opts).expect("bind");
        a.set_peer(1, b.local_addr().to_string());
        match a.open_send(1, 1) {
            Err(TransportError::HandshakeRejected { reason }) => {
                assert!(reason.contains("config_hash"), "reason: {reason}");
            }
            Err(other) => panic!("expected a handshake rejection, got {other:?}"),
            Ok(_) => panic!("expected a handshake rejection, got a connection"),
        }
    }

    #[test]
    fn epoch_mismatch_is_fenced_off() {
        // A "stale" epoch-0 endpoint dialing an epoch-1 world: the
        // acceptor must refuse at handshake so no stale frame can ever
        // reach the recovered generation.
        let stale = SocketOptions::default();
        let fresh = SocketOptions {
            epoch: 1,
            ..SocketOptions::default()
        };
        let mut a = SocketTransport::bind(TransportKind::Tcp, 0, 2, 42, stale).expect("bind");
        let b = SocketTransport::bind(TransportKind::Tcp, 1, 2, 42, fresh).expect("bind");
        a.set_peer(1, b.local_addr().to_string());
        match a.open_send(1, 1) {
            Err(TransportError::HandshakeRejected { reason }) => {
                assert!(reason.contains("epoch"), "reason: {reason}");
            }
            Err(other) => panic!("expected an epoch rejection, got {other:?}"),
            Ok(_) => panic!("expected an epoch rejection, got a connection"),
        }
    }

    #[test]
    fn reserved_channels_cannot_be_opened() {
        let (mut a, _b) = pair(TransportKind::Tcp);
        assert!(matches!(
            a.open_send(1, 0),
            Err(TransportError::BadFrame { .. })
        ));
        assert!(matches!(
            a.open_send(1, HS_CHAN),
            Err(TransportError::BadFrame { .. })
        ));
        assert!(matches!(
            a.open_send(1, CTRL_CHAN),
            Err(TransportError::BadFrame { .. })
        ));
    }

    fn corrupt_frames_are_typed(kind: TransportKind) {
        let (mut a, mut b) = pair(kind);
        let mut tx = a.open_send(1, 3).expect("send side");
        let mut rx = b.open_recv(0, 3).expect("recv side");
        tx.send(b"good").expect("send");
        assert_eq!(rx.recv().expect("good frame"), b"good");
        tx.send_corrupt(b"mangled").expect("send corrupt");
        let err = rx.recv_timeout(Duration::from_secs(10)).expect_err("bad");
        assert!(
            matches!(err, TransportError::FrameCorrupt { .. }),
            "got {err:?}"
        );
        a.shutdown();
        b.shutdown();
    }

    #[test]
    fn tcp_corrupt_frames_are_typed() {
        corrupt_frames_are_typed(TransportKind::Tcp);
    }

    #[cfg(unix)]
    #[test]
    fn uds_corrupt_frames_are_typed() {
        corrupt_frames_are_typed(TransportKind::Uds);
    }

    #[test]
    fn severed_connection_surfaces_as_peer_closed() {
        let (mut a, mut b) = pair(TransportKind::Tcp);
        let mut tx = a.open_send(1, 3).expect("send side");
        let mut rx = b.open_recv(0, 3).expect("recv side");
        tx.send(b"before").expect("send");
        assert_eq!(rx.recv().expect("frame"), b"before");
        tx.sever().expect("sever");
        let err = rx
            .recv_timeout(Duration::from_secs(10))
            .expect_err("severed");
        assert!(err.is_peer_closed(), "got {err:?}");
        a.shutdown();
        b.shutdown();
    }

    #[cfg(unix)]
    #[test]
    fn stale_uds_paths_are_reclaimed() {
        let path = std::env::temp_dir().join(format!(
            "actcomp-stale-{}-{}.sock",
            std::process::id(),
            UDS_COUNTER.fetch_add(1, Ordering::Relaxed),
        ));
        // Bind and drop without unlinking — exactly what a SIGKILLed
        // worker leaves behind (std does not remove the file on drop).
        drop(UnixListener::bind(&path).expect("first bind"));
        assert!(path.exists(), "precondition: stale socket file remains");
        let reclaimed = bind_uds(&path).expect("stale path taken over");
        drop(reclaimed);
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(unix)]
    #[test]
    fn uds_path_guard_unlinks_on_drop() {
        let path = std::env::temp_dir().join(format!(
            "actcomp-guard-{}-{}.sock",
            std::process::id(),
            UDS_COUNTER.fetch_add(1, Ordering::Relaxed),
        ));
        std::fs::write(&path, b"").expect("create");
        assert!(path.exists());
        drop(UdsPathGuard(path.clone()));
        assert!(!path.exists(), "guard must unlink the path");
    }

    #[test]
    fn dead_peer_surfaces_within_the_timeout() {
        let (mut a, mut b) = pair(TransportKind::Tcp);
        let mut tx = a.open_send(1, 1).expect("send side");
        tx.send(b"x").expect("send");
        let mut rx = b.open_recv(0, 1).expect("recv side");
        assert_eq!(rx.recv().expect("frame"), b"x");
        // Kill rank 0 entirely; rank 1's reader sees EOF and the
        // blocked receive wakes with PeerClosed, not a hang.
        drop(tx);
        a.shutdown();
        drop(a);
        let t0 = Instant::now();
        let err = rx
            .recv_timeout(Duration::from_secs(10))
            .expect_err("closed");
        assert!(err.is_peer_closed(), "got {err:?}");
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "took {:?}",
            t0.elapsed()
        );
        b.shutdown();
    }

    #[test]
    fn connect_to_absent_peer_times_out() {
        let opts = SocketOptions {
            connect_timeout: Duration::from_millis(50),
            ..SocketOptions::default()
        };
        let mut a = SocketTransport::bind(TransportKind::Tcp, 0, 2, 7, opts).expect("bind");
        // A loopback port nobody listens on: bind-then-drop reserves a
        // port that is closed by the time we connect.
        let dead = {
            let l = TcpListener::bind("127.0.0.1:0").expect("probe bind");
            l.local_addr().expect("probe addr").to_string()
        };
        a.set_peer(1, dead);
        assert!(matches!(
            a.open_send(1, 1),
            Err(TransportError::Timeout { .. })
        ));
    }

    #[test]
    fn throttled_sender_is_paced() {
        let opts = SocketOptions {
            link_mbps: Some(80.0), // 10 MB/s
            ..SocketOptions::default()
        };
        let mut a = SocketTransport::bind(TransportKind::Tcp, 0, 2, 9, opts).expect("bind");
        let mut b = SocketTransport::bind(TransportKind::Tcp, 1, 2, 9, SocketOptions::default())
            .expect("bind");
        a.set_peer(1, b.local_addr().to_string());
        b.set_peer(0, a.local_addr().to_string());
        let mut tx = a.open_send(1, 1).expect("send side");
        let mut rx = b.open_recv(0, 1).expect("recv side");
        let payload = vec![0u8; 256 * 1024];
        let t0 = Instant::now();
        for _ in 0..20 {
            tx.send(&payload).expect("send");
        }
        for _ in 0..20 {
            let _ = rx.recv().expect("frame");
        }
        // 5 MB at 10 MB/s ≈ 0.5 s minus the burst allowance.
        let elapsed = t0.elapsed().as_secs_f64();
        assert!(elapsed > 0.3, "throttle not applied: {elapsed:.3}s");
        a.shutdown();
        b.shutdown();
    }
}
