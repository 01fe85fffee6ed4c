//! Control-plane connections for the process-mode launcher: a plain
//! framed byte stream with accept/receive timeouts.
//!
//! The launcher binds a [`CtrlListener`]; each worker dials back with
//! [`CtrlConn::connect`]. Frames use the same CRC-trailed
//! `[chan][len][payload][crc]` format as the data plane (on the
//! reserved control channel), so the wire format has a single
//! definition. Receives take an explicit timeout; a timeout is
//! *fatal for the connection* (a partially-read frame cannot be
//! resynchronized), which matches how the launcher uses it: any
//! control-plane timeout aborts the run with a typed error.

use crate::error::TransportError;
use crate::frame::{read_frame, write_frame, FrameError, CTRL_CHAN};
use crate::socket::ctrl_stream::{CtrlListenerInner, CtrlStream};
use crate::TransportKind;
use std::time::{Duration, Instant};

/// The listening side of the control plane (held by the launcher).
pub struct CtrlListener {
    inner: CtrlListenerInner,
    addr: String,
}

impl CtrlListener {
    /// Binds a control listener for `kind` (ephemeral loopback port
    /// for TCP, fresh temp socket file for UDS) and returns it with
    /// its address.
    pub fn bind(kind: TransportKind) -> Result<CtrlListener, TransportError> {
        let (inner, addr) = CtrlListenerInner::bind(kind)?;
        Ok(CtrlListener { inner, addr })
    }

    /// The address workers dial.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Accepts one worker connection, or times out.
    pub fn accept(&self, timeout: Duration) -> Result<CtrlConn, TransportError> {
        let stream = self.inner.accept(timeout)?;
        Ok(CtrlConn { stream })
    }
}

/// One established control connection (either side).
pub struct CtrlConn {
    stream: CtrlStream,
}

impl CtrlConn {
    /// Dials the launcher's control listener, retrying until `timeout`
    /// while the listener comes up.
    pub fn connect(
        kind: TransportKind,
        addr: &str,
        timeout: Duration,
    ) -> Result<CtrlConn, TransportError> {
        let stream = CtrlStream::connect(kind, addr, timeout)?;
        Ok(CtrlConn { stream })
    }

    /// Ships one control frame.
    pub fn send(&mut self, payload: &[u8]) -> Result<(), TransportError> {
        self.stream
            .with_write(|w| write_frame(w, CTRL_CHAN, payload))
            .map_err(|e| map_conn_err(e, "sending a control frame"))
    }

    /// Receives the next control frame, or times out. A timeout leaves
    /// the stream unusable (callers abort the run).
    pub fn recv(&mut self, timeout: Duration) -> Result<Vec<u8>, TransportError> {
        self.stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| TransportError::io("arming a control read timeout", &e))?;
        let deadline = Instant::now() + timeout;
        let res = self.stream.with_read(read_frame);
        match res {
            Ok((_, payload)) => Ok(payload),
            Err(FrameError::Io(e))
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                let _ = deadline;
                Err(TransportError::Timeout {
                    what: "a control frame".to_string(),
                    after: timeout,
                })
            }
            Err(FrameError::Io(e)) => Err(map_conn_err(e, "receiving a control frame")),
            Err(corrupt) => Err(corrupt.into_transport("receiving a control frame")),
        }
    }

    /// Receives the next control frame with no deadline — the worker
    /// side of the command loop, which legitimately idles between
    /// launcher commands. A closed peer still surfaces as a typed
    /// [`TransportError::PeerClosed`].
    pub fn recv_blocking(&mut self) -> Result<Vec<u8>, TransportError> {
        self.stream
            .set_read_timeout(None)
            .map_err(|e| TransportError::io("clearing a control read timeout", &e))?;
        match self.stream.with_read(read_frame) {
            Ok((_, payload)) => Ok(payload),
            Err(FrameError::Io(e)) => Err(map_conn_err(e, "receiving a control frame")),
            Err(corrupt) => Err(corrupt.into_transport("receiving a control frame")),
        }
    }
}

fn map_conn_err(e: std::io::Error, what: &str) -> TransportError {
    match e.kind() {
        std::io::ErrorKind::BrokenPipe
        | std::io::ErrorKind::ConnectionReset
        | std::io::ErrorKind::ConnectionAborted
        | std::io::ErrorKind::UnexpectedEof => TransportError::PeerClosed {
            rank: None,
            what: what.to_string(),
        },
        _ => TransportError::io(what, &e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(kind: TransportKind) {
        let listener = CtrlListener::bind(kind).expect("bind");
        let addr = listener.addr().to_string();
        let dial = std::thread::spawn(move || {
            let mut c = CtrlConn::connect(kind, &addr, Duration::from_secs(5)).expect("connect");
            c.send(b"hello from worker").expect("send");
            c.recv(Duration::from_secs(5)).expect("reply")
        });
        let mut server = listener.accept(Duration::from_secs(5)).expect("accept");
        let got = server.recv(Duration::from_secs(5)).expect("frame");
        assert_eq!(got, b"hello from worker");
        server.send(b"ack").expect("reply");
        assert_eq!(dial.join().expect("worker thread"), b"ack");
    }

    #[test]
    fn tcp_control_roundtrip() {
        roundtrip(TransportKind::Tcp);
    }

    #[cfg(unix)]
    #[test]
    fn uds_control_roundtrip() {
        roundtrip(TransportKind::Uds);
    }

    #[test]
    fn accept_times_out_without_a_dialer() {
        let listener = CtrlListener::bind(TransportKind::Tcp).expect("bind");
        assert!(matches!(
            listener.accept(Duration::from_millis(30)),
            Err(TransportError::Timeout { .. })
        ));
    }

    #[test]
    fn recv_times_out_and_peer_close_is_typed() {
        let listener = CtrlListener::bind(TransportKind::Tcp).expect("bind");
        let addr = listener.addr().to_string();
        let dial = std::thread::spawn(move || {
            let c = CtrlConn::connect(TransportKind::Tcp, &addr, Duration::from_secs(5))
                .expect("connect");
            std::thread::sleep(Duration::from_millis(60));
            drop(c);
        });
        let mut server = listener.accept(Duration::from_secs(5)).expect("accept");
        assert!(matches!(
            server.recv(Duration::from_millis(20)),
            Err(TransportError::Timeout { .. })
        ));
        dial.join().expect("dialer");
        let err = server.recv(Duration::from_secs(5)).expect_err("closed");
        assert!(err.is_peer_closed(), "got {err:?}");
    }
}
