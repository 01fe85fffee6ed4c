//! The wire format: length-prefixed, CRC-trailed frames and the
//! connection handshake.
//!
//! Every frame carries a CRC32 trailer over its header and payload, so
//! wire corruption surfaces as a typed [`FrameError::Corrupt`] instead
//! of a garbage decode downstream. The header is validated *before*
//! any allocation: a hostile length prefix (over the 1 GiB cap) or a
//! frame on the reserved channel 0 is rejected without trusting it.

use crate::error::TransportError;
use std::io::{ErrorKind, IoSlice, Read, Write};

/// The reserved handshake channel; application channels must be below
/// this.
pub const HS_CHAN: u16 = u16::MAX;

/// The reserved control-plane channel (launcher ↔ worker frames).
pub(crate) const CTRL_CHAN: u16 = u16::MAX - 1;

/// Wire protocol version carried in every handshake. Version 2 added
/// the CRC32 frame trailer and the generation `epoch` to the
/// handshake.
pub const PROTOCOL_VERSION: u16 = 2;

/// `"ACNT"` — first bytes of every handshake payload.
const MAGIC: u32 = 0x4143_4E54;

/// Upper bound on a frame payload (1 GiB): anything larger is treated
/// as stream corruption rather than an allocation request.
const MAX_FRAME: usize = 1 << 30;

/// Bytes a frame adds around its payload: 6-byte header + 4-byte CRC
/// trailer.
pub const FRAME_OVERHEAD: usize = 10;

/// IEEE CRC32 (reflected, polynomial `0xEDB88320`) over `bytes`,
/// continuing from `seed` (start with `0` for a fresh checksum).
///
/// Public so checkpoint shards can reuse the exact wire checksum. On
/// x86_64 hosts with PCLMULQDQ and SSE4.1 (detected at run time) the
/// bulk of the input goes through a carry-less-multiply folding kernel;
/// everywhere else, and for tails under 128 bytes, a slice-by-16 table
/// does the work. Both compute the same polynomial remainder, so the
/// value never depends on the host.
pub fn crc32(seed: u32, bytes: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= 128
        && std::arch::is_x86_feature_detected!("pclmulqdq")
        && std::arch::is_x86_feature_detected!("sse4.1")
    {
        // SAFETY: `crc32_clmul` only requires the `pclmulqdq` and
        // `sse4.1` target features, both detected on this CPU just
        // above; it has no other preconditions.
        return unsafe { crc32_clmul(seed, bytes) };
    }
    crc32_table(seed, bytes)
}

/// The reflected IEEE polynomial.
const POLY: u32 = 0xEDB8_8320;

/// Slice-by-16 lookup tables: `CRC_TABLES[k][b]` is the CRC register
/// after byte `b` followed by `k` zero bytes.
static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 16] {
    let mut t = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = (c >> 1) ^ (POLY & (c & 1).wrapping_neg());
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// Portable slice-by-16 CRC32: sixteen input bytes per step through
/// sixteen table lookups, then byte-at-a-time for the tail.
fn crc32_table(seed: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !seed;
    let mut blocks = bytes.chunks_exact(16);
    for b in &mut blocks {
        let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(lo & 0xFF) as usize]
            ^ t[14][((lo >> 8) & 0xFF) as usize]
            ^ t[13][((lo >> 16) & 0xFF) as usize]
            ^ t[12][(lo >> 24) as usize];
        for (j, &byte) in b[4..].iter().enumerate() {
            crc ^= t[11 - j][usize::from(byte)];
        }
    }
    for &byte in blocks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// CRC32 by carry-less-multiply folding (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ", Intel 2009),
/// in the bit-reflected form the Linux and zlib kernels use: four
/// 128-bit lanes fold 64 bytes per step, collapse to one lane, fold
/// the remaining 16-byte blocks, then reduce 128 → 64 → 32 bits with a
/// Barrett step. Anything under a whole 16-byte block is finished by
/// the table path. Requires `bytes.len() >= 64`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq", enable = "sse4.1")]
fn crc32_clmul(seed: u32, bytes: &[u8]) -> u32 {
    use std::arch::x86_64::{
        __m128i, _mm_and_si128, _mm_clmulepi64_si128, _mm_cvtsi32_si128, _mm_extract_epi32,
        _mm_set_epi32, _mm_set_epi64x, _mm_srli_si128, _mm_xor_si128,
    };
    // Folding constants x^k mod P(x), bit-reflected: K1/K2 fold across
    // 512 bits, K3/K4 across 128 bits, K5 from 96 to 64 bits; P_X is
    // P(x) itself and MU the Barrett quotient floor(x^64 / P(x)).
    const K1: i64 = 0x1_5444_2BD4;
    const K2: i64 = 0x1_C6E4_1596;
    const K3: i64 = 0x1_7519_97D0;
    const K4: i64 = 0x0_CCAA_009E;
    const K5: i64 = 0x1_63CD_6124;
    const P_X: i64 = 0x1_DB71_0641;
    const MU: i64 = 0x1_F701_1641;

    // A plain little-endian 16-byte load; it compiles to one `movdqu`.
    let load = |b: &[u8]| -> __m128i {
        let lo = u64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]);
        let hi = u64::from_le_bytes([b[8], b[9], b[10], b[11], b[12], b[13], b[14], b[15]]);
        _mm_set_epi64x(hi as i64, lo as i64)
    };
    // acc·x^k folded onto the next block: lo(acc)·k_lo ⊕ hi(acc)·k_hi ⊕ next.
    let fold = |acc: __m128i, next: __m128i, k: __m128i| -> __m128i {
        let lo = _mm_clmulepi64_si128::<0x00>(acc, k);
        let hi = _mm_clmulepi64_si128::<0x11>(acc, k);
        _mm_xor_si128(_mm_xor_si128(next, lo), hi)
    };

    let mut blocks = bytes.chunks_exact(64);
    let first = blocks.next().expect("at least 64 bytes");
    let mut x = [
        _mm_xor_si128(load(&first[..16]), _mm_cvtsi32_si128(!seed as i32)),
        load(&first[16..32]),
        load(&first[32..48]),
        load(&first[48..]),
    ];
    let k1k2 = _mm_set_epi64x(K2, K1);
    for b in &mut blocks {
        for (lane, acc) in x.iter_mut().enumerate() {
            *acc = fold(*acc, load(&b[16 * lane..16 * lane + 16]), k1k2);
        }
    }
    let k3k4 = _mm_set_epi64x(K4, K3);
    let mut acc = fold(fold(fold(x[0], x[1], k3k4), x[2], k3k4), x[3], k3k4);
    let mut tail = blocks.remainder().chunks_exact(16);
    for b in &mut tail {
        acc = fold(acc, load(b), k3k4);
    }

    // 128 → 64 bits.
    let low32 = _mm_set_epi32(0, 0, 0, -1);
    let acc = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x10>(acc, k3k4),
        _mm_srli_si128::<8>(acc),
    );
    let acc = _mm_xor_si128(
        _mm_clmulepi64_si128::<0x00>(_mm_and_si128(acc, low32), _mm_set_epi64x(0, K5)),
        _mm_srli_si128::<4>(acc),
    );
    // Barrett reduction 64 → 32 bits (reflected: the result is the
    // upper half of the low 64 bits).
    let pu = _mm_set_epi64x(MU, P_X);
    let t1 = _mm_clmulepi64_si128::<0x10>(_mm_and_si128(acc, low32), pu);
    let t2 = _mm_clmulepi64_si128::<0x00>(_mm_and_si128(t1, low32), pu);
    let crc = !(_mm_extract_epi32::<1>(_mm_xor_si128(acc, t2)) as u32);
    crc32_table(crc, tail.remainder())
}

/// What can go wrong reading a frame: a plain I/O failure, or a frame
/// that fails validation (bad CRC, hostile length, reserved channel).
/// The distinction matters because corruption poisons the *stream*
/// (frame alignment is lost), not just the frame.
#[derive(Debug)]
pub(crate) enum FrameError {
    /// The underlying read failed (EOF, reset, timeout, …).
    Io(std::io::Error),
    /// The frame failed an integrity check; `what` says which.
    Corrupt(String),
}

impl FrameError {
    /// Converts into the public error type, tagging I/O failures with
    /// `context`.
    pub(crate) fn into_transport(self, context: &str) -> TransportError {
        match self {
            FrameError::Io(e) => TransportError::io(context, &e),
            FrameError::Corrupt(what) => TransportError::FrameCorrupt { what },
        }
    }
}

impl From<std::io::Error> for FrameError {
    fn from(e: std::io::Error) -> Self {
        FrameError::Io(e)
    }
}

/// Writes one `[chan u16 LE][len u32 LE][payload][crc32 u32 LE]`
/// frame. The CRC covers the header and the payload.
pub(crate) fn write_frame(w: &mut impl Write, chan: u16, payload: &[u8]) -> std::io::Result<()> {
    write_frame_with(w, chan, payload, 0)
}

/// Like [`write_frame`] but XORs `crc_flip` into the trailer — the
/// fault-injection hook that makes a receiver's CRC check fail
/// deterministically (pass `0` for an honest frame).
pub(crate) fn write_frame_with(
    w: &mut impl Write,
    chan: u16,
    payload: &[u8],
    crc_flip: u32,
) -> std::io::Result<()> {
    let len = u32::try_from(payload.len()).map_err(|_| {
        std::io::Error::new(std::io::ErrorKind::InvalidInput, "frame payload over 4 GiB")
    })?;
    let mut hdr = [0u8; 6];
    hdr[..2].copy_from_slice(&chan.to_le_bytes());
    hdr[2..].copy_from_slice(&len.to_le_bytes());
    let crc = (crc32(crc32(0, &hdr), payload) ^ crc_flip).to_le_bytes();
    // One vectored write for the whole frame (a socket takes it in one
    // syscall), looping only when the kernel accepts part of it.
    let mut parts = [
        IoSlice::new(&hdr),
        IoSlice::new(payload),
        IoSlice::new(&crc),
    ];
    let mut parts = &mut parts[..];
    while !parts.is_empty() {
        match w.write_vectored(parts) {
            Ok(0) => return Err(ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut parts, n),
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads one frame, returning `(chan, payload)`.
///
/// Hostile headers are rejected *before* the payload allocation: a
/// length over the 1 GiB cap or a frame on the reserved channel 0
/// (no honest sender emits either) is [`FrameError::Corrupt`]. A CRC
/// trailer mismatch is equally `Corrupt` — the payload bytes are
/// discarded, never handed to a decoder.
pub(crate) fn read_frame(r: &mut impl Read) -> Result<(u16, Vec<u8>), FrameError> {
    let mut hdr = [0u8; 6];
    r.read_exact(&mut hdr)?;
    let chan = u16::from_le_bytes([hdr[0], hdr[1]]);
    let len = u32::from_le_bytes([hdr[2], hdr[3], hdr[4], hdr[5]]) as usize;
    if chan == 0 {
        return Err(FrameError::Corrupt(
            "frame on reserved channel 0 (corrupt or hostile header)".to_string(),
        ));
    }
    if len > MAX_FRAME {
        return Err(FrameError::Corrupt(format!(
            "frame length {len} exceeds the 1 GiB cap"
        )));
    }
    // Read into reserved capacity rather than a zero-filled buffer:
    // every byte is about to be overwritten anyway.
    let mut payload = Vec::with_capacity(len);
    r.by_ref().take(len as u64).read_to_end(&mut payload)?;
    if payload.len() < len {
        return Err(FrameError::Io(ErrorKind::UnexpectedEof.into()));
    }
    let mut trailer = [0u8; 4];
    r.read_exact(&mut trailer)?;
    let want = u32::from_le_bytes(trailer);
    let got = crc32(crc32(0, &hdr), &payload);
    if want != got {
        return Err(FrameError::Corrupt(format!(
            "CRC mismatch on channel {chan} ({len} bytes): computed {got:#010x}, trailer {want:#010x}"
        )));
    }
    Ok((chan, payload))
}

/// The first frame on every data connection: proves both ends belong
/// to the same run — and the same *generation* of it — before any
/// application frame moves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Handshake {
    /// Total ranks the connecting side believes are in the run.
    pub world: u32,
    /// The connecting side's rank.
    pub from: u32,
    /// Hash of the run configuration (computed by the launcher); both
    /// ends must agree.
    pub config_hash: u64,
    /// Restart generation of the run. The launcher bumps it on every
    /// recovery, so a stale worker from a fenced-off generation is
    /// rejected at handshake instead of feeding old frames into the
    /// new run.
    pub epoch: u32,
}

impl Handshake {
    /// Serializes to the fixed 26-byte handshake payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(26);
        out.extend_from_slice(&MAGIC.to_le_bytes());
        out.extend_from_slice(&PROTOCOL_VERSION.to_le_bytes());
        out.extend_from_slice(&self.world.to_le_bytes());
        out.extend_from_slice(&self.from.to_le_bytes());
        out.extend_from_slice(&self.config_hash.to_le_bytes());
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out
    }

    /// Parses and validates a handshake payload: magic and version
    /// must match this build; `world`/`config_hash`/`from`/`epoch` are
    /// returned for the acceptor to check against its own run.
    pub fn decode(buf: &[u8]) -> Result<Handshake, TransportError> {
        if buf.len() != 26 {
            return Err(TransportError::BadFrame {
                what: format!("handshake payload of {} bytes (expected 26)", buf.len()),
            });
        }
        let magic = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]);
        if magic != MAGIC {
            return Err(TransportError::HandshakeMismatch {
                field: "magic",
                ours: u64::from(MAGIC),
                theirs: u64::from(magic),
            });
        }
        let version = u16::from_le_bytes([buf[4], buf[5]]);
        if version != PROTOCOL_VERSION {
            return Err(TransportError::HandshakeMismatch {
                field: "version",
                ours: u64::from(PROTOCOL_VERSION),
                theirs: u64::from(version),
            });
        }
        let world = u32::from_le_bytes([buf[6], buf[7], buf[8], buf[9]]);
        let from = u32::from_le_bytes([buf[10], buf[11], buf[12], buf[13]]);
        let config_hash = u64::from_le_bytes([
            buf[14], buf[15], buf[16], buf[17], buf[18], buf[19], buf[20], buf[21],
        ]);
        let epoch = u32::from_le_bytes([buf[22], buf[23], buf[24], buf[25]]);
        Ok(Handshake {
            world,
            from,
            config_hash,
            epoch,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-at-a-time definition every fast path must match.
    fn crc32_bitwise(seed: u32, bytes: &[u8]) -> u32 {
        let mut crc = !seed;
        for &b in bytes {
            crc ^= u32::from(b);
            for _ in 0..8 {
                crc = (crc >> 1) ^ (POLY & (crc & 1).wrapping_neg());
            }
        }
        !crc
    }

    /// Deterministic filler bytes.
    fn pattern(len: usize, salt: u64) -> Vec<u8> {
        (0..len as u64)
            .map(|i| ((i.wrapping_add(salt).wrapping_mul(2_654_435_761)) >> 13) as u8)
            .collect()
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The standard IEEE check value.
        assert_eq!(crc32(0, b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(0, b""), 0);
        // Incremental == one-shot.
        assert_eq!(crc32(crc32(0, b"1234"), b"56789"), 0xCBF4_3926);
        assert_eq!(crc32_table(0, b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bitwise(0, b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn crc32_golden_value_of_one_mebibyte() {
        // Pinned so that checkpoint shards and frames written by any
        // earlier build keep verifying.
        let buf = pattern(1 << 20, 0);
        assert_eq!(crc32_bitwise(0, &buf), 0x4091_419D);
        assert_eq!(crc32(0, &buf), 0x4091_419D);
        assert_eq!(crc32_table(0, &buf), 0x4091_419D);
    }

    #[test]
    fn crc32_fast_paths_match_the_bitwise_definition_at_every_length() {
        // Every length through the folding kernel's 128-byte threshold
        // and well past it, from four differently aligned starts.
        let buf = pattern(4096 + 4, 7);
        let seed = 0x1234_5678;
        for offset in 0..4 {
            for len in (0..=4096).chain([65_536]) {
                let big;
                let bytes = if len <= 4096 {
                    &buf[offset..offset + len]
                } else {
                    big = pattern(len + offset, 11);
                    &big[offset..]
                };
                let want = crc32_bitwise(seed, bytes);
                assert_eq!(
                    crc32(seed, bytes),
                    want,
                    "dispatched, len {len} offset {offset}"
                );
                assert_eq!(
                    crc32_table(seed, bytes),
                    want,
                    "table, len {len} offset {offset}"
                );
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Any seed, length, start offset and split point: both fast
        /// paths equal the definition, and checksumming in two pieces
        /// equals checksumming at once.
        #[test]
        fn crc32_is_exact_and_incremental(
            seed in 0u32..=u32::MAX,
            len in 0usize..20_000,
            offset in 0usize..16,
            split in 0usize..20_000,
            salt in 0u64..1_000_000,
        ) {
            let buf = pattern(len + offset, salt);
            let bytes = &buf[offset..];
            let want = crc32_bitwise(seed, bytes);
            proptest::prop_assert_eq!(crc32(seed, bytes), want);
            proptest::prop_assert_eq!(crc32_table(seed, bytes), want);
            let (a, b) = bytes.split_at(split.min(len));
            proptest::prop_assert_eq!(crc32(crc32(seed, a), b), want);
            proptest::prop_assert_eq!(crc32_table(crc32_table(seed, a), b), want);
        }
    }

    #[test]
    fn handshake_roundtrips() {
        let hs = Handshake {
            world: 4,
            from: 2,
            config_hash: 0xDEAD_BEEF_CAFE_F00D,
            epoch: 3,
        };
        let enc = hs.encode();
        assert_eq!(enc.len(), 26);
        assert_eq!(Handshake::decode(&enc).expect("decode"), hs);
    }

    #[test]
    fn handshake_rejects_bad_magic_and_version() {
        let hs = Handshake {
            world: 1,
            from: 0,
            config_hash: 1,
            epoch: 0,
        };
        let mut enc = hs.encode();
        enc[0] ^= 0xFF;
        assert!(matches!(
            Handshake::decode(&enc),
            Err(TransportError::HandshakeMismatch { field: "magic", .. })
        ));
        let mut enc = hs.encode();
        enc[4] ^= 0xFF;
        assert!(matches!(
            Handshake::decode(&enc),
            Err(TransportError::HandshakeMismatch {
                field: "version",
                ..
            })
        ));
        assert!(Handshake::decode(&enc[..10]).is_err());
    }

    #[test]
    fn frames_roundtrip_through_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, b"hello").expect("write");
        write_frame(&mut buf, 9, b"").expect("write");
        let mut r = &buf[..];
        assert_eq!(read_frame(&mut r).expect("read"), (7, b"hello".to_vec()));
        assert_eq!(read_frame(&mut r).expect("read"), (9, Vec::new()));
    }

    #[test]
    fn a_flipped_payload_bit_is_caught_by_the_crc() {
        let mut buf = Vec::new();
        write_frame(&mut buf, 7, b"hello world").expect("write");
        // Flip one payload bit; the trailer no longer matches.
        buf[8] ^= 0x01;
        let mut r = &buf[..];
        match read_frame(&mut r) {
            Err(FrameError::Corrupt(what)) => assert!(what.contains("CRC"), "{what}"),
            other => panic!("expected a CRC failure, got {other:?}"),
        }
    }

    #[test]
    fn a_deliberately_miswritten_trailer_is_caught() {
        let mut buf = Vec::new();
        write_frame_with(&mut buf, 3, b"payload", 0xFFFF_FFFF).expect("write");
        let mut r = &buf[..];
        assert!(matches!(read_frame(&mut r), Err(FrameError::Corrupt(_))));
    }

    #[test]
    fn hostile_length_prefix_is_rejected_before_allocating() {
        // chan 1, len = u32::MAX: an honest peer never sends this; the
        // reader must refuse without attempting a 4 GiB allocation.
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u16.to_le_bytes());
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        let mut r = &buf[..];
        match read_frame(&mut r) {
            Err(FrameError::Corrupt(what)) => assert!(what.contains("1 GiB"), "{what}"),
            other => panic!("expected a typed rejection, got {other:?}"),
        }
    }

    #[test]
    fn zero_channel_frames_are_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&0u16.to_le_bytes());
        buf.extend_from_slice(&4u32.to_le_bytes());
        buf.extend_from_slice(b"data");
        let mut r = &buf[..];
        match read_frame(&mut r) {
            Err(FrameError::Corrupt(what)) => assert!(what.contains("channel 0"), "{what}"),
            other => panic!("expected a typed rejection, got {other:?}"),
        }
    }

    #[test]
    fn truncated_streams_surface_as_io_errors() {
        let mut full = Vec::new();
        write_frame(&mut full, 5, b"truncate me").expect("write");
        // Every strict prefix must fail as EOF (I/O), never panic and
        // never return a partial frame.
        for cut in 0..full.len() {
            let mut r = &full[..cut];
            match read_frame(&mut r) {
                Err(FrameError::Io(e)) => {
                    assert_eq!(e.kind(), std::io::ErrorKind::UnexpectedEof, "cut {cut}")
                }
                other => panic!("cut {cut}: expected EOF, got {other:?}"),
            }
        }
    }

    #[test]
    fn garbage_headers_never_decode_to_a_frame() {
        // Fuzz-style sweep over deterministic pseudo-random byte soups:
        // whatever the header claims, the reader must end in a typed
        // error (corrupt or EOF), not a successful decode of garbage.
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..64 {
            let mut buf = vec![0u8; 32];
            for b in buf.iter_mut() {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                *b = (state >> 33) as u8;
            }
            let mut r = &buf[..];
            assert!(read_frame(&mut r).is_err(), "garbage decoded: {buf:?}");
        }
    }
}
