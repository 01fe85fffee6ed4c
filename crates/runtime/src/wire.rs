//! Bit-exact binary serialization for every message the runtime moves
//! over a framed transport.
//!
//! The codec is hand-rolled little-endian rather than JSON because the
//! transport-conformance invariant is *bitwise*: an `f32` must cross
//! the wire as its exact bit pattern (`to_le_bytes`/`from_le_bytes`),
//! never through a decimal round-trip. Layout is positional with a
//! one-byte tag for enums — exactly what the in-process typed channels
//! carry, flattened.
//!
//! Decoding returns typed errors; the data-plane callers treat a
//! malformed frame the same way they treat a hung-up channel (the
//! worker aborts), while control-plane callers surface it.

use crate::layer::LayerGrads;
use crate::rank::RankGrads;
use actcomp_compress::{Compressed, Payload};
use actcomp_tensor::{Shape, Tensor};
use bytes::Bytes;
use std::sync::atomic::{AtomicU8, Ordering};

// ---------------------------------------------------------------------
// Wire dtype (dense activation precision on the wire)
// ---------------------------------------------------------------------

/// Precision used for **dense** activation payloads on a framed
/// transport (`--wire-dtype`). `F16` halves dense wire bytes at ~1e-3
/// relative error; it never touches sparse or quantized payloads, and
/// in-process typed channels bypass the wire codec entirely, so only
/// transport-backed runs are affected.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WireDtype {
    /// Exact bit-pattern f32 (the default; bitwise conformance holds).
    #[default]
    F32,
    /// IEEE 754 binary16 with round-to-nearest-even, decoded back to
    /// f32 on receive.
    F16,
}

impl WireDtype {
    /// Parses a `--wire-dtype` value.
    pub fn parse(s: &str) -> Option<WireDtype> {
        match s {
            "f32" => Some(WireDtype::F32),
            "f16" => Some(WireDtype::F16),
            _ => None,
        }
    }

    /// The config-file spelling.
    pub fn name(self) -> &'static str {
        match self {
            WireDtype::F32 => "f32",
            WireDtype::F16 => "f16",
        }
    }
}

/// Process-global encode-side dtype. Decoders always accept both tags,
/// so mixed worlds interoperate as long as every encoder is set
/// consistently *before* workers start (each worker process applies its
/// own `--wire-dtype` at startup).
static WIRE_DTYPE: AtomicU8 = AtomicU8::new(0);

/// Sets the dense wire precision for every subsequent encode in this
/// process; returns the previous setting (tests restore it).
pub fn set_wire_dtype(d: WireDtype) -> WireDtype {
    let prev = WIRE_DTYPE.swap(d as u8, Ordering::Relaxed);
    if prev == WireDtype::F16 as u8 {
        WireDtype::F16
    } else {
        WireDtype::F32
    }
}

/// The dense wire precision currently in effect for this process.
pub fn wire_dtype() -> WireDtype {
    if WIRE_DTYPE.load(Ordering::Relaxed) == WireDtype::F16 as u8 {
        WireDtype::F16
    } else {
        WireDtype::F32
    }
}

/// Converts an `f32` to IEEE binary16 bits, round-to-nearest-even.
/// Overflow saturates to infinity; NaN stays NaN (quiet bit forced so
/// the mantissa cannot truncate to an infinity pattern).
pub(crate) fn f32_to_f16_bits(x: f32) -> u16 {
    let bits = x.to_bits();
    let sign = ((bits >> 16) & 0x8000) as u16;
    let exp = ((bits >> 23) & 0xff) as i32;
    let man = bits & 0x007f_ffff;
    if exp == 0xff {
        return sign | 0x7c00 | if man != 0 { 0x0200 } else { 0 };
    }
    let e = exp - 127 + 15;
    if e >= 0x1f {
        return sign | 0x7c00;
    }
    if e <= 0 {
        if e < -10 {
            return sign;
        }
        // Half subnormal: shift the implicit-1 mantissa into place.
        let man = man | 0x0080_0000;
        let shift = (14 - e) as u32;
        let half = man >> shift;
        let rem = man & ((1u32 << shift) - 1);
        let halfway = 1u32 << (shift - 1);
        let rounded = if rem > halfway || (rem == halfway && half & 1 == 1) {
            half + 1
        } else {
            half
        };
        return sign | rounded as u16;
    }
    let half = ((e as u32) << 10) | (man >> 13);
    let rem = man & 0x1fff;
    // A mantissa carry on round-up overflows into the exponent field,
    // which is exactly the right encoding (up to and including inf).
    let rounded = if rem > 0x1000 || (rem == 0x1000 && half & 1 == 1) {
        half + 1
    } else {
        half
    };
    sign | rounded as u16
}

/// Converts IEEE binary16 bits back to `f32` (exact — every f16 value
/// is representable in f32).
pub(crate) fn f16_bits_to_f32(h: u16) -> f32 {
    let sign = ((h & 0x8000) as u32) << 16;
    let exp = (h >> 10) & 0x1f;
    let man = (h & 0x03ff) as u32;
    match (exp, man) {
        (0, 0) => f32::from_bits(sign),
        // Subnormal half = man * 2^-24; the product is exact in f32.
        (0, _) => {
            let v = man as f32 * f32::from_bits(0x3380_0000); // 2^-24
            if sign != 0 {
                -v
            } else {
                v
            }
        }
        (0x1f, 0) => f32::from_bits(sign | 0x7f80_0000),
        (0x1f, _) => f32::from_bits(sign | 0x7fc0_0000 | (man << 13)),
        _ => f32::from_bits(sign | ((exp as u32 + 127 - 15) << 23) | (man << 13)),
    }
}

/// A decode failure: what was being parsed and why it stopped.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// What the decoder was reading.
    pub what: &'static str,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "malformed wire payload while decoding {}", self.what)
    }
}

impl std::error::Error for WireError {}

fn fail<T>(what: &'static str) -> Result<T, WireError> {
    Err(WireError { what })
}

/// A cursor over a received payload.
pub struct Reader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a payload for decoding.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, at: 0 }
    }

    /// Whether every byte has been consumed.
    pub fn done(&self) -> bool {
        self.at == self.buf.len()
    }

    fn take(&mut self, n: usize, what: &'static str) -> Result<&'a [u8], WireError> {
        // `checked_add`: a hostile length field near `usize::MAX` must
        // fail here, not wrap past the bounds check.
        let end = match self.at.checked_add(n) {
            Some(end) if end <= self.buf.len() => end,
            _ => return fail(what),
        };
        let s = &self.buf[self.at..end];
        self.at = end;
        Ok(s)
    }

    fn u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        Ok(self.take(1, what)?[0])
    }

    fn u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    fn usize(&mut self, what: &'static str) -> Result<usize, WireError> {
        Ok(self.u64(what)? as usize)
    }

    fn f32(&mut self, what: &'static str) -> Result<f32, WireError> {
        let b = self.take(4, what)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    fn bytes(&mut self, what: &'static str) -> Result<Vec<u8>, WireError> {
        let n = self.usize(what)?;
        Ok(self.take(n, what)?.to_vec())
    }

    /// A length-prefixed run of 4-byte little-endian words, converted
    /// by `from_le` in one pass over the whole slice.
    fn le32_vec<T>(
        &mut self,
        what: &'static str,
        from_le: impl Fn([u8; 4]) -> T,
    ) -> Result<Vec<T>, WireError> {
        let n = self.usize(what)?;
        let raw = self.take(n.checked_mul(4).ok_or(WireError { what })?, what)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| from_le([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    fn f32_vec(&mut self, what: &'static str) -> Result<Vec<f32>, WireError> {
        self.le32_vec(what, f32::from_le_bytes)
    }

    fn u32_vec(&mut self, what: &'static str) -> Result<Vec<u32>, WireError> {
        self.le32_vec(what, u32::from_le_bytes)
    }

    fn string(&mut self, what: &'static str) -> Result<String, WireError> {
        let raw = self.bytes(what)?;
        String::from_utf8(raw).or(fail(what))
    }
}

// ---------------------------------------------------------------------
// Primitive writers
// ---------------------------------------------------------------------

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_usize(out: &mut Vec<u8>, v: usize) {
    put_u64(out, v as u64);
}

pub(crate) fn put_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_bytes(out: &mut Vec<u8>, v: &[u8]) {
    put_usize(out, v.len());
    out.extend_from_slice(v);
}

/// Appends a length-prefixed run of 4-byte little-endian words: the
/// output is sized once, then filled in one pass over the slice (on a
/// little-endian host this compiles to a plain copy).
fn put_le32<T: Copy>(out: &mut Vec<u8>, v: &[T], to_le: impl Fn(T) -> [u8; 4]) {
    put_usize(out, v.len());
    let at = out.len();
    out.resize(at + 4 * v.len(), 0);
    for (dst, &x) in out[at..].chunks_exact_mut(4).zip(v) {
        dst.copy_from_slice(&to_le(x));
    }
}

pub(crate) fn put_f32_slice(out: &mut Vec<u8>, v: &[f32]) {
    put_le32(out, v, f32::to_le_bytes);
}

pub(crate) fn put_u32_slice(out: &mut Vec<u8>, v: &[u32]) {
    put_le32(out, v, u32::to_le_bytes);
}

/// Wire bytes of a [`put_f32_slice`]/[`put_u32_slice`] run of `n`
/// words: the `u64` count plus the words.
pub(crate) fn le32_run_len(n: usize) -> usize {
    8 + 4 * n
}

pub(crate) fn put_string(out: &mut Vec<u8>, v: &str) {
    put_bytes(out, v.as_bytes());
}

/// The body of a tag-3 (f16 dense) compressed frame: tensor dims, then
/// a length-prefixed run of little-endian binary16 values. Factored out
/// so tests can measure and decode the half frame without touching the
/// process-global dtype.
pub(crate) fn put_dense_f16(out: &mut Vec<u8>, t: &Tensor) {
    let tdims = t.dims();
    put_usize(out, tdims.len());
    for &d in tdims {
        put_usize(out, d);
    }
    let data = t.as_slice();
    put_usize(out, data.len());
    out.reserve(data.len() * 2);
    for &x in data {
        out.extend_from_slice(&f32_to_f16_bits(x).to_le_bytes());
    }
}

// ---------------------------------------------------------------------
// The message trait
// ---------------------------------------------------------------------

/// A message with a flat little-endian wire form. Encoding then
/// decoding yields a bitwise-identical value (f32 payloads included).
pub trait WireMsg: Sized + Send {
    /// Appends this value's wire form to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Parses one value from the reader.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;
    /// The exact number of bytes [`WireMsg::encode`] appends, or `0`
    /// when the type does not say (small control messages). Lets
    /// [`encode_msg`] size a bulk payload buffer once.
    fn encoded_len(&self) -> usize {
        0
    }
}

/// Encodes a full message into a fresh payload buffer, allocated at
/// its final size when the message reports one.
pub fn encode_msg<T: WireMsg>(msg: &T) -> Vec<u8> {
    let mut out = Vec::with_capacity(msg.encoded_len());
    msg.encode(&mut out);
    out
}

/// Decodes a full payload, requiring every byte to be consumed.
pub fn decode_msg<T: WireMsg>(buf: &[u8]) -> Result<T, WireError> {
    let mut r = Reader::new(buf);
    let v = T::decode(&mut r)?;
    if !r.done() {
        return fail("trailing bytes");
    }
    Ok(v)
}

impl WireMsg for Tensor {
    fn encode(&self, out: &mut Vec<u8>) {
        let dims = self.dims();
        put_usize(out, dims.len());
        for &d in dims {
            put_usize(out, d);
        }
        put_f32_slice(out, self.as_slice());
    }

    fn encoded_len(&self) -> usize {
        8 + 8 * self.dims().len() + le32_run_len(self.len())
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let rank = r.usize("tensor rank")?;
        if rank > 8 {
            return fail("tensor rank");
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(r.usize("tensor dim")?);
        }
        if dims.contains(&0) {
            return fail("tensor dim");
        }
        let data = r.f32_vec("tensor data")?;
        let shape = Shape::new(dims);
        if data.len() != shape.len() {
            return fail("tensor data length");
        }
        Ok(Tensor::from_vec(data, shape))
    }
}

impl WireMsg for Vec<Tensor> {
    fn encode(&self, out: &mut Vec<u8>) {
        put_usize(out, self.len());
        for t in self {
            t.encode(out);
        }
    }

    fn encoded_len(&self) -> usize {
        8 + self.iter().map(Tensor::encoded_len).sum::<usize>()
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let n = r.usize("tensor list length")?;
        if n > 1 << 24 {
            return fail("tensor list length");
        }
        (0..n).map(|_| Tensor::decode(r)).collect()
    }
}

impl WireMsg for Compressed {
    fn encode(&self, out: &mut Vec<u8>) {
        let dims = self.shape().dims();
        put_usize(out, dims.len());
        for &d in dims {
            put_usize(out, d);
        }
        match self.payload() {
            Payload::Dense(t) if wire_dtype() == WireDtype::F16 => {
                put_u8(out, 3);
                put_dense_f16(out, t);
            }
            Payload::Dense(t) => {
                put_u8(out, 0);
                t.encode(out);
            }
            Payload::Sparse { values, indices } => {
                put_u8(out, 1);
                put_f32_slice(out, values);
                put_u32_slice(out, indices);
            }
            Payload::Quantized {
                codes,
                bits,
                scale,
                zero,
            } => {
                put_u8(out, 2);
                put_bytes(out, codes);
                put_u8(out, *bits);
                put_f32(out, *scale);
                put_f32(out, *zero);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        let payload = match self.payload() {
            Payload::Dense(t) if wire_dtype() == WireDtype::F16 => {
                8 + 8 * t.dims().len() + 8 + 2 * t.len()
            }
            Payload::Dense(t) => t.encoded_len(),
            Payload::Sparse { values, indices } => {
                le32_run_len(values.len()) + le32_run_len(indices.len())
            }
            Payload::Quantized { codes, .. } => 8 + codes.len() + 1 + 4 + 4,
        };
        8 + 8 * self.shape().dims().len() + 1 + payload
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let rank = r.usize("compressed shape rank")?;
        if rank > 8 {
            return fail("compressed shape rank");
        }
        let mut dims = Vec::with_capacity(rank);
        for _ in 0..rank {
            dims.push(r.usize("compressed shape dim")?);
        }
        if dims.contains(&0) {
            return fail("compressed shape dim");
        }
        let shape = Shape::new(dims);
        let payload = match r.u8("compressed payload tag")? {
            0 => Payload::Dense(Tensor::decode(r)?),
            1 => Payload::Sparse {
                values: r.f32_vec("sparse values")?,
                indices: r.u32_vec("sparse indices")?,
            },
            2 => Payload::Quantized {
                codes: Bytes::copy_from_slice(&r.bytes("quantized codes")?),
                bits: r.u8("quantized bits")?,
                scale: r.f32("quantized scale")?,
                zero: r.f32("quantized zero")?,
            },
            // Decoders always accept f16 dense frames regardless of the
            // local encode-side dtype.
            3 => {
                let trank = r.usize("f16 tensor rank")?;
                if trank > 8 {
                    return fail("f16 tensor rank");
                }
                let mut tdims = Vec::with_capacity(trank);
                for _ in 0..trank {
                    tdims.push(r.usize("f16 tensor dim")?);
                }
                if tdims.contains(&0) {
                    return fail("f16 tensor dim");
                }
                let n = r.usize("f16 tensor data length")?;
                if n > 1 << 28 {
                    return fail("f16 tensor data length");
                }
                let raw = r.take(
                    n.checked_mul(2).ok_or(WireError {
                        what: "f16 tensor data length",
                    })?,
                    "f16 tensor data",
                )?;
                let data: Vec<f32> = raw
                    .chunks_exact(2)
                    .map(|c| f16_bits_to_f32(u16::from_le_bytes([c[0], c[1]])))
                    .collect();
                let tshape = Shape::new(tdims);
                if data.len() != tshape.len() {
                    return fail("f16 tensor data length");
                }
                Payload::Dense(Tensor::from_vec(data, tshape))
            }
            _ => return fail("compressed payload tag"),
        };
        Ok(Compressed::new(payload, shape))
    }
}

impl WireMsg for LayerGrads {
    fn encode(&self, out: &mut Vec<u8>) {
        self.wq.encode(out);
        self.wk.encode(out);
        self.wv.encode(out);
        self.wo_weight.encode(out);
        self.wo_bias.encode(out);
        self.ln1.encode(out);
        self.fc1.encode(out);
        self.fc2_weight.encode(out);
        self.fc2_bias.encode(out);
        self.ln2.encode(out);
        self.attn_comp.encode(out);
        self.ff_comp.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(LayerGrads {
            wq: Vec::<Tensor>::decode(r)?,
            wk: Vec::<Tensor>::decode(r)?,
            wv: Vec::<Tensor>::decode(r)?,
            wo_weight: Tensor::decode(r)?,
            wo_bias: Tensor::decode(r)?,
            ln1: Vec::<Tensor>::decode(r)?,
            fc1: Vec::<Tensor>::decode(r)?,
            fc2_weight: Tensor::decode(r)?,
            fc2_bias: Tensor::decode(r)?,
            ln2: Vec::<Tensor>::decode(r)?,
            attn_comp: Vec::<Tensor>::decode(r)?,
            ff_comp: Vec::<Tensor>::decode(r)?,
        })
    }
}

impl WireMsg for RankGrads {
    fn encode(&self, out: &mut Vec<u8>) {
        self.embedding.encode(out);
        put_usize(out, self.layers.len());
        for l in &self.layers {
            l.encode(out);
        }
        self.boundary_comp.encode(out);
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let embedding = Vec::<Tensor>::decode(r)?;
        let n = r.usize("layer grads length")?;
        if n > 1 << 16 {
            return fail("layer grads length");
        }
        let layers = (0..n)
            .map(|_| LayerGrads::decode(r))
            .collect::<Result<_, _>>()?;
        let boundary_comp = Vec::<Tensor>::decode(r)?;
        Ok(RankGrads {
            embedding,
            layers,
            boundary_comp,
        })
    }
}

// Re-exported reader helpers for the control-plane codecs in
// `procs.rs` (Hello/PeerTable frames use strings and scalars).
impl Reader<'_> {
    /// Reads a length-prefixed UTF-8 string.
    pub fn read_string(&mut self, what: &'static str) -> Result<String, WireError> {
        self.string(what)
    }

    /// Reads one byte.
    pub fn read_u8(&mut self, what: &'static str) -> Result<u8, WireError> {
        self.u8(what)
    }

    /// Reads a `u64` length/count as `usize`.
    pub fn read_usize(&mut self, what: &'static str) -> Result<usize, WireError> {
        self.usize(what)
    }

    /// Reads a little-endian `u64`.
    pub fn read_u64(&mut self, what: &'static str) -> Result<u64, WireError> {
        self.u64(what)
    }

    /// Reads a little-endian `f32`.
    pub fn read_f32(&mut self, what: &'static str) -> Result<f32, WireError> {
        self.f32(what)
    }

    /// Reads a length-prefixed run of little-endian `f32`s (the
    /// [`put_f32_slice`] layout).
    pub fn read_f32_vec(&mut self, what: &'static str) -> Result<Vec<f32>, WireError> {
        self.f32_vec(what)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: WireMsg + PartialEq + std::fmt::Debug>(v: &T) {
        let buf = encode_msg(v);
        let back: T = decode_msg(&buf).expect("decode");
        assert_eq!(&back, v);
    }

    #[test]
    fn tensors_roundtrip_bitwise() {
        roundtrip(&Tensor::from_vec(
            vec![1.0f32, -0.0, f32::MIN_POSITIVE, 3.5e-39, 1.0e38],
            vec![5],
        ));
        roundtrip(&Tensor::from_vec(
            (0..24).map(|i| i as f32 * 0.1).collect(),
            vec![2, 3, 4],
        ));
    }

    #[test]
    fn compressed_payloads_roundtrip() {
        let dense = Compressed::new(
            Payload::Dense(Tensor::from_vec(vec![0.25f32, -1.5], vec![2])),
            Shape::new(vec![2]),
        );
        let buf = encode_msg(&dense);
        let back: Compressed = decode_msg(&buf).expect("decode");
        assert_eq!(back.shape(), dense.shape());
        match (back.payload(), dense.payload()) {
            (Payload::Dense(a), Payload::Dense(b)) => assert_eq!(a, b),
            _ => panic!("payload variant changed"),
        }

        let sparse = Compressed::new(
            Payload::Sparse {
                values: vec![1.0, 2.5],
                indices: vec![3, 7],
            },
            Shape::new(vec![4, 2]),
        );
        let back: Compressed = decode_msg(&encode_msg(&sparse)).expect("decode");
        match back.payload() {
            Payload::Sparse { values, indices } => {
                assert_eq!(values, &[1.0, 2.5]);
                assert_eq!(indices, &[3, 7]);
            }
            _ => panic!("payload variant changed"),
        }

        let quant = Compressed::new(
            Payload::Quantized {
                codes: Bytes::copy_from_slice(&[0xAB, 0xCD]),
                bits: 4,
                scale: 0.125,
                zero: -1.0,
            },
            Shape::new(vec![2, 2]),
        );
        let back: Compressed = decode_msg(&encode_msg(&quant)).expect("decode");
        match back.payload() {
            Payload::Quantized {
                codes,
                bits,
                scale,
                zero,
            } => {
                assert_eq!(codes.to_vec(), vec![0xAB, 0xCD]);
                assert_eq!(*bits, 4);
                assert_eq!(*scale, 0.125);
                assert_eq!(*zero, -1.0);
            }
            _ => panic!("payload variant changed"),
        }
    }

    #[test]
    fn f16_conversion_exact_for_representable_values() {
        // Every value exactly representable in binary16 round-trips
        // bit-for-bit through f32 -> f16 -> f32.
        for v in [
            0.0f32,
            -0.0,
            1.0,
            -1.0,
            0.5,
            2.0,
            65504.0,
            -65504.0,
            1365.0 * 2f32.powi(-12), // 0.333251953125, an exact half mantissa
            2f32.powi(-14),          // smallest normal half
            5.9604645e-8,            // smallest subnormal half
            1023.0 * 2f32.powi(-24), // largest subnormal half
        ] {
            let back = f16_bits_to_f32(f32_to_f16_bits(v));
            assert_eq!(back.to_bits(), v.to_bits(), "value {v}");
        }
    }

    #[test]
    fn f16_conversion_rounds_to_nearest_even() {
        // 1.0 + 2^-11 is exactly halfway between two half values;
        // nearest-even keeps the even mantissa (1.0).
        assert_eq!(f32_to_f16_bits(1.0 + 2f32.powi(-11)), f32_to_f16_bits(1.0));
        // 1.0 + 3*2^-11 is halfway above an odd mantissa; rounds up to
        // the even neighbour.
        assert_eq!(
            f32_to_f16_bits(1.0 + 3.0 * 2f32.powi(-11)),
            f32_to_f16_bits(1.0 + 2f32.powi(-9)),
        );
        // Anything past half's max rounds to infinity; NaN stays NaN.
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1e6)), f32::INFINITY);
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(-1e6)), f32::NEG_INFINITY);
        assert!(f16_bits_to_f32(f32_to_f16_bits(f32::NAN)).is_nan());
        // Values below half's subnormal range flush to signed zero.
        assert_eq!(f16_bits_to_f32(f32_to_f16_bits(1e-9)).to_bits(), 0);
        assert_eq!(
            f16_bits_to_f32(f32_to_f16_bits(-1e-9)).to_bits(),
            (-0.0f32).to_bits()
        );
    }

    #[test]
    fn f16_relative_error_bounded() {
        // Round-to-nearest gives |x - f16(x)| <= 2^-11 |x| for normals.
        let mut worst = 0.0f64;
        for i in 0..10_000 {
            let x = (i as f32 * 0.37 + 0.01) * if i % 2 == 0 { 1.0 } else { -1.0 };
            let x = x % 60000.0;
            let back = f16_bits_to_f32(f32_to_f16_bits(x));
            let rel = ((back - x) as f64 / x as f64).abs();
            worst = worst.max(rel);
        }
        assert!(worst <= 2f64.powi(-11), "worst rel error {worst}");
    }

    #[test]
    fn f16_dense_frames_halve_payload_and_decode_within_tolerance() {
        let vals: Vec<f32> = (0..256).map(|i| (i as f32 - 128.0) * 0.37 + 0.01).collect();
        let t = Tensor::from_vec(vals.clone(), vec![16, 16]);
        let dense = Compressed::new(Payload::Dense(t.clone()), Shape::new(vec![16, 16]));
        let f32_frame = encode_msg(&dense);

        // Hand-build the tag-3 frame (no global dtype mutation: the
        // bit-exact codec tests share this test binary).
        let mut f16_frame = Vec::new();
        put_usize(&mut f16_frame, 2);
        put_usize(&mut f16_frame, 16);
        put_usize(&mut f16_frame, 16);
        put_u8(&mut f16_frame, 3);
        put_dense_f16(&mut f16_frame, &t);

        assert!(
            f16_frame.len() < f32_frame.len() * 3 / 4,
            "f16 dense frame must be substantially smaller: {} vs {}",
            f16_frame.len(),
            f32_frame.len()
        );

        let back: Compressed = decode_msg(&f16_frame).expect("decode tag 3");
        assert_eq!(back.shape(), dense.shape());
        match back.payload() {
            Payload::Dense(got) => {
                for (a, b) in got.as_slice().iter().zip(&vals) {
                    let rel = ((a - b) / b).abs();
                    assert!(rel <= 2f32.powi(-11), "rel error {rel} for {b}");
                }
            }
            _ => panic!("tag 3 must decode to a dense payload"),
        }
    }

    #[test]
    fn wire_dtype_parses() {
        assert_eq!(WireDtype::parse("f32"), Some(WireDtype::F32));
        assert_eq!(WireDtype::parse("f16"), Some(WireDtype::F16));
        assert_eq!(WireDtype::parse("bf16"), None);
        assert_eq!(WireDtype::F16.name(), "f16");
    }

    /// Bit patterns covering every f32 class: a stride through all
    /// 2^32 patterns plus zeros, subnormals, infinities and NaNs with
    /// payloads (quiet and signalling, both signs).
    fn f32_bit_patterns() -> Vec<f32> {
        let specials = [
            0x0000_0000u32,
            0x8000_0000,
            0x0000_0001,
            0x8000_0001,
            0x007F_FFFF,
            0x807F_FFFF,
            0x0080_0000,
            0x7F7F_FFFF,
            0x7F80_0000,
            0xFF80_0000,
            0x7F80_0001,
            0x7FC0_0000,
            0x7FC1_2345,
            0xFFFF_FFFF,
            0x7FBF_FFFF,
        ];
        specials
            .into_iter()
            .chain((0..=u32::MAX).step_by(4099))
            .map(f32::from_bits)
            .collect()
    }

    #[test]
    fn f32_runs_roundtrip_every_bit_pattern() {
        let vals = f32_bit_patterns();
        let mut out = Vec::new();
        put_f32_slice(&mut out, &vals);
        // The bulk writer emits exactly the per-element encoding.
        let mut want = (vals.len() as u64).to_le_bytes().to_vec();
        for v in &vals {
            want.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(out, want);
        assert_eq!(out.len(), le32_run_len(vals.len()));
        let back = Reader::new(&out).f32_vec("test").expect("decode");
        assert_eq!(back.len(), vals.len());
        for (a, b) in back.iter().zip(&vals) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Through a whole tensor frame as well.
        let t = Tensor::from_vec(vals.clone(), vec![vals.len()]);
        let frame = encode_msg(&t);
        assert_eq!(frame.len(), t.encoded_len());
        let back: Tensor = decode_msg(&frame).expect("decode");
        assert!(back
            .as_slice()
            .iter()
            .zip(&vals)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }

    #[test]
    fn u32_runs_match_the_per_element_encoding() {
        let vals: Vec<u32> = (0..=u32::MAX).step_by(65_537).chain([u32::MAX]).collect();
        let mut out = Vec::new();
        put_u32_slice(&mut out, &vals);
        let mut want = (vals.len() as u64).to_le_bytes().to_vec();
        for v in &vals {
            want.extend_from_slice(&v.to_le_bytes());
        }
        assert_eq!(out, want);
        assert_eq!(Reader::new(&out).u32_vec("test").expect("decode"), vals);
    }

    #[test]
    fn tensor_wire_bytes_are_pinned() {
        // The procs backend and the in-process links must keep agreeing
        // bit for bit, and protocol version 2 peers must keep decoding:
        // the tensor layout is [rank][dims][count][f32 LE ...], u64 LE
        // integers throughout.
        let t = Tensor::from_vec(vec![1.0f32, -0.0, f32::from_bits(1)], vec![3]);
        #[rustfmt::skip]
        let golden: [u8; 36] = [
            1, 0, 0, 0, 0, 0, 0, 0,        // rank
            3, 0, 0, 0, 0, 0, 0, 0,        // dim 0
            3, 0, 0, 0, 0, 0, 0, 0,        // element count
            0x00, 0x00, 0x80, 0x3F,        // 1.0
            0x00, 0x00, 0x00, 0x80,        // -0.0
            0x01, 0x00, 0x00, 0x00,        // smallest subnormal
        ];
        assert_eq!(encode_msg(&t), golden);
        assert_eq!(t.encoded_len(), golden.len());
        let back: Tensor = decode_msg(&golden).expect("decode");
        assert_eq!(back.as_slice()[1].to_bits(), (-0.0f32).to_bits());
    }

    #[test]
    fn encoded_len_is_exact_for_every_payload() {
        let msgs = [
            Compressed::new(
                Payload::Dense(Tensor::from_vec(vec![0.5f32; 6], vec![2, 3])),
                Shape::new(vec![2, 3]),
            ),
            Compressed::new(
                Payload::Sparse {
                    values: vec![1.0, 2.0, 3.0],
                    indices: vec![0, 4, 5],
                },
                Shape::new(vec![2, 3]),
            ),
            Compressed::new(
                Payload::Quantized {
                    codes: Bytes::copy_from_slice(&[1, 2, 3]),
                    bits: 2,
                    scale: 0.5,
                    zero: 0.0,
                },
                Shape::new(vec![12]),
            ),
        ];
        for m in &msgs {
            let mut out = Vec::new();
            m.encode(&mut out);
            assert_eq!(out.len(), m.encoded_len());
        }
        let list = vec![Tensor::ones([2, 2]), Tensor::ones([3])];
        assert_eq!(encode_msg(&list).len(), list.encoded_len());
    }

    #[test]
    fn hostile_length_fields_are_typed_errors() {
        // A length so large that `offset + length` overflows `usize`
        // must be rejected, not wrap past the bounds check.
        let mut tensor = Vec::new();
        put_usize(&mut tensor, 1); // rank
        put_usize(&mut tensor, 4); // dim
        put_u64(&mut tensor, u64::MAX / 4); // element count
        assert_eq!(
            decode_msg::<Tensor>(&tensor),
            Err(WireError {
                what: "tensor data"
            })
        );

        let mut quant = Vec::new();
        put_usize(&mut quant, 1); // shape rank
        put_usize(&mut quant, 4); // shape dim
        put_u8(&mut quant, 2); // quantized payload
        put_u64(&mut quant, u64::MAX); // code byte count
        assert!(decode_msg::<Compressed>(&quant).is_err());

        let mut string = Vec::new();
        put_u64(&mut string, u64::MAX - 3);
        assert!(Reader::new(&string).read_string("string").is_err());
    }

    #[test]
    fn truncated_payloads_are_typed_errors() {
        let t = Tensor::from_vec(vec![1.0f32; 6], vec![2, 3]);
        let buf = encode_msg(&t);
        assert!(decode_msg::<Tensor>(&buf[..buf.len() - 1]).is_err());
        let mut extra = buf.clone();
        extra.push(0);
        assert!(decode_msg::<Tensor>(&extra).is_err());
    }
}
