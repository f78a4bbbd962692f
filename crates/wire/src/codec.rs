//! The codec core: [`Encode`] / [`Decode`] traits, the bounds-checked
//! [`Reader`], and [`WireError`].
//!
//! Design rules, enforced across every implementation in this crate:
//!
//! * **Deterministic** — a value has exactly one encoding (canonical
//!   varints, fixed field order), so identical protocol states produce
//!   byte-identical frames on every machine.
//! * **Total decoding** — `decode` returns `Err` on any malformed input:
//!   truncation, unknown tags, non-UTF-8 names, over-long varints,
//!   oversized length prefixes. It never panics and never over-allocates
//!   ahead of the bytes actually present (a corrupt length prefix cannot
//!   balloon memory).
//! * **Zero-copy payloads** — byte payloads decode as [`Bytes`] slices of
//!   the receive buffer when the reader is backed by one
//!   ([`Reader::with_backing`]).

use bytes::Bytes;

use crate::varint::{read_varint, varint_len, write_varint};

/// Decoding failure. Total: every malformed input maps to one of these.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Input ended before the value did.
    Truncated,
    /// A varint was over-long or overflowed 64 bits.
    VarintOverflow,
    /// An enum tag byte had no corresponding variant.
    BadTag {
        /// Which type was being decoded.
        what: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// A length prefix exceeded the bytes actually available.
    BadLength,
    /// A frame declared a length beyond [`MAX_FRAME_LEN`](crate::MAX_FRAME_LEN).
    FrameTooLarge {
        /// The declared length.
        len: usize,
    },
    /// The frame's version byte is not one this decoder speaks.
    BadVersion(u8),
    /// Bytes remained after the value was fully decoded.
    TrailingBytes,
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated input"),
            WireError::VarintOverflow => write!(f, "varint over-long or overflowing"),
            WireError::BadTag { what, tag } => write!(f, "unknown {what} tag {tag:#04x}"),
            WireError::BadUtf8 => write!(f, "string field not utf-8"),
            WireError::BadLength => write!(f, "length prefix exceeds input"),
            WireError::FrameTooLarge { len } => write!(f, "frame length {len} over limit"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::TrailingBytes => write!(f, "trailing bytes after value"),
        }
    }
}

impl std::error::Error for WireError {}

/// A value with a canonical wire encoding.
///
/// ```
/// use wire::{Encode, Decode};
/// use bytes::Bytes;
///
/// // Primitives, strings, byte payloads, options, vecs and tuples all
/// // have canonical encodings; protocol messages compose them.
/// let value = (42u64, Bytes::from_static(b"patch"));
/// let buf = value.to_wire();
/// assert_eq!(buf.len(), value.encoded_len()); // exact sizing, always
/// assert_eq!(<(u64, Bytes)>::from_wire(&buf).unwrap(), value);
/// ```
pub trait Encode {
    /// Append this value's encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Exact size `encode` will append, computed without encoding.
    /// Implementations mirror their `encode`; the property tests pin
    /// `encoded_len(m) == encode(m).len()` for every message type.
    fn encoded_len(&self) -> usize;

    /// Convenience: encode into a fresh buffer.
    fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        self.encode(&mut out);
        out
    }
}

/// A value decodable from its canonical wire encoding.
///
/// Decoding is **total**: malformed input returns an error, never a panic
/// and never an allocation ahead of the bytes actually present.
///
/// ```
/// use wire::{Decode, WireError};
///
/// // Truncated input is an error, not a crash …
/// let buf = 300u64.to_wire();
/// assert_eq!(u64::from_wire(&buf[..1]), Err(WireError::Truncated));
/// // … and so are trailing bytes (a value must fill its buffer exactly).
/// let mut long = buf.clone();
/// long.push(0);
/// assert_eq!(u64::from_wire(&long), Err(WireError::TrailingBytes));
/// # use wire::Encode;
/// ```
pub trait Decode: Sized {
    /// Decode one value from the reader's current position.
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError>;

    /// Decode a value that must occupy the **entire** buffer.
    fn from_wire(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = Reader::new(buf);
        let v = Self::decode(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

/// Bounds-checked cursor over a receive buffer.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// When the buffer is a view into a [`Bytes`], payload fields slice it
    /// instead of copying (zero-copy with a real `bytes` implementation).
    backing: Option<&'a Bytes>,
}

impl<'a> Reader<'a> {
    /// Read from a plain byte slice (payload fields copy).
    pub fn new(buf: &'a [u8]) -> Self {
        Reader {
            buf,
            pos: 0,
            backing: None,
        }
    }

    /// Read from a [`Bytes`] buffer; payload fields become slices of it.
    pub fn with_backing(buf: &'a Bytes) -> Self {
        Reader {
            buf,
            pos: 0,
            backing: Some(buf),
        }
    }

    /// Bytes not yet consumed.
    #[inline]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Error unless the whole buffer was consumed.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes)
        }
    }

    /// Take `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    #[inline]
    pub fn read_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a canonical varint `u64`.
    #[inline]
    pub fn read_varint(&mut self) -> Result<u64, WireError> {
        let (v, used) = read_varint(&self.buf[self.pos..])?;
        self.pos += used;
        Ok(v)
    }

    /// Read a varint that must fit the target integer width.
    pub fn read_varint_max(&mut self, max: u64) -> Result<u64, WireError> {
        let v = self.read_varint()?;
        if v > max {
            return Err(WireError::VarintOverflow);
        }
        Ok(v)
    }

    /// Read a varint length prefix, validated against the bytes actually
    /// remaining — the guard that keeps corrupt prefixes from triggering
    /// huge allocations.
    pub fn read_len(&mut self) -> Result<usize, WireError> {
        let v = self.read_varint()?;
        if v > self.remaining() as u64 {
            return Err(WireError::BadLength);
        }
        Ok(v as usize)
    }

    /// Read a fixed 8-byte little-endian `u64` (ring identifiers: their
    /// values are uniform over the full width, so a varint would lose).
    #[inline]
    pub fn read_u64_le(&mut self) -> Result<u64, WireError> {
        let s = self.take(8)?;
        match <[u8; 8]>::try_from(s) {
            Ok(a) => Ok(u64::from_le_bytes(a)),
            Err(_) => Err(WireError::Truncated),
        }
    }

    /// Read a fixed 4-byte little-endian `u32` (frame headers).
    #[inline]
    pub fn read_u32_le(&mut self) -> Result<u32, WireError> {
        let s = self.take(4)?;
        match <[u8; 4]>::try_from(s) {
            Ok(a) => Ok(u32::from_le_bytes(a)),
            Err(_) => Err(WireError::Truncated),
        }
    }

    /// Read a length-prefixed byte payload as [`Bytes`] (sliced from the
    /// backing buffer when available).
    pub fn read_bytes(&mut self) -> Result<Bytes, WireError> {
        let len = self.read_len()?;
        let start = self.pos;
        let raw = self.take(len)?;
        Ok(match self.backing {
            Some(b) => b.slice(start..start + len),
            None => Bytes::copy_from_slice(raw),
        })
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn read_str(&mut self) -> Result<&'a str, WireError> {
        let len = self.read_len()?;
        let raw = self.take(len)?;
        std::str::from_utf8(raw).map_err(|_| WireError::BadUtf8)
    }

    /// Read an optional trailing field: the default when the input ends
    /// here, else a value that must differ from the default — a present
    /// default would be a second encoding of the same message.
    pub fn read_trailing<T: Decode + Default + PartialEq>(&mut self) -> Result<T, WireError> {
        if self.remaining() == 0 {
            return Ok(T::default());
        }
        let v = T::decode(self)?;
        if v == T::default() {
            return Err(WireError::TrailingBytes);
        }
        Ok(v)
    }
}

/// Encoded size of an optional trailing field: nothing at its default.
pub fn trailing_len<T: Encode + Default + PartialEq>(v: &T) -> usize {
    if *v == T::default() {
        0
    } else {
        v.encoded_len()
    }
}

/// Encode an optional trailing field: omitted at its default.
pub fn encode_trailing<T: Encode + Default + PartialEq>(v: &T, out: &mut Vec<u8>) {
    if *v != T::default() {
        v.encode(out);
    }
}

/// Declare an enum's wire form once: a one-byte tag per variant, then the
/// variant's fields in the order listed. Generates [`Encode`] (with
/// `encoded_len`) and [`Decode`]; an unknown tag decodes to
/// [`WireError::BadTag`]. Every field must be listed — the generated
/// pattern and struct literal name them all, so a missing one is a compile
/// error. The last field may be marked `#[trailing]`: omitted when it
/// equals its `Default`, the default when absent, and an explicit default
/// rejected (one value, one encoding). A trailing field must end the
/// message's buffer.
///
/// An optional class function maps each variant to a stable label for
/// wire accounting:
///
/// ```
/// # #[derive(Debug, PartialEq)]
/// # enum Msg { Ping { op: u64 }, Stop, Grant { op: u64, epoch: u64 } }
/// wire::wire_enum! { Msg;
///     /// Accounting label of a `Msg`.
///     pub fn msg_class;
///     0 => Ping { op } = "msg.ping",
///     1 => Stop = "msg.stop",
///     2 => Grant { op, #[trailing] epoch } = "msg.grant",
/// }
/// use wire::{Decode, Encode};
/// assert_eq!(Msg::Grant { op: 7, epoch: 0 }.to_wire(), [2, 7]);
/// assert_eq!(Msg::from_wire(&[2, 7, 3]), Ok(Msg::Grant { op: 7, epoch: 3 }));
/// assert!(Msg::from_wire(&[2, 7, 0]).is_err());
/// assert_eq!(msg_class(&Msg::Stop), "msg.stop");
/// ```
///
/// Tags are a wire contract: append variants, never renumber. detlint's
/// WIRE-TAGS rule reads the `N => Variant` lines and freezes them in
/// `crates/wire/TAGS.lock`; the declaration's first line must read
/// `wire_enum! { Type;` for it to find them.
#[macro_export]
macro_rules! wire_enum {
    (
        $ty:ident;
        $( $tag:literal => $variant:ident
            $({ $($field:ident),* $(, #[trailing] $tail:ident)? })? ),* $(,)?
    ) => {
        impl $crate::Encode for $ty {
            fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                match self {
                    $( $ty::$variant { $($($field,)* $($tail)?)? } => {
                        out.push($tag);
                        $($( $crate::Encode::encode($field, out); )*
                        $( $crate::codec::encode_trailing($tail, out); )?)?
                    } )*
                }
            }

            fn encoded_len(&self) -> usize {
                1 + match self {
                    $( $ty::$variant { $($($field,)* $($tail)?)? } => {
                        0 $($( + $crate::Encode::encoded_len($field) )*
                        $( + $crate::codec::trailing_len($tail) )?)?
                    } )*
                }
            }
        }

        impl $crate::Decode for $ty {
            fn decode(r: &mut $crate::Reader<'_>) -> ::core::result::Result<Self, $crate::WireError> {
                Ok(match r.read_u8()? {
                    $( $tag => $ty::$variant {
                        $($( $field: $crate::Decode::decode(r)?, )*
                        $( $tail: r.read_trailing()?, )?)?
                    }, )*
                    tag => return Err($crate::WireError::BadTag { what: stringify!($ty), tag }),
                })
            }
        }
    };
    (
        $ty:ident;
        $(#[$meta:meta])* $vis:vis fn $class:ident;
        $( $tag:literal => $variant:ident $({ $($fields:tt)* })? = $label:literal ),* $(,)?
    ) => {
        $crate::wire_enum! { $ty; $( $tag => $variant $({ $($fields)* })? ),* }

        $(#[$meta])*
        $vis fn $class(msg: &$ty) -> &'static str {
            match msg {
                $( $ty::$variant { .. } => $label, )*
            }
        }
    };
}

/// Declare a struct's wire form once: its fields in the order listed, no
/// tag. Generates [`Encode`] (with `encoded_len`) and [`Decode`]. Every
/// field must be listed; the last may be `#[trailing]`, with the meaning
/// [`wire_enum!`] gives it.
///
/// ```
/// # #[derive(Debug, PartialEq)]
/// # struct Entry { key: u64, name: String }
/// wire::wire_struct! { Entry { key, name } }
/// use wire::{Decode, Encode};
/// let e = Entry { key: 1, name: "a".into() };
/// assert_eq!(e.to_wire(), [1, 1, b'a']);
/// assert_eq!(Entry::from_wire(&e.to_wire()), Ok(e));
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident { $($field:ident),* $(, #[trailing] $tail:ident)? $(,)? }) => {
        impl $crate::Encode for $ty {
            fn encode(&self, out: &mut ::std::vec::Vec<u8>) {
                let $ty { $($field,)* $($tail)? } = self;
                $( $crate::Encode::encode($field, out); )*
                $( $crate::codec::encode_trailing($tail, out); )?
            }

            fn encoded_len(&self) -> usize {
                let $ty { $($field,)* $($tail)? } = self;
                0 $( + $crate::Encode::encoded_len($field) )*
                $( + $crate::codec::trailing_len($tail) )?
            }
        }

        impl $crate::Decode for $ty {
            fn decode(r: &mut $crate::Reader<'_>) -> ::core::result::Result<Self, $crate::WireError> {
                Ok($ty {
                    $( $field: $crate::Decode::decode(r)?, )*
                    $( $tail: r.read_trailing()?, )?
                })
            }
        }
    };
}

// ---- primitive impls ------------------------------------------------------

impl Encode for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Decode for u8 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.read_u8()
    }
}

impl Encode for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    fn encoded_len(&self) -> usize {
        1
    }
}

impl Decode for bool {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.read_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::BadTag { what: "bool", tag }),
        }
    }
}

impl Encode for u32 {
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, *self as u64);
    }
    fn encoded_len(&self) -> usize {
        varint_len(*self as u64)
    }
}

impl Decode for u32 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(r.read_varint_max(u32::MAX as u64)? as u32)
    }
}

impl Encode for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, *self);
    }
    fn encoded_len(&self) -> usize {
        varint_len(*self)
    }
}

impl Decode for u64 {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.read_varint()
    }
}

impl Encode for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, *self as u64);
    }
    fn encoded_len(&self) -> usize {
        varint_len(*self as u64)
    }
}

impl Decode for usize {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(r.read_varint_max(usize::MAX as u64)? as usize)
    }
}

impl Encode for str {
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, self.len() as u64);
        out.extend_from_slice(self.as_bytes());
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.len()
    }
}

impl Encode for String {
    fn encode(&self, out: &mut Vec<u8>) {
        self.as_str().encode(out);
    }
    fn encoded_len(&self) -> usize {
        self.as_str().encoded_len()
    }
}

impl Decode for String {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok(r.read_str()?.to_owned())
    }
}

impl Encode for Bytes {
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, self.len() as u64);
        out.extend_from_slice(self);
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.len()
    }
}

impl Decode for Bytes {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        r.read_bytes()
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Encode::encoded_len)
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        match r.read_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(WireError::BadTag {
                what: "option",
                tag,
            }),
        }
    }
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        write_varint(out, self.len() as u64);
        for item in self {
            item.encode(out);
        }
    }
    fn encoded_len(&self) -> usize {
        varint_len(self.len() as u64) + self.iter().map(Encode::encoded_len).sum::<usize>()
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let count = r.read_varint()?;
        // Guard: each element costs at least one byte, so a count beyond
        // the remaining bytes is malformed — reject before allocating.
        if count > r.remaining() as u64 {
            return Err(WireError::BadLength);
        }
        // The count bounds *elements*, not allocation: with multi-word
        // element types a hostile count that passes the byte guard could
        // still pre-allocate tens of times the frame size. Cap the upfront
        // reservation and let growth handle honest large vectors.
        let mut v = Vec::with_capacity((count as usize).min(1024));
        for _ in 0..count {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

impl<const N: usize> Encode for [u8; N] {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
    fn encoded_len(&self) -> usize {
        N
    }
}

impl<const N: usize> Decode for [u8; N] {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        let raw = r.take(N)?;
        <[u8; N]>::try_from(raw).map_err(|_| WireError::Truncated)
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Encode, B: Encode, C: Encode> Encode for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len() + self.2.encoded_len()
    }
}

impl<A: Decode, B: Decode, C: Decode> Decode for (A, B, C) {
    fn decode(r: &mut Reader<'_>) -> Result<Self, WireError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rt<T: Encode + Decode + PartialEq + std::fmt::Debug>(v: T) {
        let buf = v.to_wire();
        assert_eq!(buf.len(), v.encoded_len());
        assert_eq!(T::from_wire(&buf).unwrap(), v);
    }

    #[test]
    fn primitives_roundtrip() {
        rt(0u8);
        rt(255u8);
        rt(true);
        rt(false);
        rt(0u32);
        rt(u32::MAX);
        rt(u64::MAX);
        rt(String::new());
        rt("héllo ⇄ wire".to_string());
        rt(Bytes::from(vec![1, 2, 3]));
        rt(Option::<u64>::None);
        rt(Some(42u64));
        rt(vec![1u64, 2, 3]);
        rt(Vec::<u64>::new());
        rt((7u64, Bytes::from(vec![9])));
        rt([0u8; 0]);
        rt([7u8; 20]);
        rt((1u8, 2u32, [3u8; 4]));
    }

    #[test]
    fn truncated_fixed_array_is_an_error() {
        assert_eq!(<[u8; 20]>::from_wire(&[0; 19]), Err(WireError::Truncated));
    }

    #[test]
    fn bad_tags_are_errors() {
        assert_eq!(
            bool::from_wire(&[2]),
            Err(WireError::BadTag {
                what: "bool",
                tag: 2
            })
        );
        assert!(matches!(
            Option::<u8>::from_wire(&[7, 0]),
            Err(WireError::BadTag { .. })
        ));
    }

    #[test]
    fn oversized_length_prefixes_rejected_before_allocating() {
        // Vec count = u64::MAX with a 2-byte body.
        let mut buf = Vec::new();
        crate::varint::write_varint(&mut buf, u64::MAX);
        buf.extend_from_slice(&[0, 0]);
        assert_eq!(Vec::<u8>::from_wire(&buf), Err(WireError::BadLength));
        // String length beyond the buffer.
        let mut buf = Vec::new();
        crate::varint::write_varint(&mut buf, 100);
        buf.extend_from_slice(b"short");
        assert_eq!(String::from_wire(&buf), Err(WireError::BadLength));
    }

    #[test]
    fn trailing_bytes_rejected_by_from_wire() {
        let mut buf = 5u64.to_wire();
        buf.push(0);
        assert_eq!(u64::from_wire(&buf), Err(WireError::TrailingBytes));
    }

    #[test]
    fn u32_range_enforced() {
        let buf = (u32::MAX as u64 + 1).to_wire();
        assert_eq!(u32::from_wire(&buf), Err(WireError::VarintOverflow));
    }

    #[test]
    fn non_utf8_string_rejected() {
        let buf = vec![2, 0xff, 0xfe];
        assert_eq!(String::from_wire(&buf), Err(WireError::BadUtf8));
    }

    // A message as an old peer declares it (V1), and as a newer peer
    // declares it after appending one trailing field (V2).
    #[derive(Debug, PartialEq)]
    enum GrantV1 {
        Granted { op: u64, ts: u64 },
    }
    #[derive(Debug, PartialEq)]
    enum GrantV2 {
        Granted { op: u64, ts: u64, epoch: u64 },
    }
    crate::wire_enum! { GrantV1;
        1 => Granted { op, ts },
    }
    crate::wire_enum! { GrantV2;
        1 => Granted { op, ts, #[trailing] epoch },
    }

    #[test]
    fn a_trailing_field_is_compatible_both_ways() {
        let v1 = GrantV1::Granted { op: 7, ts: 300 }.to_wire();
        let v2 = GrantV2::Granted {
            op: 7,
            ts: 300,
            epoch: 0,
        };
        // Old bytes decode under the new declaration with the default …
        assert_eq!(GrantV2::from_wire(&v1).as_ref(), Ok(&v2));
        // … and a new message at the default is the old message, byte
        // for byte.
        assert_eq!(v2.to_wire(), v1);
        assert_eq!(v2.encoded_len(), v1.len());
        assert_eq!(
            GrantV1::from_wire(&v2.to_wire()),
            Ok(GrantV1::Granted { op: 7, ts: 300 })
        );
        // A set trailing field is bytes the old peer does not know.
        let v2 = GrantV2::Granted {
            op: 7,
            ts: 300,
            epoch: 3,
        };
        assert_eq!(v2.encoded_len(), v1.len() + 1);
        assert_eq!(
            GrantV1::from_wire(&v2.to_wire()),
            Err(WireError::TrailingBytes)
        );
        assert_eq!(GrantV2::from_wire(&v2.to_wire()), Ok(v2));
        // An explicit default is a second encoding: rejected.
        let mut explicit = v1.clone();
        explicit.push(0);
        assert_eq!(GrantV2::from_wire(&explicit), Err(WireError::TrailingBytes));
    }

    #[test]
    fn backed_reader_slices_payloads() {
        let payload = Bytes::from(vec![9u8; 16]);
        let mut buf = Vec::new();
        payload.encode(&mut buf);
        let backing = Bytes::from(buf);
        let mut r = Reader::with_backing(&backing);
        let back = Bytes::decode(&mut r).unwrap();
        assert_eq!(back, payload);
        r.finish().unwrap();
    }
}
