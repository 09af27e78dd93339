//! Compact binary serialization for [`Value`], used by the storage layer
//! (records in LSM pages) and by the stable hash.
//!
//! The encoding is a type-tag byte followed by a payload:
//!
//! ```text
//! missing        : 0x00
//! null           : 0x01
//! boolean        : 0x02 u8
//! int64          : 0x03 i64-le
//! double         : 0x04 f64-bits-le
//! string         : 0x05 varlen bytes
//! ordered list   : 0x06 varlen count, items
//! unordered list : 0x07 varlen count, items
//! record         : 0x08 varlen count, (varlen name, value)*
//! ```
//!
//! Lengths use LEB128-style varints to keep short strings (the common case
//! for tokens and names) at 1 length byte.

use crate::error::AdmError;
use crate::value::{OrderedF64, Value};
use crate::Fnv1a;
use bytes::{Buf, BufMut, Bytes, BytesMut};

const TAG_MISSING: u8 = 0x00;
const TAG_NULL: u8 = 0x01;
const TAG_BOOLEAN: u8 = 0x02;
const TAG_INT64: u8 = 0x03;
const TAG_DOUBLE: u8 = 0x04;
const TAG_STRING: u8 = 0x05;
const TAG_ORDERED_LIST: u8 = 0x06;
const TAG_UNORDERED_LIST: u8 = 0x07;
const TAG_RECORD: u8 = 0x08;

/// Encode `v` into `out`.
pub fn encode_value(v: &Value, out: &mut BytesMut) {
    match v {
        Value::Missing => out.put_u8(TAG_MISSING),
        Value::Null => out.put_u8(TAG_NULL),
        Value::Boolean(b) => {
            out.put_u8(TAG_BOOLEAN);
            out.put_u8(*b as u8);
        }
        Value::Int64(i) => {
            out.put_u8(TAG_INT64);
            out.put_i64_le(*i);
        }
        Value::Double(d) => {
            out.put_u8(TAG_DOUBLE);
            out.put_u64_le(d.0.to_bits());
        }
        Value::String(s) => {
            out.put_u8(TAG_STRING);
            put_varint(out, s.len() as u64);
            out.put_slice(s.as_bytes());
        }
        Value::OrderedList(items) => {
            out.put_u8(TAG_ORDERED_LIST);
            put_varint(out, items.len() as u64);
            for it in items {
                encode_value(it, out);
            }
        }
        Value::UnorderedList(items) => {
            out.put_u8(TAG_UNORDERED_LIST);
            put_varint(out, items.len() as u64);
            for it in items {
                encode_value(it, out);
            }
        }
        Value::Record(fields) => {
            out.put_u8(TAG_RECORD);
            put_varint(out, fields.len() as u64);
            for (name, val) in fields {
                put_varint(out, name.len() as u64);
                out.put_slice(name.as_bytes());
                encode_value(val, out);
            }
        }
    }
}

/// Encode to a standalone buffer.
pub fn to_bytes(v: &Value) -> Bytes {
    let mut out = BytesMut::with_capacity(v.heap_size() + 8);
    encode_value(v, &mut out);
    out.freeze()
}

/// Decode a single value, consuming from `buf`.
pub fn decode_value(buf: &mut impl Buf) -> Result<Value, AdmError> {
    if !buf.has_remaining() {
        return Err(AdmError::Decode("empty buffer".into()));
    }
    let tag = buf.get_u8();
    match tag {
        TAG_MISSING => Ok(Value::Missing),
        TAG_NULL => Ok(Value::Null),
        TAG_BOOLEAN => {
            need(buf, 1)?;
            Ok(Value::Boolean(buf.get_u8() != 0))
        }
        TAG_INT64 => {
            need(buf, 8)?;
            Ok(Value::Int64(buf.get_i64_le()))
        }
        TAG_DOUBLE => {
            need(buf, 8)?;
            Ok(Value::Double(OrderedF64(f64::from_bits(buf.get_u64_le()))))
        }
        TAG_STRING => {
            let n = get_varint(buf)? as usize;
            need(buf, n)?;
            let mut bytes = vec![0u8; n];
            buf.copy_to_slice(&mut bytes);
            String::from_utf8(bytes)
                .map(Value::String)
                .map_err(|e| AdmError::Decode(format!("bad utf8: {e}")))
        }
        TAG_ORDERED_LIST | TAG_UNORDERED_LIST => {
            let n = get_varint(buf)? as usize;
            let mut items = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                items.push(decode_value(buf)?);
            }
            if tag == TAG_ORDERED_LIST {
                Ok(Value::OrderedList(items))
            } else {
                Ok(Value::UnorderedList(items))
            }
        }
        TAG_RECORD => {
            let n = get_varint(buf)? as usize;
            let mut fields = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                let len = get_varint(buf)? as usize;
                need(buf, len)?;
                let mut name = vec![0u8; len];
                buf.copy_to_slice(&mut name);
                let name = String::from_utf8(name)
                    .map_err(|e| AdmError::Decode(format!("bad utf8 field name: {e}")))?;
                let val = decode_value(buf)?;
                fields.push((name, val));
            }
            // Encoded records are already canonical (sorted); trust but keep
            // semantics by re-canonicalizing.
            Ok(Value::record(fields))
        }
        other => Err(AdmError::Decode(format!("unknown tag 0x{other:02x}"))),
    }
}

/// Decode from a standalone buffer.
pub fn from_bytes(mut bytes: &[u8]) -> Result<Value, AdmError> {
    decode_value(&mut bytes)
}

/// Feed exactly the bytes [`hash_value`] feeds for `Value::Int64(i)`, for
/// callers holding a bare `i64` (native batch columns).
#[inline]
pub fn hash_int64(i: i64, h: &mut Fnv1a) {
    h.write_u8(TAG_INT64);
    h.write(&i.to_le_bytes());
}

/// Feed exactly the bytes [`hash_value`] feeds for `Value::String(s)`, for
/// callers holding a borrowed `&str` (arena string columns).
#[inline]
pub fn hash_str(s: &str, h: &mut Fnv1a) {
    h.write_u8(TAG_STRING);
    h.write(&(s.len() as u64).to_le_bytes());
    h.write(s.as_bytes());
}

/// Feed the canonical encoding of `v` into a hasher without allocating.
pub fn hash_value(v: &Value, h: &mut Fnv1a) {
    match v {
        Value::Missing => h.write_u8(TAG_MISSING),
        Value::Null => h.write_u8(TAG_NULL),
        Value::Boolean(b) => {
            h.write_u8(TAG_BOOLEAN);
            h.write_u8(*b as u8);
        }
        Value::Int64(i) => hash_int64(*i, h),
        Value::Double(d) => {
            // Hash doubles that are exact integers as Int64 so that
            // Int64(2) and Double(2.0) land in the same hash-join bucket
            // (they compare numerically equal at the `==` level).
            if d.0.fract() == 0.0 && d.0.abs() < (i64::MAX as f64) {
                hash_int64(d.0 as i64, h);
            } else {
                h.write_u8(TAG_DOUBLE);
                h.write(&d.0.to_bits().to_le_bytes());
            }
        }
        Value::String(s) => hash_str(s, h),
        Value::OrderedList(items) | Value::UnorderedList(items) => {
            h.write_u8(if matches!(v, Value::OrderedList(_)) {
                TAG_ORDERED_LIST
            } else {
                TAG_UNORDERED_LIST
            });
            h.write(&(items.len() as u64).to_le_bytes());
            for it in items {
                hash_value(it, h);
            }
        }
        Value::Record(fields) => {
            h.write_u8(TAG_RECORD);
            h.write(&(fields.len() as u64).to_le_bytes());
            for (name, val) in fields {
                h.write(name.as_bytes());
                h.write_u8(0);
                hash_value(val, h);
            }
        }
    }
}

fn need(buf: &impl Buf, n: usize) -> Result<(), AdmError> {
    if buf.remaining() < n {
        Err(AdmError::Decode(format!(
            "need {n} bytes, have {}",
            buf.remaining()
        )))
    } else {
        Ok(())
    }
}

fn put_varint(out: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.put_u8(byte);
            return;
        }
        out.put_u8(byte | 0x80);
    }
}

fn get_varint(buf: &mut impl Buf) -> Result<u64, AdmError> {
    let mut v = 0u64;
    let mut shift = 0;
    loop {
        if !buf.has_remaining() {
            return Err(AdmError::Decode("truncated varint".into()));
        }
        let byte = buf.get_u8();
        v |= ((byte & 0x7f) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift >= 64 {
            return Err(AdmError::Decode("varint overflow".into()));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn roundtrip(v: &Value) {
        let bytes = to_bytes(v);
        let back = from_bytes(&bytes).expect("decode");
        assert_eq!(&back, v);
    }

    #[test]
    fn roundtrip_scalars() {
        roundtrip(&Value::Missing);
        roundtrip(&Value::Null);
        roundtrip(&Value::Boolean(true));
        roundtrip(&Value::Int64(-42));
        roundtrip(&Value::double(3.5));
        roundtrip(&Value::from("héllo ✓"));
    }

    #[test]
    fn roundtrip_nested() {
        let v = Value::record(vec![
            (
                "tags".into(),
                Value::OrderedList(vec![Value::from("a"), Value::from("b")]),
            ),
            (
                "who".into(),
                Value::record(vec![("name".into(), Value::from("ada"))]),
            ),
        ]);
        roundtrip(&v);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(from_bytes(&[0xff, 0x00]).is_err());
        assert!(from_bytes(&[]).is_err());
        // Truncated string
        assert!(from_bytes(&[TAG_STRING, 5, b'a']).is_err());
    }

    #[test]
    fn varint_boundaries() {
        for v in [0u64, 1, 127, 128, 16383, 16384, u64::MAX] {
            let mut out = BytesMut::new();
            put_varint(&mut out, v);
            let mut slice: &[u8] = &out;
            assert_eq!(get_varint(&mut slice).unwrap(), v);
        }
    }

    #[test]
    fn int_double_hash_join_compat() {
        use crate::stable_hash;
        assert_eq!(
            stable_hash(&Value::Int64(7)),
            stable_hash(&Value::double(7.0))
        );
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            Just(Value::Missing),
            any::<bool>().prop_map(Value::Boolean),
            any::<i64>().prop_map(Value::Int64),
            any::<f64>().prop_map(Value::double),
            "[a-zA-Z0-9 ]{0,24}".prop_map(Value::from),
        ];
        leaf.prop_recursive(3, 24, 6, |inner| {
            prop_oneof![
                prop::collection::vec(inner.clone(), 0..6).prop_map(Value::OrderedList),
                prop::collection::vec(inner.clone(), 0..6).prop_map(Value::unordered_list),
                prop::collection::vec(("[a-z]{1,8}", inner), 0..6)
                    .prop_map(|fs| Value::record(fs.into_iter().collect())),
            ]
        })
    }

    proptest! {
        #[test]
        fn prop_roundtrip(v in arb_value()) {
            roundtrip(&v);
        }

        #[test]
        fn prop_hash_agrees_with_eq(a in arb_value(), b in arb_value()) {
            use crate::stable_hash;
            if a == b {
                prop_assert_eq!(stable_hash(&a), stable_hash(&b));
            }
        }

        #[test]
        fn prop_decode_arbitrary_bytes_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
            let _ = from_bytes(&bytes);
        }
    }
}
