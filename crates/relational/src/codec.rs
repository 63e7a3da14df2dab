//! The one binary value encoding behind every file clio writes: heap
//! records and `_index.clh` entries ([`crate::storage`]) and the
//! evaluation cache's entry files (`clio-incr`'s `DiskStore`).
//!
//! Integers are little-endian; a string is a `u32` byte length and its
//! UTF-8 bytes; a value is a tag and its payload: `0` null, `1` int
//! (`i64`), `2` float (`f64` bits), `3` string, `4` bool (one byte, `0`
//! or `1`). Writers append with the `put_*` functions; readers decode
//! through one bounds-checked [`Reader`], whose every short read, bad
//! tag or bad UTF-8 is an `Err` with a short human detail, never a
//! panic.

use crate::value::Value;

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_BOOL: u8 = 4;

/// Append `n` as a `u32`.
pub fn put_u32(out: &mut Vec<u8>, n: u32) {
    out.extend_from_slice(&n.to_le_bytes());
}

/// Append `n` as a `u64`.
pub fn put_u64(out: &mut Vec<u8>, n: u64) {
    out.extend_from_slice(&n.to_le_bytes());
}

/// Append a count or length as a `u32`; panics past `u32::MAX`.
pub fn put_len(out: &mut Vec<u8>, n: usize) {
    put_u32(out, u32::try_from(n).expect("length fits u32"));
}

/// Append a string: its `u32` byte length, then its UTF-8 bytes.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_len(out, s.len());
    out.extend_from_slice(s.as_bytes());
}

/// Append one tagged value.
pub fn put_value(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Null => out.push(TAG_NULL),
        Value::Int(i) => {
            out.push(TAG_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Float(x) => {
            out.push(TAG_FLOAT);
            put_u64(out, x.to_bits());
        }
        Value::Str(s) => {
            out.push(TAG_STR);
            put_str(out, s);
        }
        Value::Bool(b) => {
            out.push(TAG_BOOL);
            out.push(u8::from(*b));
        }
    }
}

/// A bounds-checked cursor over untrusted bytes.
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `bytes`.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Reader<'a> {
        Reader { bytes, pos: 0 }
    }

    /// The next `n` bytes, or `"truncated"` when fewer remain.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| "truncated".to_owned())?;
        let s = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(s)
    }

    /// One byte.
    #[inline]
    pub fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    /// A `u32`.
    #[inline]
    pub fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// A `u64`.
    #[inline]
    pub fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A length-prefixed string, borrowed from the input; invalid UTF-8
    /// is an error.
    #[inline]
    pub fn str(&mut self) -> Result<&'a str, String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| "invalid UTF-8".to_owned())
    }

    /// One tagged value; an unknown tag or a bool byte other than 0 or 1
    /// is an error.
    pub fn value(&mut self) -> Result<Value, String> {
        match self.u8()? {
            TAG_NULL => Ok(Value::Null),
            TAG_INT => Ok(Value::Int(self.u64()? as i64)),
            TAG_FLOAT => Ok(Value::Float(f64::from_bits(self.u64()?))),
            TAG_STR => Ok(Value::str(self.str()?)),
            TAG_BOOL => match self.u8()? {
                0 => Ok(Value::Bool(false)),
                1 => Ok(Value::Bool(true)),
                b => Err(format!("bad bool byte {b}")),
            },
            tag => Err(format!("unknown value tag {tag}")),
        }
    }

    /// Bytes not yet read: the bound every untrusted count is checked
    /// against before anything is allocated for it.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// `Ok` when every byte is read, else `"trailing bytes"`.
    pub fn done(&self) -> Result<(), String> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err("trailing bytes".to_owned())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_kinds() -> Vec<Value> {
        vec![
            Value::Null,
            Value::Int(i64::MIN),
            Value::Float(-0.25),
            Value::str("héllo"),
            Value::Bool(true),
            Value::Bool(false),
        ]
    }

    #[test]
    fn values_round_trip_and_every_short_read_is_an_error() {
        let mut bytes = Vec::new();
        for v in &all_kinds() {
            put_value(&mut bytes, v);
        }
        let mut r = Reader::new(&bytes);
        let back: Vec<Value> = all_kinds().iter().map(|_| r.value().unwrap()).collect();
        assert_eq!(back, all_kinds());
        r.done().unwrap();
        for n in 0..bytes.len() {
            let mut r = Reader::new(&bytes[..n]);
            let read = all_kinds().iter().try_for_each(|_| r.value().map(drop));
            assert!(read.is_err(), "prefix of {n} bytes");
        }
    }

    #[test]
    fn reader_rejects_invalid_utf8_tags_bools_and_trailing_bytes() {
        // a 2-byte string holding a lone continuation byte
        let mut bytes = vec![TAG_STR];
        put_len(&mut bytes, 2);
        bytes.extend_from_slice(&[b'a', 0x80]);
        assert_eq!(Reader::new(&bytes).value().unwrap_err(), "invalid UTF-8");
        assert!(Reader::new(&[9]).value().unwrap_err().contains("tag 9"));
        assert!(Reader::new(&[TAG_BOOL, 2])
            .value()
            .unwrap_err()
            .contains("bool"));
        let mut r = Reader::new(&[TAG_NULL, 0]);
        r.value().unwrap();
        assert_eq!(r.remaining(), 1);
        assert_eq!(r.done().unwrap_err(), "trailing bytes");
        // a length that overflows the position is a short read
        let mut r = Reader::new(&[0]);
        r.u8().unwrap();
        assert!(r.take(usize::MAX).is_err());
    }
}
