//! Out-of-band format meta-data: canonical serialization of
//! [`RecordFormat`] descriptions and the [`FormatId`] derived from it.
//!
//! PBIO transmits format descriptions *out of band* (once, via a format
//! server or handshake) and stamps each wire message with only a compact
//! format identity. This module provides both halves: a deterministic binary
//! serialization of a format tree, and a 64-bit FNV-1a hash of that
//! serialization used as the format's identity on the wire.

use std::fmt;
use std::sync::Arc;

use crate::error::{PbioError, Result};
use crate::types::{ArrayLen, BasicType, EnumVariant, Field, FieldType, RecordFormat, Width};

/// Compact identity of a format: the FNV-1a-64 hash of its canonical
/// serialization. Two formats with the same field names, types, and order
/// have the same id (defaults do not participate in identity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FormatId(pub u64);

impl fmt::Display for FormatId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

impl fmt::LowerHex for FormatId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::LowerHex::fmt(&self.0, f)
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Computes the wire identity of a format.
///
/// # Examples
///
/// ```
/// # fn main() -> Result<(), pbio::PbioError> {
/// use pbio::{format_id, FormatBuilder};
///
/// let a = FormatBuilder::record("Msg").int("load").build()?;
/// let b = FormatBuilder::record("Msg").int("load").build()?;
/// let c = FormatBuilder::record("Msg").int("mem").build()?;
/// assert_eq!(format_id(&a), format_id(&b));
/// assert_ne!(format_id(&a), format_id(&c));
/// # Ok(())
/// # }
/// ```
pub fn format_id(format: &RecordFormat) -> FormatId {
    FormatId(fnv1a(&serialize_format(format)))
}

// -- canonical serialization ------------------------------------------------

const TAG_INT: u8 = 1;
const TAG_UINT: u8 = 2;
const TAG_FLOAT: u8 = 3;
const TAG_CHAR: u8 = 4;
const TAG_ENUM: u8 = 5;
const TAG_STRING: u8 = 6;
const TAG_RECORD: u8 = 7;
const TAG_ARRAY_FIXED: u8 = 8;
const TAG_ARRAY_VAR: u8 = 9;

fn put_str(out: &mut Vec<u8>, s: &str) {
    out.extend_from_slice(&(s.len() as u32).to_le_bytes());
    out.extend_from_slice(s.as_bytes());
}

fn put_type(out: &mut Vec<u8>, ty: &FieldType) {
    match ty {
        FieldType::Basic(b) => match b {
            BasicType::Int(w) => out.extend_from_slice(&[TAG_INT, w.bytes() as u8]),
            BasicType::UInt(w) => out.extend_from_slice(&[TAG_UINT, w.bytes() as u8]),
            BasicType::Float(w) => out.extend_from_slice(&[TAG_FLOAT, w.bytes() as u8]),
            BasicType::Char => out.push(TAG_CHAR),
            BasicType::Enum { name, variants } => {
                out.push(TAG_ENUM);
                put_str(out, name);
                out.extend_from_slice(&(variants.len() as u32).to_le_bytes());
                for v in variants {
                    put_str(out, &v.name);
                    out.extend_from_slice(&v.discriminant.to_le_bytes());
                }
            }
            BasicType::String => out.push(TAG_STRING),
        },
        FieldType::Record(r) => {
            out.push(TAG_RECORD);
            put_record(out, r);
        }
        FieldType::Array { elem, len } => {
            match len {
                ArrayLen::Fixed(n) => {
                    out.push(TAG_ARRAY_FIXED);
                    out.extend_from_slice(&(*n as u64).to_le_bytes());
                }
                ArrayLen::LengthField(f) => {
                    out.push(TAG_ARRAY_VAR);
                    put_str(out, f);
                }
            }
            put_type(out, elem);
        }
    }
}

fn put_record(out: &mut Vec<u8>, r: &RecordFormat) {
    put_str(out, r.name());
    out.extend_from_slice(&(r.fields().len() as u32).to_le_bytes());
    for f in r.fields() {
        put_str(out, f.name());
        put_type(out, f.ty());
    }
}

/// Serializes a format description to its canonical out-of-band byte form.
pub fn serialize_format(format: &RecordFormat) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    put_record(&mut out, format);
    out
}

// -- deserialization ----------------------------------------------------------

/// Deepest record/array nesting [`deserialize_format`] accepts. Parsing
/// recurses once per level, so without a bound a few megabytes of nested
/// array tags would exhaust the stack.
pub const MAX_META_DEPTH: usize = 64;

/// Fewest canonical bytes one field can take: a name length and a tag.
const MIN_FIELD_BYTES: usize = 5;

/// Fewest canonical bytes one enum variant can take: a name length and a
/// discriminant.
const MIN_VARIANT_BYTES: usize = 8;

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// Reads an element count, rejecting one the remaining bytes cannot
    /// hold at `min_bytes` per element — so a hostile count fails here
    /// instead of reserving memory for elements that are not there.
    fn count(&mut self, min_bytes: usize) -> Result<usize> {
        let n = self.u32()? as usize;
        if n > (self.buf.len() - self.pos) / min_bytes {
            return Err(PbioError::UnexpectedEof);
        }
        Ok(n)
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.pos + n > self.buf.len() {
            return Err(PbioError::UnexpectedEof);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("slice is 4 bytes")))
    }

    fn u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("slice is 8 bytes")))
    }

    fn i32(&mut self) -> Result<i32> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().expect("slice is 4 bytes")))
    }

    fn string(&mut self) -> Result<String> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|_| PbioError::BadData("non-UTF-8 string in format meta-data".into()))
    }
}

/// Reads one field type with `depth` record/array levels already open
/// around it (the top-level record is level 1).
fn get_type(c: &mut Cursor<'_>, depth: usize) -> Result<FieldType> {
    let tag = c.u8()?;
    Ok(match tag {
        TAG_INT => FieldType::Basic(BasicType::Int(Width::from_bytes(c.u8()? as usize)?)),
        TAG_UINT => FieldType::Basic(BasicType::UInt(Width::from_bytes(c.u8()? as usize)?)),
        TAG_FLOAT => FieldType::Basic(BasicType::Float(Width::from_bytes(c.u8()? as usize)?)),
        TAG_CHAR => FieldType::Basic(BasicType::Char),
        TAG_ENUM => {
            let name = c.string()?;
            let n = c.count(MIN_VARIANT_BYTES)?;
            let mut variants = Vec::with_capacity(n);
            for _ in 0..n {
                let vname = c.string()?;
                let disc = c.i32()?;
                variants.push(EnumVariant { name: vname, discriminant: disc });
            }
            FieldType::Basic(BasicType::Enum { name, variants })
        }
        TAG_STRING => FieldType::Basic(BasicType::String),
        TAG_RECORD => FieldType::Record(Arc::new(get_record(c, depth + 1)?)),
        TAG_ARRAY_FIXED | TAG_ARRAY_VAR if depth >= MAX_META_DEPTH => return Err(too_deep()),
        TAG_ARRAY_FIXED => {
            let n = c.u64()? as usize;
            let elem = get_type(c, depth + 1)?;
            FieldType::Array { elem: Box::new(elem), len: ArrayLen::Fixed(n) }
        }
        TAG_ARRAY_VAR => {
            let f = c.string()?;
            let elem = get_type(c, depth + 1)?;
            FieldType::Array { elem: Box::new(elem), len: ArrayLen::LengthField(f) }
        }
        t => return Err(PbioError::BadData(format!("unknown type tag {t} in format meta-data"))),
    })
}

fn too_deep() -> PbioError {
    PbioError::BadData(format!("format meta-data nests deeper than {MAX_META_DEPTH} levels"))
}

fn get_record(c: &mut Cursor<'_>, depth: usize) -> Result<RecordFormat> {
    if depth > MAX_META_DEPTH {
        return Err(too_deep());
    }
    let name = c.string()?;
    let n = c.count(MIN_FIELD_BYTES)?;
    let mut fields = Vec::with_capacity(n);
    for _ in 0..n {
        let fname = c.string()?;
        let ty = get_type(c, depth)?;
        fields.push(Field::new(fname, ty));
    }
    RecordFormat::new(name, fields)
}

/// Reconstructs a format description from its canonical byte form.
///
/// Declared default values are not part of the canonical form and are lost
/// in a round trip; identity ([`format_id`]) is preserved.
///
/// # Errors
///
/// Returns [`PbioError::BadData`] / [`PbioError::UnexpectedEof`] for
/// malformed input (including nesting deeper than [`MAX_META_DEPTH`]) and
/// [`PbioError::BadFormat`] if the encoded description violates format
/// invariants.
pub fn deserialize_format(bytes: &[u8]) -> Result<RecordFormat> {
    let mut c = Cursor { buf: bytes, pos: 0 };
    let r = get_record(&mut c, 1)?;
    if c.pos != bytes.len() {
        return Err(PbioError::BadData("trailing bytes after format meta-data".into()));
    }
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::FormatBuilder;

    fn nested_format() -> RecordFormat {
        let member = FormatBuilder::record("Member")
            .string("info")
            .int("ID")
            .int("is_source")
            .int("is_sink")
            .build_arc()
            .unwrap();
        FormatBuilder::record("ChannelOpenResponse")
            .int("member_count")
            .var_array_of("member_list", member, "member_count")
            .build()
            .unwrap()
    }

    #[test]
    fn roundtrip_preserves_structure_and_id() {
        let f = nested_format();
        let bytes = serialize_format(&f);
        let g = deserialize_format(&bytes).unwrap();
        assert_eq!(f, g);
        assert_eq!(format_id(&f), format_id(&g));
    }

    #[test]
    fn id_is_stable_and_sensitive() {
        let f = nested_format();
        assert_eq!(format_id(&f), format_id(&nested_format()));
        let renamed =
            FormatBuilder::record("ChannelOpenResponse").int("member_count").build().unwrap();
        assert_ne!(format_id(&f), format_id(&renamed));
    }

    #[test]
    fn id_ignores_defaults() {
        use crate::types::{BasicType, FieldType, Width};
        use crate::value::Value;
        let plain = FormatBuilder::record("R").int("mode").build().unwrap();
        let with_default = FormatBuilder::record("R")
            .field_with_default("mode", FieldType::Basic(BasicType::Int(Width::W4)), Value::Int(9))
            .build()
            .unwrap();
        assert_eq!(format_id(&plain), format_id(&with_default));
    }

    #[test]
    fn field_order_changes_id() {
        let ab = FormatBuilder::record("R").int("a").int("b").build().unwrap();
        let ba = FormatBuilder::record("R").int("b").int("a").build().unwrap();
        assert_ne!(format_id(&ab), format_id(&ba));
    }

    #[test]
    fn truncated_metadata_rejected() {
        let f = nested_format();
        let bytes = serialize_format(&f);
        assert!(deserialize_format(&bytes[..bytes.len() - 3]).is_err());
    }

    #[test]
    fn trailing_bytes_rejected() {
        let f = nested_format();
        let mut bytes = serialize_format(&f);
        bytes.push(0);
        assert!(deserialize_format(&bytes).is_err());
    }

    #[test]
    fn enum_roundtrip() {
        use crate::types::{BasicType, EnumVariant, FieldType};
        let f = FormatBuilder::record("R")
            .field(
                "color",
                FieldType::Basic(BasicType::Enum {
                    name: "Color".into(),
                    variants: vec![
                        EnumVariant { name: "Red".into(), discriminant: 0 },
                        EnumVariant { name: "Green".into(), discriminant: -7 },
                    ],
                }),
            )
            .build()
            .unwrap();
        let g = deserialize_format(&serialize_format(&f)).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn display_formats_hex() {
        let id = FormatId(0xdead_beef);
        assert_eq!(id.to_string(), "00000000deadbeef");
        assert_eq!(format!("{id:x}"), "deadbeef");
    }
}
