//! The TCLK file container, shared by training checkpoints and converted
//! models.
//!
//! ```text
//! magic "TCLK" | version u32 = 3 | section count u32
//! section: tag u8 | payload length u64 | payload CRC32 u32 | payload
//! ```
//!
//! | tag | section    | file                                              |
//! |-----|------------|---------------------------------------------------|
//! | 1   | META       | checkpoint                                        |
//! | 2   | NETWORK    | checkpoint and model: the layer codec's payload   |
//! | 3   | MOMENTUM   | checkpoint                                        |
//! | 4   | RNG        | checkpoint                                        |
//! | 5   | REPORT     | checkpoint                                        |
//! | 6   | CONVERSION | model (written by `tcl-core`)                     |
//!
//! [`seal`] frames payloads; [`Sections::open`] checks the magic, the
//! version, every section's CRC32 (IEEE), that each tag is one the caller
//! knows and appears once, and that no byte trails the last section. The
//! payloads are then decoded with the little-endian readers below, every
//! one of which goes through [`take`]: a length field that claims more
//! bytes than remain fails before anything is allocated for it, so no input
//! makes a decoder panic.

use crate::error::{NnError, Result};
use tcl_tensor::{Shape, Tensor};

pub use crate::io::{read_network, write_network};

/// The file magic.
pub const MAGIC: &[u8; 4] = b"TCLK";
/// The container version; it covers every payload layout, which carry no
/// version of their own.
pub const VERSION: u32 = 3;

/// Training checkpoint: config fingerprint and epoch cursor.
pub(crate) const SEC_META: u8 = 1;
/// The network's layer records ([`write_network`]).
pub const SEC_NETWORK: u8 = 2;
/// Training checkpoint: one momentum tensor per parameter.
pub(crate) const SEC_MOMENTUM: u8 = 3;
/// Training checkpoint: the shuffle RNG's state words.
pub(crate) const SEC_RNG: u8 = 4;
/// Training checkpoint: per-epoch statistics.
pub(crate) const SEC_REPORT: u8 = 5;
/// Converted model: strategy, reset mode, sample dims and norm-factors.
pub const SEC_CONVERSION: u8 = 6;

pub(crate) fn container_err(detail: impl Into<String>) -> NnError {
    NnError::Checkpoint {
        detail: detail.into(),
    }
}

pub(crate) fn format_err(detail: impl Into<String>) -> NnError {
    NnError::Graph {
        detail: format!("model format: {}", detail.into()),
    }
}

// ---------------------------------------------------------------------------
// CRC32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven.

const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
};

/// CRC32 (IEEE) of a byte slice — the per-section integrity check.
///
/// # Examples
///
/// ```
/// // The classic check value for the ASCII string "123456789".
/// assert_eq!(tcl_nn::container::crc32(b"123456789"), 0xCBF4_3926);
/// ```
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc = (crc >> 8) ^ CRC_TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

// ---------------------------------------------------------------------------
// Little-endian writers (infallible: they append to memory).

/// Appends a `u8`.
pub fn write_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

/// Appends a little-endian `u32`.
pub fn write_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn write_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `f32`.
pub fn write_f32(out: &mut Vec<u8>, v: f32) {
    out.extend_from_slice(&v.to_le_bytes());
}

/// Appends a tensor: rank u32, each dim u32, then the elements.
pub fn write_tensor(out: &mut Vec<u8>, t: &Tensor) {
    write_u32(out, t.shape().rank() as u32);
    for &d in t.dims() {
        write_u32(out, d as u32);
    }
    for &v in t.data() {
        write_f32(out, v);
    }
}

// ---------------------------------------------------------------------------
// Bounds-checked readers.

/// Splits the next `n` bytes off the front of `r` — the one bounds check
/// every read in the format goes through; fails when fewer remain.
pub fn take<'a>(r: &mut &'a [u8], n: usize) -> Result<&'a [u8]> {
    if n > r.len() {
        return Err(format_err(format!(
            "truncated: {n} bytes wanted, {} remain",
            r.len()
        )));
    }
    let (head, rest) = r.split_at(n);
    *r = rest;
    Ok(head)
}

fn read_array<const N: usize>(r: &mut &[u8]) -> Result<[u8; N]> {
    let mut bytes = [0u8; N];
    bytes.copy_from_slice(take(r, N)?);
    Ok(bytes)
}

/// Reads a `u8`.
pub fn read_u8(r: &mut &[u8]) -> Result<u8> {
    Ok(read_array::<1>(r)?[0])
}

/// Reads a little-endian `u32`.
pub fn read_u32(r: &mut &[u8]) -> Result<u32> {
    Ok(u32::from_le_bytes(read_array(r)?))
}

/// Reads a little-endian `u64`.
pub fn read_u64(r: &mut &[u8]) -> Result<u64> {
    Ok(u64::from_le_bytes(read_array(r)?))
}

/// Reads a little-endian `f32`.
pub fn read_f32(r: &mut &[u8]) -> Result<f32> {
    Ok(f32::from_le_bytes(read_array(r)?))
}

/// Reads a tensor written by [`write_tensor`]; a rank above 8 or a
/// dimension product that overflows is a format error.
pub fn read_tensor(r: &mut &[u8]) -> Result<Tensor> {
    let rank = read_u32(r)? as usize;
    if rank > 8 {
        return Err(format_err(format!("implausible tensor rank {rank}")));
    }
    let mut dims = Vec::with_capacity(rank);
    for _ in 0..rank {
        dims.push(read_u32(r)? as usize);
    }
    // Checked product: corrupt dims must yield a format error, not an
    // overflow panic inside `Shape::len`.
    let bytes = dims
        .iter()
        .try_fold(4usize, |n, &d| n.checked_mul(d))
        .ok_or_else(|| format_err("tensor size overflows"))?;
    // The payload must be present before anything is allocated for it, so
    // a lying header fails here instead of reserving its claimed size.
    let data = take(r, bytes)?
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
        .collect();
    Ok(Tensor::from_vec(Shape::new(dims), data)?)
}

/// Fails unless a section's decoder consumed its whole payload.
pub fn finish(rest: &[u8], name: &str) -> Result<()> {
    if rest.is_empty() {
        Ok(())
    } else {
        Err(container_err(format!(
            "{name} section has {} trailing bytes",
            rest.len()
        )))
    }
}

// ---------------------------------------------------------------------------
// Framing.

/// Frames `(tag, payload)` sections into a container, in the given order.
pub fn seal(sections: &[(u8, &[u8])]) -> Vec<u8> {
    let mut out = MAGIC.to_vec();
    write_u32(&mut out, VERSION);
    write_u32(&mut out, sections.len() as u32);
    for (tag, payload) in sections {
        write_u8(&mut out, *tag);
        write_u64(&mut out, payload.len() as u64);
        write_u32(&mut out, crc32(payload));
        out.extend_from_slice(payload);
    }
    out
}

/// The CRC-checked sections of one container, by tag.
#[derive(Debug)]
pub struct Sections<'a> {
    known: &'a [(u8, &'a str)],
    payloads: Vec<(u8, &'a [u8])>,
}

impl<'a> Sections<'a> {
    /// Parses a container whose sections must all be among `known`
    /// (`(tag, name)` pairs; the names appear in errors).
    ///
    /// # Errors
    ///
    /// A structured error, never a panic, for truncation, a bad magic or
    /// version, an implausible section count, a CRC mismatch, an unknown
    /// or repeated tag, or bytes after the last section.
    pub fn open(bytes: &'a [u8], known: &'a [(u8, &'a str)]) -> Result<Self> {
        let mut r = bytes;
        if take(&mut r, MAGIC.len())? != MAGIC {
            return Err(container_err("bad TCLK magic"));
        }
        let version = read_u32(&mut r)?;
        if version != VERSION {
            return Err(container_err(format!("unsupported TCLK version {version}")));
        }
        let count = read_u32(&mut r)? as usize;
        if count > 64 {
            return Err(container_err(format!("implausible section count {count}")));
        }
        let mut sections = Sections {
            known,
            payloads: Vec::with_capacity(count),
        };
        for _ in 0..count {
            let tag = read_u8(&mut r)?;
            let len = read_u64(&mut r)?;
            let expected_crc = read_u32(&mut r)?;
            let payload = take(&mut r, len as usize)?;
            let actual_crc = crc32(payload);
            if actual_crc != expected_crc {
                return Err(container_err(format!(
                    "section {tag} CRC mismatch ({actual_crc:08x} != {expected_crc:08x})"
                )));
            }
            let name = sections.name(tag)?;
            if sections.payloads.iter().any(|(t, _)| *t == tag) {
                return Err(container_err(format!("duplicate {name} section")));
            }
            sections.payloads.push((tag, payload));
        }
        if !r.is_empty() {
            return Err(container_err(format!(
                "{} trailing bytes after sections",
                r.len()
            )));
        }
        Ok(sections)
    }

    fn name(&self, tag: u8) -> Result<&'a str> {
        self.known
            .iter()
            .find(|(t, _)| *t == tag)
            .map(|(_, name)| *name)
            .ok_or_else(|| container_err(format!("unknown section tag {tag}")))
    }

    /// The payload of section `tag`; fails when there is none.
    pub fn payload(&self, tag: u8) -> Result<&'a [u8]> {
        match self.payloads.iter().find(|(t, _)| *t == tag) {
            Some((_, payload)) => Ok(payload),
            None => Err(container_err(format!(
                "missing {} section",
                self.name(tag)?
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const KNOWN: &[(u8, &str)] = &[(SEC_META, "META"), (SEC_RNG, "RNG")];

    #[test]
    fn sealed_sections_open_by_tag() {
        let bytes = seal(&[(SEC_RNG, b"abc"), (SEC_META, b"")]);
        let sections = Sections::open(&bytes, KNOWN).unwrap();
        assert_eq!(sections.payload(SEC_RNG).unwrap(), b"abc");
        assert_eq!(sections.payload(SEC_META).unwrap(), b"");
    }

    #[test]
    fn framing_defects_are_structured_errors() {
        let cases: [(Vec<u8>, &str); 5] = [
            (
                seal(&[(SEC_META, b"x"), (SEC_META, b"y")]),
                "duplicate META",
            ),
            (seal(&[(SEC_NETWORK, b"x")]), "unknown section tag 2"),
            ([seal(&[]), vec![0]].concat(), "trailing bytes"),
            (b"TCLX\x03\0\0\0\0\0\0\0".to_vec(), "magic"),
            (b"TCLK\x02\0\0\0\0\0\0\0".to_vec(), "version 2"),
        ];
        for (bytes, want) in cases {
            let err = Sections::open(&bytes, KNOWN).unwrap_err().to_string();
            assert!(err.contains(want), "{want}: {err}");
        }
        let empty = seal(&[]);
        let err = Sections::open(&empty, KNOWN)
            .unwrap()
            .payload(SEC_RNG)
            .unwrap_err();
        assert!(err.to_string().contains("missing RNG section"), "{err}");
        let mut flipped = seal(&[(SEC_META, b"abc")]);
        let last = flipped.len() - 1;
        flipped[last] ^= 1;
        let err = Sections::open(&flipped, KNOWN).unwrap_err();
        assert!(err.to_string().contains("CRC mismatch"), "{err}");
    }
}
