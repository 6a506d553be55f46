//! Append-only on-disk persistence for the shared schedule cache.
//!
//! A cache file is a header followed by a stream of self-framed
//! records, all little-endian:
//!
//! ```text
//! header: b"ASCHEDC1" | u32 format_version (= 1)
//!         | u32 domain_len | domain bytes (FINGERPRINT_DOMAIN)
//! record: u32 payload_len | u32 crc32(payload) | u128 fingerprint
//!         | payload
//! payload: u128 fingerprint (again) | TaskValue encoding
//! ```
//!
//! The design goals are crash-safety and forward-compatibility, not
//! compactness:
//!
//! - **Append-only.** Writers only ever append whole records and never
//!   rewrite earlier bytes, so a crash can at worst leave a torn tail.
//! - **CRC-validated.** The payload is covered by CRC-32 (IEEE). A
//!   length that overruns the file, a failed CRC or an undecodable
//!   payload ends the load: the valid prefix is kept, the tail is
//!   truncated on the next writer attach, and loading is never fatal.
//! - **Fingerprint-revalidated.** The fingerprint is stored twice —
//!   once in the frame (outside the CRC) and once inside the payload.
//!   A mismatch means the frame was damaged without breaking the CRC
//!   framing; that record alone is dropped and the load continues.
//! - **Domain-stamped.** The header embeds [`FINGERPRINT_DOMAIN`],
//!   so a file written under an older fingerprint scheme is rejected
//!   wholesale instead of silently mis-keying entries.
//!
//! Only *storable* values are persisted: a completed, non-degraded
//! schedule. Degraded (budget-truncated or fallback) values depend on
//! how much work the producer was allowed to do, which is exactly what
//! the cache key deliberately excludes.

use asched_core::TraceResult;
use asched_graph::{BlockId, NodeId, Schedule};

use crate::engine::TaskValue;
use crate::fingerprint::FINGERPRINT_DOMAIN;

/// File magic: "asched cache, frame format 1".
pub const MAGIC: &[u8; 8] = b"ASCHEDC1";
/// Frame-format version.
pub const FORMAT_VERSION: u32 = 1;
/// Upper bound on a single record payload; anything larger is treated
/// as a torn/corrupt length field.
const MAX_PAYLOAD: usize = 64 << 20;

/// CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) — the same
/// checksum gzip/PNG use. Bitwise, table-free: cache records are
/// written once per distinct fingerprint, so this is nowhere near a
/// hot path.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// The canonical file header for the current fingerprint domain.
pub fn header() -> Vec<u8> {
    let domain = FINGERPRINT_DOMAIN.as_bytes();
    let mut out = Vec::with_capacity(16 + domain.len());
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
    out.extend_from_slice(&(domain.len() as u32).to_le_bytes());
    out.extend_from_slice(domain);
    out
}

/// Validate the header; returns the offset of the first record, or
/// `None` when the magic, version or fingerprint domain don't match.
pub fn check_header(bytes: &[u8]) -> Option<usize> {
    let expect = header();
    (bytes.len() >= expect.len() && bytes[..expect.len()] == expect[..]).then_some(expect.len())
}

/// Everything one decode pass recovered from a (possibly damaged)
/// cache file image.
#[derive(Debug, Default)]
pub struct Decoded {
    /// Valid records in file order (later duplicates supersede earlier).
    pub records: Vec<(u128, TaskValue)>,
    /// Byte length of the valid prefix: the header plus every intact
    /// frame. A writer attaching to this file truncates to here first.
    /// `0` means the header itself was missing or from another domain.
    pub valid_len: usize,
    /// CRC-intact frames dropped for a fingerprint mismatch or an
    /// undecodable payload.
    pub skipped: u64,
}

/// Decode a whole file image, recovering the valid prefix. Never
/// panics on arbitrary input; every read is bounds-checked.
pub fn decode_file(bytes: &[u8]) -> Decoded {
    let mut out = Decoded::default();
    let Some(start) = check_header(bytes) else {
        return out;
    };
    let mut pos = start;
    out.valid_len = pos;
    loop {
        let Some(frame) = (|| {
            let len = read_u32(bytes, pos)? as usize;
            if !(16..=MAX_PAYLOAD).contains(&len) {
                return None;
            }
            let crc = read_u32(bytes, pos + 4)?;
            let fp_frame = read_u128(bytes, pos + 8)?;
            let payload = bytes.get(pos + 24..pos + 24 + len)?;
            if crc32(payload) != crc {
                return None;
            }
            Some((fp_frame, payload))
        })() else {
            // Torn or corrupt tail: keep the prefix, stop here.
            return out;
        };
        let (fp_frame, payload) = frame;
        pos += 24 + payload.len();
        out.valid_len = pos;
        // The frame is intact; a bad fingerprint or payload drops only
        // this record.
        let fp_payload = read_u128(payload, 0).expect("len >= 16 checked above");
        match decode_value(&payload[16..]) {
            Some(value) if fp_payload == fp_frame => out.records.push((fp_frame, value)),
            _ => out.skipped += 1,
        }
    }
}

/// Encode one record frame, ready to append. `None` when the value is
/// not storable (failed or degraded — see the module docs).
pub fn encode_record(fp: u128, value: &TaskValue) -> Option<Vec<u8>> {
    let body = encode_value(value)?;
    let mut payload = Vec::with_capacity(16 + body.len());
    payload.extend_from_slice(&fp.to_le_bytes());
    payload.extend_from_slice(&body);
    let mut out = Vec::with_capacity(24 + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&fp.to_le_bytes());
    out.extend_from_slice(&payload);
    Some(out)
}

/// Whether a value may be persisted (and shared): a completed,
/// non-degraded schedule.
pub fn storable(value: &TaskValue) -> bool {
    value.result.is_some() && !value.degraded && value.error.is_none()
}

// ---- TaskValue body encoding -------------------------------------------
//
// Hand-rolled little-endian encoding (the build is hermetic; there is
// no serde). The only values persisted are storable ones, so the body
// is exactly one `TraceResult`.

fn encode_value(value: &TaskValue) -> Option<Vec<u8>> {
    if !storable(value) {
        return None;
    }
    let r = value.result.as_ref()?;
    let mut out = Vec::new();
    out.extend_from_slice(&r.makespan.to_le_bytes());
    put_ids(&mut out, &r.permutation);
    out.extend_from_slice(&(r.blocks.len() as u32).to_le_bytes());
    for b in &r.blocks {
        out.extend_from_slice(&b.0.to_le_bytes());
    }
    out.extend_from_slice(&(r.block_orders.len() as u32).to_le_bytes());
    for order in &r.block_orders {
        put_ids(&mut out, order);
    }
    // Schedule: capacity, then one presence-tagged (start, unit, exec)
    // triple per node slot.
    let s = &r.predicted;
    out.extend_from_slice(&(s.capacity() as u32).to_le_bytes());
    for i in 0..s.capacity() {
        let id = NodeId(i as u32);
        match (s.start(id), s.completion(id), s.unit(id)) {
            (Some(start), Some(end), Some(unit)) => {
                out.push(1);
                out.extend_from_slice(&start.to_le_bytes());
                out.extend_from_slice(&end.to_le_bytes());
                out.extend_from_slice(&(unit as u32).to_le_bytes());
            }
            _ => out.push(0),
        }
    }
    Some(out)
}

/// Decode a value body. Returns `None` on any structural violation —
/// including anything that would make [`Schedule::assign`] panic
/// (zero-length execution, out-of-range node) — so a loader never
/// trusts bytes it can't prove safe.
fn decode_value(bytes: &[u8]) -> Option<TaskValue> {
    let mut pos = 0usize;
    let makespan = read_u64(bytes, pos)?;
    pos += 8;
    let (permutation, n) = get_ids(bytes, pos)?;
    pos = n;
    let blocks_len = read_u32(bytes, pos)? as usize;
    pos += 4;
    if blocks_len > bytes.len() {
        return None;
    }
    let mut blocks = Vec::with_capacity(blocks_len);
    for _ in 0..blocks_len {
        blocks.push(BlockId(read_u32(bytes, pos)?));
        pos += 4;
    }
    let orders_len = read_u32(bytes, pos)? as usize;
    pos += 4;
    if orders_len > bytes.len() {
        return None;
    }
    let mut block_orders = Vec::with_capacity(orders_len);
    for _ in 0..orders_len {
        let (order, n) = get_ids(bytes, pos)?;
        block_orders.push(order);
        pos = n;
    }
    let capacity = read_u32(bytes, pos)? as usize;
    pos += 4;
    if capacity > bytes.len() {
        return None;
    }
    let mut predicted = Schedule::new(capacity);
    for i in 0..capacity {
        let tag = *bytes.get(pos)?;
        pos += 1;
        match tag {
            0 => {}
            1 => {
                let start = read_u64(bytes, pos)?;
                let end = read_u64(bytes, pos + 8)?;
                let unit = read_u32(bytes, pos + 16)? as usize;
                pos += 20;
                // `assign` asserts exec_time >= 1 and in-range ids;
                // prove both before calling it.
                let exec = end.checked_sub(start)?;
                let exec = u32::try_from(exec).ok()?;
                if exec == 0 {
                    return None;
                }
                predicted.assign(NodeId(i as u32), start, unit, exec);
            }
            _ => return None,
        }
    }
    if permutation.iter().any(|id| id.index() >= capacity) {
        return None;
    }
    if pos != bytes.len() {
        return None;
    }
    Some(TaskValue {
        result: Some(TraceResult {
            permutation,
            predicted,
            makespan,
            block_orders,
            blocks,
        }),
        degraded: false,
        error: None,
    })
}

fn put_ids(out: &mut Vec<u8>, ids: &[NodeId]) {
    out.extend_from_slice(&(ids.len() as u32).to_le_bytes());
    for id in ids {
        out.extend_from_slice(&id.0.to_le_bytes());
    }
}

/// Read a length-prefixed id list; returns `(ids, next_offset)`.
fn get_ids(bytes: &[u8], pos: usize) -> Option<(Vec<NodeId>, usize)> {
    let len = read_u32(bytes, pos)? as usize;
    // A length field can claim anything; cap it by what the buffer
    // could possibly hold before allocating.
    if len > bytes.len() / 4 + 1 {
        return None;
    }
    let mut ids = Vec::with_capacity(len);
    let mut at = pos + 4;
    for _ in 0..len {
        ids.push(NodeId(read_u32(bytes, at)?));
        at += 4;
    }
    Some((ids, at))
}

fn read_u32(bytes: &[u8], pos: usize) -> Option<u32> {
    Some(u32::from_le_bytes(
        bytes.get(pos..pos + 4)?.try_into().ok()?,
    ))
}

fn read_u64(bytes: &[u8], pos: usize) -> Option<u64> {
    Some(u64::from_le_bytes(
        bytes.get(pos..pos + 8)?.try_into().ok()?,
    ))
}

fn read_u128(bytes: &[u8], pos: usize) -> Option<u128> {
    Some(u128::from_le_bytes(
        bytes.get(pos..pos + 16)?.try_into().ok()?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_value(seed: u64) -> TaskValue {
        let mut predicted = Schedule::new(4);
        predicted.assign(NodeId(0), seed, 0, 2);
        predicted.assign(NodeId(2), seed + 3, 1, 1);
        TaskValue {
            result: Some(TraceResult {
                permutation: vec![NodeId(0), NodeId(2)],
                predicted,
                makespan: seed + 5,
                block_orders: vec![vec![NodeId(0)], vec![], vec![NodeId(2)]],
                blocks: vec![BlockId(0), BlockId(1)],
            }),
            degraded: false,
            error: None,
        }
    }

    fn file_with(records: &[(u128, TaskValue)]) -> Vec<u8> {
        let mut out = header();
        for (fp, v) in records {
            out.extend_from_slice(&encode_record(*fp, v).unwrap());
        }
        out
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_round_trip() {
        let file = file_with(&[(7, sample_value(10)), (9, sample_value(20))]);
        let dec = decode_file(&file);
        assert_eq!(dec.valid_len, file.len());
        assert_eq!(dec.skipped, 0);
        assert_eq!(dec.records.len(), 2);
        let (fp, v) = &dec.records[1];
        assert_eq!(*fp, 9);
        let r = v.result.as_ref().unwrap();
        assert_eq!(r.makespan, 25);
        assert_eq!(r.permutation, vec![NodeId(0), NodeId(2)]);
        assert_eq!(r.predicted.start(NodeId(2)), Some(23));
        assert_eq!(r.predicted.completion(NodeId(2)), Some(24));
        assert_eq!(r.predicted.unit(NodeId(0)), Some(0));
        assert_eq!(r.predicted.start(NodeId(1)), None);
        assert_eq!(r.blocks, vec![BlockId(0), BlockId(1)]);
        assert_eq!(r.block_orders.len(), 3);
    }

    #[test]
    fn degraded_and_failed_values_are_not_storable() {
        let mut v = sample_value(1);
        v.degraded = true;
        assert!(encode_record(1, &v).is_none());
        let failed = TaskValue {
            result: None,
            degraded: true,
            error: Some("boom".into()),
        };
        assert!(encode_record(1, &failed).is_none());
    }

    #[test]
    fn torn_tail_keeps_the_valid_prefix() {
        let file = file_with(&[(7, sample_value(10)), (9, sample_value(20))]);
        let first_end = decode_file(&file_with(&[(7, sample_value(10))])).valid_len;
        // Cut mid-way through the second record.
        let torn = &file[..first_end + 5];
        let dec = decode_file(torn);
        assert_eq!(dec.valid_len, first_end);
        assert_eq!(dec.records.len(), 1);
        assert_eq!(dec.records[0].0, 7);
    }

    #[test]
    fn frame_fingerprint_mismatch_drops_only_that_record() {
        let mut file = file_with(&[(7, sample_value(10)), (9, sample_value(20))]);
        let hdr = header().len();
        // Flip a byte of the first record's *frame* fingerprint — the
        // CRC (payload-only) still passes, so framing stays intact.
        file[hdr + 8] ^= 0xFF;
        let dec = decode_file(&file);
        assert_eq!(dec.valid_len, file.len());
        assert_eq!(dec.skipped, 1);
        assert_eq!(dec.records.len(), 1);
        assert_eq!(dec.records[0].0, 9);
    }

    #[test]
    fn wrong_domain_rejects_the_whole_file() {
        let mut file = file_with(&[(7, sample_value(10))]);
        let domain_at = MAGIC.len() + 8; // magic + version + len
        file[domain_at + 15] ^= 1; // "...v2" -> "...v3"
        let dec = decode_file(&file);
        assert_eq!(dec.valid_len, 0);
        assert!(dec.records.is_empty());
    }
}
