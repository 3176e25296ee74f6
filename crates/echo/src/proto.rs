//! ECho wire protocol: control-message formats (both historical versions of
//! `ChannelOpenResponse`, per the paper's Fig. 4), the Fig. 5
//! retro-transformation, and the network frame.

use std::sync::Arc;

use morph::Transformation;
use pbio::{FormatBuilder, RecordFormat, Value, WireBytes};

/// Identifies an event channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChannelId(pub u32);

impl std::fmt::Display for ChannelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// A channel member as tracked by the channel creator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberInfo {
    /// CM contact information (transport address string).
    pub contact: String,
    /// Creator-assigned member id.
    pub id: i64,
    /// Subscribed as an event source.
    pub is_source: bool,
    /// Subscribed as an event sink.
    pub is_sink: bool,
}

/// The `ChannelOpenRequest` format (one version suffices; morphing handles
/// response evolution).
pub fn channel_open_request() -> Arc<RecordFormat> {
    FormatBuilder::record("ChannelOpenRequest")
        .int("channel")
        .string("contact")
        .int("is_source")
        .int("is_sink")
        .build_arc()
        .expect("static format is valid")
}

/// Member entry of the v1.0 response: contact info + id (appears in up to
/// three lists — the duplication the v2.0 redesign removed).
pub fn member_v1() -> Arc<RecordFormat> {
    FormatBuilder::record("Member")
        .string("info")
        .int("ID")
        .build_arc()
        .expect("static format is valid")
}

/// Member entry of the v2.0 response: contact info + id + role booleans
/// (paper Fig. 4b).
pub fn member_v2() -> Arc<RecordFormat> {
    FormatBuilder::record("Member")
        .string("info")
        .int("ID")
        .int("is_source")
        .int("is_sink")
        .build_arc()
        .expect("static format is valid")
}

/// `ChannelOpenResponse` as in ECho v1.0 (paper Fig. 4a): the member list
/// plus separate source and sink lists (a member can appear three times).
pub fn channel_open_response_v1() -> Arc<RecordFormat> {
    FormatBuilder::record("ChannelOpenResponse")
        .int("channel")
        .int("member_count")
        .var_array_of("member_list", member_v1(), "member_count")
        .int("src_count")
        .var_array_of("src_list", member_v1(), "src_count")
        .int("sink_count")
        .var_array_of("sink_list", member_v1(), "sink_count")
        .build_arc()
        .expect("static format is valid")
}

/// `ChannelOpenResponse` as in ECho v2.0 (paper Fig. 4b): one list with
/// role flags — less than half the size of v1 on typical memberships.
pub fn channel_open_response_v2() -> Arc<RecordFormat> {
    FormatBuilder::record("ChannelOpenResponse")
        .int("channel")
        .int("member_count")
        .var_array_of("member_list", member_v2(), "member_count")
        .build_arc()
        .expect("static format is valid")
}

/// The paper's Fig. 5 Ecode, extended with the `channel` routing field:
/// rolls a v2.0 response back to v1.0 at an old subscriber.
pub const RESPONSE_V2_TO_V1: &str = r#"
    int i;
    int sink_count = 0;
    int src_count = 0;
    old.channel = new.channel;
    old.member_count = new.member_count;
    for (i = 0; i < new.member_count; i++) {
        old.member_list[i].info = new.member_list[i].info;
        old.member_list[i].ID = new.member_list[i].ID;
        if (new.member_list[i].is_source) {
            old.src_list[src_count].info = new.member_list[i].info;
            old.src_list[src_count].ID = new.member_list[i].ID;
            src_count++;
        }
        if (new.member_list[i].is_sink) {
            old.sink_list[sink_count].info = new.member_list[i].info;
            old.sink_list[sink_count].ID = new.member_list[i].ID;
            sink_count++;
        }
    }
    old.src_count = src_count;
    old.sink_count = sink_count;
"#;

/// The writer-supplied retro-transformation v2.0 → v1.0 (out-of-band
/// meta-data attached to the v2 response format).
pub fn response_retro_transformation() -> Transformation {
    Transformation::new(channel_open_response_v2(), channel_open_response_v1(), RESPONSE_V2_TO_V1)
}

/// The forward transformation v1.0 → v2.0, also shipped with the v2.0
/// release: reconstructs the role booleans by joining the v1 source/sink
/// lists on member id. Without it, a v2.0 subscriber served by a v1.0
/// creator would near-match the response and default every role flag to
/// false — syntactically fine, semantically lossy. This is the paper's
/// point that transformations "can guarantee both syntactic and semantic
/// compatibility".
pub const RESPONSE_V1_TO_V2: &str = r#"
    int i;
    int j;
    old.channel = new.channel;
    old.member_count = new.member_count;
    for (i = 0; i < new.member_count; i++) {
        old.member_list[i].info = new.member_list[i].info;
        old.member_list[i].ID = new.member_list[i].ID;
        old.member_list[i].is_source = 0;
        old.member_list[i].is_sink = 0;
        for (j = 0; j < new.src_count; j++) {
            if (new.src_list[j].ID == new.member_list[i].ID) {
                old.member_list[i].is_source = 1;
            }
        }
        for (j = 0; j < new.sink_count; j++) {
            if (new.sink_list[j].ID == new.member_list[i].ID) {
                old.member_list[i].is_sink = 1;
            }
        }
    }
"#;

/// The forward transformation as out-of-band meta-data.
pub fn response_forward_transformation() -> Transformation {
    Transformation::new(channel_open_response_v1(), channel_open_response_v2(), RESPONSE_V1_TO_V2)
}

/// Builds a v1.0 response value from a member list.
pub fn response_v1_value(channel: ChannelId, members: &[MemberInfo]) -> Value {
    let entry =
        |m: &MemberInfo| Value::Record(vec![Value::str(m.contact.clone()), Value::Int(m.id)]);
    let all: Vec<Value> = members.iter().map(entry).collect();
    let srcs: Vec<Value> = members.iter().filter(|m| m.is_source).map(entry).collect();
    let sinks: Vec<Value> = members.iter().filter(|m| m.is_sink).map(entry).collect();
    Value::Record(vec![
        Value::Int(i64::from(channel.0)),
        Value::Int(all.len() as i64),
        Value::Array(all),
        Value::Int(srcs.len() as i64),
        Value::Array(srcs),
        Value::Int(sinks.len() as i64),
        Value::Array(sinks),
    ])
}

/// Builds a v2.0 response value from a member list.
pub fn response_v2_value(channel: ChannelId, members: &[MemberInfo]) -> Value {
    let all: Vec<Value> = members
        .iter()
        .map(|m| {
            Value::Record(vec![
                Value::str(m.contact.clone()),
                Value::Int(m.id),
                Value::Int(i64::from(m.is_source)),
                Value::Int(i64::from(m.is_sink)),
            ])
        })
        .collect();
    Value::Record(vec![
        Value::Int(i64::from(channel.0)),
        Value::Int(all.len() as i64),
        Value::Array(all),
    ])
}

/// Extracts the member list from a decoded v1 response.
pub fn members_from_v1(value: &Value) -> Vec<MemberInfo> {
    let v1 = channel_open_response_v1();
    let list = value.field(&v1, "member_list").and_then(Value::as_array).unwrap_or(&[]);
    let srcs: Vec<String> = value
        .field(&v1, "src_list")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| m.as_record()?.first()?.as_str().map(String::from))
        .collect();
    let sinks: Vec<String> = value
        .field(&v1, "sink_list")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| m.as_record()?.first()?.as_str().map(String::from))
        .collect();
    list.iter()
        .filter_map(|m| {
            let r = m.as_record()?;
            let contact = r.first()?.as_str()?.to_string();
            let id = r.get(1)?.as_i64()?;
            Some(MemberInfo {
                is_source: srcs.contains(&contact),
                is_sink: sinks.contains(&contact),
                contact,
                id,
            })
        })
        .collect()
}

/// Extracts the member list from a decoded v2 response.
pub fn members_from_v2(value: &Value) -> Vec<MemberInfo> {
    let v2 = channel_open_response_v2();
    value
        .field(&v2, "member_list")
        .and_then(Value::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            let r = m.as_record()?;
            Some(MemberInfo {
                contact: r.first()?.as_str()?.to_string(),
                id: r.get(1)?.as_i64()?,
                is_source: r.get(2)?.as_i64()? != 0,
                is_sink: r.get(3)?.as_i64()? != 0,
            })
        })
        .collect()
}

/// Channel id carried in a control message (field `channel`).
pub fn channel_of(value: &Value, format: &RecordFormat) -> Option<ChannelId> {
    value.field(format, "channel")?.as_i64().map(|v| ChannelId(v as u32))
}

// -- framing ---------------------------------------------------------------

/// Frame kind: a control-plane PBIO message.
pub const FRAME_CONTROL: u8 = 0;
/// Frame kind: an event on a channel.
pub const FRAME_EVENT: u8 = 1;
/// Frame kind: a session-resume handshake from a restarted process. The
/// payload is empty — the header's epoch field carries the new
/// incarnation, and receiving it (or any frame with a higher epoch) fences
/// every older incarnation's frames.
pub const FRAME_RESUME: u8 = 2;

/// Frame header size: kind (1) + channel (4) + seq (8) + trace (8) +
/// qos (1) + frag_index (2) + frag_count (2) + epoch (4) + crc32 (4).
pub const FRAME_HEADER_LEN: usize = 34;

/// An absent trace id on the wire: the frame joins no trace.
pub const NO_TRACE: u64 = 0;

/// Per-channel delivery-guarantee tier, carried in every frame header so a
/// receiver enforces policy straight off the (CRC-protected) wire — no
/// side-channel registry distribution is needed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum QosTier {
    /// Full reliability: retry with backoff over link loss, duplicate
    /// suppression, dead-lettering. The default for every channel.
    Reliable,
    /// Newest-wins: event frames whose message sequence trails the latest
    /// seen from the same sender are dropped at the receiver (counted as
    /// stale, never dead-lettered); link loss is not retried.
    SequencedUnreliable,
    /// Fire-and-forget telemetry: no retry, no ordering guarantee, and
    /// first in line for load shedding under backpressure.
    UnorderedUnreliable,
}

impl QosTier {
    /// Every tier, in wire-byte and metric-label order.
    pub const ALL: [QosTier; 3] =
        [QosTier::Reliable, QosTier::SequencedUnreliable, QosTier::UnorderedUnreliable];

    /// The tier's one-byte wire encoding (its index in [`QosTier::ALL`]).
    pub fn to_wire(self) -> u8 {
        match self {
            QosTier::Reliable => 0,
            QosTier::SequencedUnreliable => 1,
            QosTier::UnorderedUnreliable => 2,
        }
    }

    /// Decodes a wire byte; `None` for values no tier encodes to.
    pub fn from_wire(b: u8) -> Option<QosTier> {
        QosTier::ALL.get(usize::from(b)).copied()
    }

    /// Stable label used in `echo.channel.<label>.*` metric names.
    pub fn label(self) -> &'static str {
        match self {
            QosTier::Reliable => "reliable",
            QosTier::SequencedUnreliable => "sequenced",
            QosTier::UnorderedUnreliable => "unordered",
        }
    }
}

impl std::fmt::Display for QosTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A parsed (and checksum-verified) ECho network frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame<'a> {
    /// [`FRAME_CONTROL`] or [`FRAME_EVENT`].
    pub kind: u8,
    /// Routing channel.
    pub channel: ChannelId,
    /// Sender-assigned sequence number (unique per sender). Every fragment
    /// of one fragmented message shares its message's seq; duplicate
    /// suppression therefore keys on `(sender, seq, frag_index)`.
    pub seq: u64,
    /// Causal trace id minted by the originating process ([`NO_TRACE`]
    /// when the sender traced nothing); receivers join this trace in
    /// their flight recorder.
    pub trace: u64,
    /// Delivery tier the sender stamped on the frame.
    pub qos: QosTier,
    /// This fragment's position in its set (`0` for unfragmented frames).
    pub frag_index: u16,
    /// Total fragments in the set (`1` for unfragmented frames; always
    /// ≥ 1 and > `frag_index` — [`unframe`] rejects anything else).
    pub frag_count: u16,
    /// The sender's incarnation at send time: bumped on every
    /// crash-restart, so receivers can fence frames from an incarnation
    /// the sender has already outlived (stale-epoch fencing). `0` for a
    /// process that has never crashed.
    pub epoch: u32,
    /// The PBIO message bytes (one fragment's slice when
    /// `frag_count > 1`).
    pub payload: &'a [u8],
}

impl Frame<'_> {
    /// True when this frame carries one fragment of a larger message.
    pub fn is_fragment(&self) -> bool {
        self.frag_count > 1
    }
}

/// Why a frame was rejected before reaching any decoder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// Shorter than the fixed header.
    Truncated,
    /// The CRC-32 did not match: the frame was damaged in flight.
    BadChecksum,
    /// The QoS byte names no known tier (checksum-valid, so this is a
    /// hostile or incompatible sender, not wire damage).
    BadQos(u8),
    /// Impossible fragment fields: a zero fragment count, or an index at
    /// or past the count.
    BadFragment {
        /// Claimed fragment index.
        index: u16,
        /// Claimed set size.
        count: u16,
    },
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated => write!(f, "frame shorter than header"),
            FrameError::BadChecksum => write!(f, "frame checksum mismatch"),
            FrameError::BadQos(b) => write!(f, "unknown qos tier byte {b:#04x}"),
            FrameError::BadFragment { index, count } => {
                write!(f, "impossible fragment fields: index {index} of {count}")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// CRC-32 (IEEE 802.3, reflected) over `bytes`, starting from `seed`
/// (pass the return of a previous call to continue a running checksum;
/// start with 0).
fn crc32(seed: u32, bytes: &[u8]) -> u32 {
    let mut crc = !seed;
    for &b in bytes {
        crc ^= u32::from(b);
        for _ in 0..8 {
            let mask = 0u32.wrapping_sub(crc & 1);
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

/// Wraps a PBIO message in an ECho network frame:
/// `[kind u8][channel u32][seq u64][trace u64][qos u8][frag_index u16]`
/// `[frag_count u16][epoch u32][crc32 u32][payload]`, all little-endian.
/// The CRC-32 covers every header field and the payload, so any
/// single-byte damage anywhere in the frame is detected by [`unframe`].
/// Pass [`NO_TRACE`] when the message joins no trace. This shorthand
/// stamps [`QosTier::Reliable`], unfragmented fields (`0 of 1`), and
/// epoch `0` (a never-crashed sender); use [`frame_qos`] to set them.
///
/// This is the *one* place on the send path where payload bytes are
/// copied: the returned [`WireBytes`] is a shared buffer, so fan-out,
/// retry queues, and the simulated wire all clone views of it rather
/// than the bytes themselves.
pub fn frame(kind: u8, channel: ChannelId, seq: u64, trace: u64, pbio_msg: &[u8]) -> WireBytes {
    frame_qos(kind, channel, seq, trace, QosTier::Reliable, 0, 1, 0, pbio_msg)
}

/// [`frame`] with explicit QoS tier, fragment fields, and sender epoch.
/// Fragments of one message share the message's `seq` and carry `index`
/// in `0..count`.
///
/// # Panics
///
/// Panics if `count == 0` or `index >= count` — such a frame could never
/// pass [`unframe`], so building one is a sender bug.
#[allow(clippy::too_many_arguments)]
pub fn frame_qos(
    kind: u8,
    channel: ChannelId,
    seq: u64,
    trace: u64,
    qos: QosTier,
    index: u16,
    count: u16,
    epoch: u32,
    pbio_msg: &[u8],
) -> WireBytes {
    assert!(count > 0 && index < count, "impossible fragment fields: index {index} of {count}");
    let mut out = Vec::with_capacity(FRAME_HEADER_LEN + pbio_msg.len());
    out.push(kind);
    out.extend_from_slice(&channel.0.to_le_bytes());
    out.extend_from_slice(&seq.to_le_bytes());
    out.extend_from_slice(&trace.to_le_bytes());
    out.push(qos.to_wire());
    out.extend_from_slice(&index.to_le_bytes());
    out.extend_from_slice(&count.to_le_bytes());
    out.extend_from_slice(&epoch.to_le_bytes());
    let crc = crc32(crc32(0, &out), pbio_msg);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(pbio_msg);
    WireBytes::from(out)
}

/// Rewrites the epoch field of an already-built frame, re-sealing the
/// checksum — used when a restarted sender redelivers frames recovered
/// from its journal: the bytes were framed under the previous incarnation,
/// and sending them unchanged would be fenced by every receiver. Shares
/// nothing with the input; the returned buffer is a fresh copy.
///
/// # Panics
///
/// Panics if `bytes` is shorter than a frame header — journals only hold
/// frames that passed through [`frame_qos`], so this is a caller bug.
pub fn restamp_epoch(bytes: &[u8], epoch: u32) -> WireBytes {
    assert!(bytes.len() >= FRAME_HEADER_LEN, "restamp of a non-frame");
    let mut out = bytes.to_vec();
    out[26..30].copy_from_slice(&epoch.to_le_bytes());
    let crc = crc32(crc32(0, &out[..30]), &out[FRAME_HEADER_LEN..]);
    out[30..34].copy_from_slice(&crc.to_le_bytes());
    WireBytes::from(out)
}

/// Best-effort read of the trace id from raw frame bytes, **without**
/// checksum verification — so even a frame that fails [`unframe`] (e.g.
/// corrupted in flight) can still be attributed to the trace it claims.
/// Returns `None` for frames too short to hold the field or carrying
/// [`NO_TRACE`]. If the corruption hit the trace field itself the id read
/// here may be wrong; that is inherent to reading damaged bytes, and the
/// attribution stays deterministic for a given damaged frame.
pub fn peek_trace(bytes: &[u8]) -> Option<u64> {
    let raw = bytes.get(13..21)?;
    let trace = u64::from_le_bytes(raw.try_into().expect("8-byte slice"));
    if trace == NO_TRACE {
        None
    } else {
        Some(trace)
    }
}

/// Best-effort read of the QoS tier from raw frame bytes, **without**
/// checksum verification — used by shed-victim selection, which must
/// classify queued frames cheaply. Returns `None` for buffers too short
/// to hold the field or carrying an unknown tier byte.
pub fn peek_qos(bytes: &[u8]) -> Option<QosTier> {
    QosTier::from_wire(*bytes.get(21)?)
}

/// Best-effort read of the channel id from raw frame bytes, **without**
/// checksum verification — used to key journal entries for frames the
/// sender built itself (so corruption is not a concern on this path).
pub fn peek_channel(bytes: &[u8]) -> Option<ChannelId> {
    Some(ChannelId(u32::from_le_bytes(bytes.get(1..5)?.try_into().expect("4-byte slice"))))
}

/// Best-effort read of `(seq, frag_index, frag_count)` from raw frame
/// bytes, **without** checksum verification — used to shed *whole*
/// fragment sets (queue-mates sharing the sender's `seq`) so no orphan
/// fragments leak into reassembly buffers. Returns `None` for buffers too
/// short to hold the fields.
pub fn peek_frag(bytes: &[u8]) -> Option<(u64, u16, u16)> {
    let seq = u64::from_le_bytes(bytes.get(5..13)?.try_into().expect("8-byte slice"));
    let index = u16::from_le_bytes(bytes.get(22..24)?.try_into().expect("2-byte slice"));
    let count = u16::from_le_bytes(bytes.get(24..26)?.try_into().expect("2-byte slice"));
    Some((seq, index, count))
}

/// Best-effort read of the sender epoch from raw frame bytes, **without**
/// checksum verification — used to attribute fenced frames before full
/// parsing. Returns `None` for buffers too short to hold the field.
pub fn peek_epoch(bytes: &[u8]) -> Option<u32> {
    Some(u32::from_le_bytes(bytes.get(26..30)?.try_into().expect("4-byte slice")))
}

/// Shed-priority class of a queued raw frame: `None` for control frames
/// (never shed) and anything too short to classify; otherwise lower is
/// shed first — unordered telemetry (0), then sequenced (1), then
/// reliable events (2). Unreadable tiers classify as reliable.
pub fn shed_class(bytes: &[u8]) -> Option<u8> {
    if bytes.first() != Some(&FRAME_EVENT) {
        return None;
    }
    Some(match peek_qos(bytes) {
        Some(QosTier::UnorderedUnreliable) => 0,
        Some(QosTier::SequencedUnreliable) => 1,
        _ => 2,
    })
}

/// Parses and checksum-verifies a frame. Corrupted frames are rejected
/// here — damaged bytes never reach a PBIO decoder.
///
/// # Errors
///
/// [`FrameError::Truncated`] for short input, [`FrameError::BadChecksum`]
/// when the frame was damaged in flight, [`FrameError::BadQos`] /
/// [`FrameError::BadFragment`] when a checksum-valid frame carries
/// impossible header fields (a hostile or incompatible sender).
pub fn unframe(bytes: &[u8]) -> Result<Frame<'_>, FrameError> {
    if bytes.len() < FRAME_HEADER_LEN {
        return Err(FrameError::Truncated);
    }
    let kind = bytes[0];
    let channel = ChannelId(u32::from_le_bytes([bytes[1], bytes[2], bytes[3], bytes[4]]));
    let seq = u64::from_le_bytes([
        bytes[5], bytes[6], bytes[7], bytes[8], bytes[9], bytes[10], bytes[11], bytes[12],
    ]);
    let trace = u64::from_le_bytes([
        bytes[13], bytes[14], bytes[15], bytes[16], bytes[17], bytes[18], bytes[19], bytes[20],
    ]);
    let qos_byte = bytes[21];
    let frag_index = u16::from_le_bytes([bytes[22], bytes[23]]);
    let frag_count = u16::from_le_bytes([bytes[24], bytes[25]]);
    let epoch = u32::from_le_bytes([bytes[26], bytes[27], bytes[28], bytes[29]]);
    let stored = u32::from_le_bytes([bytes[30], bytes[31], bytes[32], bytes[33]]);
    let payload = &bytes[FRAME_HEADER_LEN..];
    if crc32(crc32(0, &bytes[..30]), payload) != stored {
        return Err(FrameError::BadChecksum);
    }
    let qos = QosTier::from_wire(qos_byte).ok_or(FrameError::BadQos(qos_byte))?;
    if frag_count == 0 || frag_index >= frag_count {
        return Err(FrameError::BadFragment { index: frag_index, count: frag_count });
    }
    Ok(Frame { kind, channel, seq, trace, qos, frag_index, frag_count, epoch, payload })
}

#[cfg(test)]
mod tests {
    use super::*;
    use morph::diff;

    fn members() -> Vec<MemberInfo> {
        vec![
            MemberInfo { contact: "a:1".into(), id: 1, is_source: true, is_sink: false },
            MemberInfo { contact: "b:2".into(), id: 2, is_source: false, is_sink: true },
            MemberInfo { contact: "c:3".into(), id: 3, is_source: true, is_sink: true },
        ]
    }

    /// The fused Fig. 5 rollback reads every v2.0 field and writes every
    /// v1.0 field, so its projected decode keeps the whole response.
    #[test]
    fn fig5_rollback_uses_every_field() {
        let chain = morph::CompiledChain::compile(&[response_retro_transformation()]).unwrap();
        let fused = chain.fuse().unwrap();
        let n_v2 = channel_open_response_v2().fields().len();
        let n_v1 = channel_open_response_v1().fields().len();
        assert_eq!(ecode::root_used_fields(fused.code(), 0, n_v2), vec![true; n_v2]);
        assert_eq!(ecode::root_used_fields(fused.code(), 1, n_v1), vec![true; n_v1]);
    }

    #[test]
    fn response_values_conform_to_formats() {
        response_v1_value(ChannelId(7), &members()).check(&channel_open_response_v1()).unwrap();
        response_v2_value(ChannelId(7), &members()).check(&channel_open_response_v2()).unwrap();
    }

    #[test]
    fn v2_message_is_less_than_half_of_v1_for_full_members() {
        // The paper: "reduced the size of the response message by more than
        // half" (every member in all three lists is the worst case; here
        // members hold mixed roles, still a large saving).
        let all_roles: Vec<MemberInfo> = (0..50)
            .map(|i| MemberInfo {
                contact: format!("host-{i}.example.org:61{i:03}"),
                id: i,
                is_source: true,
                is_sink: true,
            })
            .collect();
        let v1 = pbio::Encoder::new(&channel_open_response_v1())
            .encode(&response_v1_value(ChannelId(1), &all_roles))
            .unwrap();
        let v2 = pbio::Encoder::new(&channel_open_response_v2())
            .encode(&response_v2_value(ChannelId(1), &all_roles))
            .unwrap();
        assert!(
            v2.len() * 2 < v1.len(),
            "v2 ({}) should be less than half of v1 ({})",
            v2.len(),
            v1.len()
        );
    }

    #[test]
    fn retro_transformation_compiles_and_is_faithful() {
        let t = response_retro_transformation();
        let cx = t.compile().unwrap();
        let v2_val = response_v2_value(ChannelId(9), &members());
        let v1_val = cx.apply(&v2_val).unwrap();
        v1_val.check(&channel_open_response_v1()).unwrap();
        assert_eq!(v1_val, response_v1_value(ChannelId(9), &members()));
    }

    #[test]
    fn member_roundtrip_through_both_versions() {
        let ms = members();
        assert_eq!(members_from_v1(&response_v1_value(ChannelId(1), &ms)), ms);
        assert_eq!(members_from_v2(&response_v2_value(ChannelId(1), &ms)), ms);
    }

    #[test]
    fn formats_share_name_but_differ_structurally() {
        let v1 = channel_open_response_v1();
        let v2 = channel_open_response_v2();
        assert_eq!(v1.name(), v2.name());
        assert_ne!(pbio::format_id(&v1), pbio::format_id(&v2));
        assert!(diff(&v2, &v1) > 0);
    }

    #[test]
    fn frame_roundtrip() {
        let framed = frame(FRAME_EVENT, ChannelId(3), 42, 0xA11CE, b"xyz");
        let f = unframe(&framed).unwrap();
        assert_eq!(f.kind, FRAME_EVENT);
        assert_eq!(f.channel, ChannelId(3));
        assert_eq!(f.seq, 42);
        assert_eq!(f.trace, 0xA11CE);
        assert_eq!(f.qos, QosTier::Reliable);
        assert_eq!((f.frag_index, f.frag_count), (0, 1));
        assert_eq!(f.epoch, 0, "the shorthand stamps a never-crashed sender");
        assert!(!f.is_fragment());
        assert_eq!(f.payload, b"xyz");
        assert_eq!(unframe(&[1, 2]), Err(FrameError::Truncated));
        assert_eq!(unframe(&framed[..FRAME_HEADER_LEN - 1]), Err(FrameError::Truncated));
    }

    #[test]
    fn qos_and_fragment_fields_roundtrip() {
        let framed = frame_qos(
            FRAME_EVENT,
            ChannelId(9),
            77,
            0xFACE,
            QosTier::SequencedUnreliable,
            2,
            5,
            3,
            b"part",
        );
        let f = unframe(&framed).unwrap();
        assert_eq!(f.qos, QosTier::SequencedUnreliable);
        assert_eq!((f.frag_index, f.frag_count), (2, 5));
        assert_eq!(f.epoch, 3);
        assert!(f.is_fragment());
        assert_eq!(f.payload, b"part");
        // The lightweight peeks agree with the verified parse.
        assert_eq!(peek_qos(&framed), Some(QosTier::SequencedUnreliable));
        assert_eq!(peek_frag(&framed), Some((77, 2, 5)));
        assert_eq!(peek_epoch(&framed), Some(3));
    }

    #[test]
    fn restamp_epoch_reseals_the_checksum() {
        let framed =
            frame_qos(FRAME_EVENT, ChannelId(4), 12, 0xFEED, QosTier::Reliable, 0, 1, 1, b"keep");
        let restamped = restamp_epoch(&framed, 2);
        let f = unframe(&restamped).expect("restamped frames parse");
        assert_eq!(f.epoch, 2);
        // Everything except the epoch (and the seal) is preserved.
        assert_eq!((f.kind, f.channel, f.seq, f.trace), (FRAME_EVENT, ChannelId(4), 12, 0xFEED));
        assert_eq!(f.payload, b"keep");
        // The original is untouched and still parses under its old epoch.
        assert_eq!(unframe(&framed).unwrap().epoch, 1);
    }

    #[test]
    fn qos_tier_wire_encoding_is_stable() {
        for tier in QosTier::ALL {
            assert_eq!(QosTier::from_wire(tier.to_wire()), Some(tier));
        }
        assert_eq!(QosTier::from_wire(3), None);
        assert_eq!(QosTier::from_wire(0xFF), None);
        assert_eq!(QosTier::Reliable.label(), "reliable");
        assert_eq!(QosTier::SequencedUnreliable.label(), "sequenced");
        assert_eq!(QosTier::UnorderedUnreliable.label(), "unordered");
    }

    /// Rewrites one header byte of a valid frame and re-seals the CRC, so
    /// the result exercises the post-checksum validation paths.
    fn reseal(framed: &[u8], offset: usize, value: u8) -> Vec<u8> {
        let mut out = framed.to_vec();
        out[offset] = value;
        let crc = crc32(crc32(0, &out[..30]), &out[FRAME_HEADER_LEN..]);
        out[30..34].copy_from_slice(&crc.to_le_bytes());
        out
    }

    #[test]
    fn checksum_valid_frames_with_impossible_fields_are_rejected() {
        let framed = frame(FRAME_EVENT, ChannelId(1), 4, NO_TRACE, b"ok");
        // Unknown QoS byte.
        assert_eq!(unframe(&reseal(&framed, 21, 9)), Err(FrameError::BadQos(9)));
        // frag_count == 0.
        assert_eq!(
            unframe(&reseal(&framed, 24, 0)),
            Err(FrameError::BadFragment { index: 0, count: 0 })
        );
        // frag_index >= frag_count.
        assert_eq!(
            unframe(&reseal(&framed, 22, 7)),
            Err(FrameError::BadFragment { index: 7, count: 1 })
        );
    }

    #[test]
    fn shed_class_orders_tiers_and_spares_control() {
        let mk = |qos| frame_qos(FRAME_EVENT, ChannelId(1), 1, NO_TRACE, qos, 0, 1, 0, b"x");
        assert_eq!(shed_class(&mk(QosTier::UnorderedUnreliable)), Some(0));
        assert_eq!(shed_class(&mk(QosTier::SequencedUnreliable)), Some(1));
        assert_eq!(shed_class(&mk(QosTier::Reliable)), Some(2));
        // Control frames are never shed, whatever their tier byte says.
        let ctl = frame(FRAME_CONTROL, ChannelId(1), 1, NO_TRACE, b"x");
        assert_eq!(shed_class(&ctl), None);
        // An event frame cut too short to read its tier sheds as reliable.
        assert_eq!(shed_class(&mk(QosTier::UnorderedUnreliable)[..20]), Some(2));
        assert_eq!(shed_class(&[]), None);
    }

    #[test]
    fn peek_frag_and_peek_qos_never_read_past_short_buffers() {
        let framed = frame_qos(
            FRAME_EVENT,
            ChannelId(2),
            6,
            NO_TRACE,
            QosTier::UnorderedUnreliable,
            1,
            3,
            9,
            b"p",
        );
        for len in 0..framed.len() {
            let qos = peek_qos(&framed[..len]);
            let frag = peek_frag(&framed[..len]);
            let epoch = peek_epoch(&framed[..len]);
            if len < 22 {
                assert_eq!(qos, None, "length {len} cannot hold the qos byte");
            } else {
                assert_eq!(qos, Some(QosTier::UnorderedUnreliable));
            }
            if len < 26 {
                assert_eq!(frag, None, "length {len} cannot hold the fragment fields");
            } else {
                assert_eq!(frag, Some((6, 1, 3)));
            }
            if len < 30 {
                assert_eq!(epoch, None, "length {len} cannot hold the epoch field");
            } else {
                assert_eq!(epoch, Some(9));
            }
        }
    }

    #[test]
    fn any_single_byte_flip_fails_the_checksum() {
        // The chaos fault model flips exactly one byte; CRC-32 must catch
        // every such flip wherever it lands — header or payload.
        let framed = frame(FRAME_EVENT, ChannelId(7), 9, 77, b"payload bytes");
        assert!(unframe(&framed).is_ok());
        for i in 0..framed.len() {
            for flip in [0x01u8, 0x80, 0xFF] {
                let mut damaged = framed.to_vec();
                damaged[i] ^= flip;
                assert_eq!(
                    unframe(&damaged),
                    Err(FrameError::BadChecksum),
                    "flip {flip:#x} at byte {i} went undetected"
                );
            }
        }
    }

    #[test]
    fn empty_payload_frames_checksum_too() {
        let framed = frame(FRAME_CONTROL, ChannelId(0), 0, NO_TRACE, b"");
        assert_eq!(framed.len(), FRAME_HEADER_LEN);
        let f = unframe(&framed).unwrap();
        assert_eq!(f.payload, b"");
        assert_eq!(f.trace, NO_TRACE);
        let mut damaged = framed.to_vec();
        damaged[0] ^= 1;
        assert_eq!(unframe(&damaged), Err(FrameError::BadChecksum));
    }

    #[test]
    fn peek_trace_survives_checksum_failure() {
        let framed = frame(FRAME_EVENT, ChannelId(2), 5, 0xDECAF, b"data");
        assert_eq!(peek_trace(&framed), Some(0xDECAF));
        // Corrupt the payload: unframe rejects, peek still attributes.
        let mut damaged = framed.to_vec();
        *damaged.last_mut().unwrap() ^= 0xFF;
        assert_eq!(unframe(&damaged), Err(FrameError::BadChecksum));
        assert_eq!(peek_trace(&damaged), Some(0xDECAF));
        // Untraced frames and short fragments read as no trace.
        assert_eq!(peek_trace(&frame(FRAME_EVENT, ChannelId(2), 6, NO_TRACE, b"x")), None);
        assert_eq!(peek_trace(&framed[..12]), None);
    }

    #[test]
    fn every_truncation_of_a_valid_frame_is_rejected_cleanly() {
        // A hostile network can cut a frame anywhere. Every prefix must be
        // rejected with a classified error — never a panic, never a decode.
        let framed = frame(FRAME_EVENT, ChannelId(5), 11, 0xBEE, &[1, 2, 3, 4, 5, 6, 7, 8]);
        assert_eq!(framed.len(), FRAME_HEADER_LEN + 8);
        for len in 0..framed.len() {
            let want = if len < FRAME_HEADER_LEN {
                // Too short for the header: rejected before any field read.
                FrameError::Truncated
            } else {
                // Header present but the payload was cut: the CRC covers
                // the payload, so the loss is detected as damage.
                FrameError::BadChecksum
            };
            assert_eq!(unframe(&framed[..len]), Err(want), "truncated to {len} bytes");
        }
        assert!(unframe(&framed).is_ok(), "the untruncated frame still parses");
    }

    #[test]
    fn peek_trace_never_reads_past_short_buffers() {
        // peek_trace runs on unverified bytes, so it must bounds-check: the
        // trace field spans bytes 13..21, and any shorter buffer has no
        // trace to report.
        let framed = frame(FRAME_EVENT, ChannelId(5), 11, 0xBEE, b"payload");
        for len in 0..framed.len() {
            let peeked = peek_trace(&framed[..len]);
            if len < 21 {
                assert_eq!(peeked, None, "length {len} cannot hold the trace field");
            } else {
                assert_eq!(peeked, Some(0xBEE), "length {len} holds the full field");
            }
        }
        assert_eq!(peek_trace(&[]), None);
    }

    #[test]
    fn channel_extraction() {
        let v2 = channel_open_response_v2();
        let v = response_v2_value(ChannelId(12), &members());
        assert_eq!(channel_of(&v, &v2), Some(ChannelId(12)));
    }
}
