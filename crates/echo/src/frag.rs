//! Message fragmentation and bounded reassembly.
//!
//! Events larger than a configured frame budget cannot traverse a lossy
//! (or MTU-limited) wire in one piece, so the publisher splits the encoded
//! payload into numbered fragments — zero-copy [`WireBytes`] views of the
//! original buffer — and every fragment travels as its own CRC-framed,
//! individually dedup-able frame sharing the message's sequence number.
//! The receiver collects fragments in a per-channel [`ReassemblyBuffer`]
//! that is *bounded* two ways: by entry capacity (inserting past it evicts
//! the oldest incomplete set) and by a virtual-clock timeout (a sweep
//! removes sets whose first fragment has waited too long). Either way a
//! removed partial set is surfaced to the caller as a [`PartialSet`] so it
//! can be dead-lettered with `DeadReason::PartialFragments` — a partial
//! message is never silently forgotten and never delivered.

use std::collections::VecDeque;

use pbio::WireBytes;

/// Maximum fragments one message may split into — the wire carries the
/// index and count as `u16`.
pub const MAX_FRAGMENTS: usize = u16::MAX as usize;

/// One fragment of a split message: its position in the set and a
/// zero-copy view of the payload slice it carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fragment {
    /// Position in the set, `0..count`.
    pub index: u16,
    /// Total fragments in the set (≥ 1).
    pub count: u16,
    /// This fragment's payload slice.
    pub bytes: WireBytes,
}

/// Splits `payload` into `ceil(len / budget)` fragments of at most
/// `budget` bytes each, as slice views sharing the payload's buffer (no
/// byte is copied). A zero-length payload still yields one (empty)
/// fragment so the message exists on the wire; a `budget` of 0 is treated
/// as 1. Returns `None` when the split would need more than
/// [`MAX_FRAGMENTS`] pieces.
pub fn split_message(payload: &WireBytes, budget: usize) -> Option<Vec<Fragment>> {
    let budget = budget.max(1);
    let len = payload.len();
    let count = if len == 0 { 1 } else { len.div_ceil(budget) };
    if count > MAX_FRAGMENTS {
        return None;
    }
    Some(
        (0..count)
            .map(|i| Fragment {
                index: i as u16,
                count: count as u16,
                bytes: payload.slice(i * budget..len.min((i + 1) * budget)),
            })
            .collect(),
    )
}

/// What [`ReassemblyBuffer::offer`] did with a fragment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Offer {
    /// The fragment completed its set: the reassembled payload (the one
    /// copy fragmentation costs, made here at completion).
    Complete(WireBytes),
    /// Buffered; the set is still missing fragments.
    Buffered,
    /// The set already holds this index — a duplicated fragment.
    DuplicatePart,
    /// The fragment contradicts its set (a different count than first
    /// seen, or an index at or past the count) and was discarded.
    Mismatch,
}

/// A partial fragment set removed from a [`ReassemblyBuffer`] before
/// completing — by timeout, capacity eviction, or a newest-wins purge.
#[derive(Debug, Clone)]
pub struct PartialSet {
    /// Sending node id.
    pub sender: u64,
    /// Message sequence number shared by the set.
    pub seq: u64,
    /// Fragments that had arrived.
    pub received: u16,
    /// Fragments the set needed.
    pub count: u16,
    /// Trace id peeked off the first-received fragment, if any.
    pub trace: Option<u64>,
    /// The first-received fragment's whole frame — what a dead letter
    /// quarantines as the evidence of the lost message.
    pub frame: WireBytes,
    /// Virtual time the first fragment arrived.
    pub first_at_ns: u64,
}

#[derive(Debug)]
struct Entry {
    sender: u64,
    seq: u64,
    count: u16,
    received: u16,
    parts: Vec<Option<WireBytes>>,
    first_at_ns: u64,
    trace: Option<u64>,
    frame: WireBytes,
}

impl Entry {
    fn into_partial(self) -> PartialSet {
        PartialSet {
            sender: self.sender,
            seq: self.seq,
            received: self.received,
            count: self.count,
            trace: self.trace,
            frame: self.frame,
            first_at_ns: self.first_at_ns,
        }
    }
}

/// A bounded store of in-progress fragment sets for one channel, keyed by
/// `(sender, seq)`. Entries stay in arrival order (oldest first), which
/// makes both bounds deterministic: capacity eviction removes the front
/// (oldest incomplete) entry, and the timeout sweep pops expired entries
/// from the front.
#[derive(Debug)]
pub struct ReassemblyBuffer {
    capacity: usize,
    timeout_ns: u64,
    entries: VecDeque<Entry>,
}

impl ReassemblyBuffer {
    /// An empty buffer holding at most `capacity` in-progress sets (floor
    /// 1), expiring sets whose first fragment is `timeout_ns` old.
    pub fn new(capacity: usize, timeout_ns: u64) -> ReassemblyBuffer {
        ReassemblyBuffer { capacity: capacity.max(1), timeout_ns, entries: VecDeque::new() }
    }

    /// In-progress sets currently held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no set is in progress.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The configured capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Offers one fragment of message `(sender, seq)` arriving at
    /// `now_ns`. `frame` is the fragment's whole frame, retained for the
    /// first fragment of each set as dead-letter evidence; `trace` is its
    /// peeked trace id. Returns what happened to the fragment plus any
    /// partial sets evicted to admit a new one (oldest incomplete first) —
    /// the caller must dead-letter those.
    pub fn offer(
        &mut self,
        sender: u64,
        seq: u64,
        frag: Fragment,
        frame: WireBytes,
        trace: Option<u64>,
        now_ns: u64,
    ) -> (Offer, Vec<PartialSet>) {
        if frag.count <= 1 {
            // Degenerate single-fragment set: nothing to buffer.
            return (Offer::Complete(frag.bytes), Vec::new());
        }
        if frag.index >= frag.count {
            return (Offer::Mismatch, Vec::new());
        }
        if let Some(pos) = self.entries.iter().position(|e| e.sender == sender && e.seq == seq) {
            let entry = &mut self.entries[pos];
            if frag.count != entry.count {
                return (Offer::Mismatch, Vec::new());
            }
            let slot = &mut entry.parts[usize::from(frag.index)];
            if slot.is_some() {
                return (Offer::DuplicatePart, Vec::new());
            }
            *slot = Some(frag.bytes);
            entry.received += 1;
            if entry.received == entry.count {
                let done = self.entries.remove(pos).expect("position just found");
                let total: usize =
                    done.parts.iter().map(|p| p.as_ref().expect("all parts present").len()).sum();
                let mut payload = Vec::with_capacity(total);
                for part in &done.parts {
                    payload.extend_from_slice(part.as_ref().expect("all parts present"));
                }
                return (Offer::Complete(WireBytes::from(payload)), Vec::new());
            }
            return (Offer::Buffered, Vec::new());
        }
        // New set: evict the oldest incomplete entries to stay in bound.
        let mut evicted = Vec::new();
        while self.entries.len() >= self.capacity {
            let oldest = self.entries.pop_front().expect("len checked above");
            evicted.push(oldest.into_partial());
        }
        let mut parts: Vec<Option<WireBytes>> = vec![None; usize::from(frag.count)];
        parts[usize::from(frag.index)] = Some(frag.bytes);
        self.entries.push_back(Entry {
            sender,
            seq,
            count: frag.count,
            received: 1,
            parts,
            first_at_ns: now_ns,
            trace,
            frame,
        });
        (Offer::Buffered, evicted)
    }

    /// Removes and returns every set whose first fragment arrived
    /// `timeout_ns` or more before `now_ns`, oldest first. The caller
    /// dead-letters them as partial fragment sets.
    pub fn sweep(&mut self, now_ns: u64) -> Vec<PartialSet> {
        let mut expired = Vec::new();
        while let Some(front) = self.entries.front() {
            if now_ns.saturating_sub(front.first_at_ns) < self.timeout_ns {
                break;
            }
            expired.push(self.entries.pop_front().expect("front just seen").into_partial());
        }
        expired
    }

    /// Newest-wins purge for sequenced channels: removes every in-progress
    /// set from `sender` with a seq strictly below `seq` (a newer message
    /// has superseded them). Returns the purged sets so the caller can
    /// count them as stale — they are policy drops, not dead letters.
    pub fn purge_below(&mut self, sender: u64, seq: u64) -> Vec<PartialSet> {
        let mut purged = Vec::new();
        let mut kept = VecDeque::with_capacity(self.entries.len());
        for entry in self.entries.drain(..) {
            if entry.sender == sender && entry.seq < seq {
                purged.push(entry.into_partial());
            } else {
                kept.push_back(entry);
            }
        }
        self.entries = kept;
        purged
    }

    /// Crash amnesia: removes and returns every in-progress set, oldest
    /// first. The caller dead-letters them as crash-lost — a restarted
    /// process has no memory of the fragments it had buffered.
    pub fn drain_all(&mut self) -> Vec<PartialSet> {
        self.entries.drain(..).map(Entry::into_partial).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn payload(n: usize) -> WireBytes {
        WireBytes::from((0..n).map(|i| (i % 251) as u8).collect::<Vec<u8>>())
    }

    #[test]
    fn split_covers_the_payload_without_copying() {
        let p = payload(100);
        let frags = split_message(&p, 32).unwrap();
        assert_eq!(frags.len(), 4);
        assert!(frags.iter().all(|f| f.count == 4));
        assert_eq!(frags.iter().map(|f| f.bytes.len()).sum::<usize>(), 100);
        assert_eq!(frags[3].bytes.len(), 4);
        for f in &frags {
            assert!(f.bytes.same_buffer(&p), "fragments are views, not copies");
        }
        let rebuilt: Vec<u8> = frags.iter().flat_map(|f| f.bytes.to_vec()).collect();
        assert_eq!(rebuilt, p.to_vec());
    }

    #[test]
    fn split_edge_cases() {
        // Exactly one frame.
        let frags = split_message(&payload(32), 32).unwrap();
        assert_eq!(frags.len(), 1);
        assert_eq!((frags[0].index, frags[0].count), (0, 1));
        // One byte over the budget.
        assert_eq!(split_message(&payload(33), 32).unwrap().len(), 2);
        // Zero-length payloads still travel as one empty fragment.
        let empty = split_message(&payload(0), 32).unwrap();
        assert_eq!(empty.len(), 1);
        assert!(empty[0].bytes.is_empty());
        // Budget 0 behaves as 1.
        assert_eq!(split_message(&payload(3), 0).unwrap().len(), 3);
        // Too many fragments for the u16 wire fields.
        assert!(split_message(&payload(MAX_FRAGMENTS + 1), 1).is_none());
    }

    fn offer_all(buf: &mut ReassemblyBuffer, seq: u64, frags: &[Fragment]) -> Option<WireBytes> {
        let mut done = None;
        for f in frags {
            let (offer, evicted) = buf.offer(1, seq, f.clone(), f.bytes.clone(), None, 0);
            assert!(evicted.is_empty());
            if let Offer::Complete(bytes) = offer {
                done = Some(bytes);
            }
        }
        done
    }

    #[test]
    fn out_of_order_fragments_reassemble_in_index_order() {
        let p = payload(70);
        let mut frags = split_message(&p, 32).unwrap();
        frags.reverse();
        let mut buf = ReassemblyBuffer::new(4, 1_000);
        let done = offer_all(&mut buf, 9, &frags).expect("set completes");
        assert_eq!(done.to_vec(), p.to_vec());
        assert!(buf.is_empty(), "completed sets leave the buffer");
    }

    #[test]
    fn duplicate_and_mismatched_fragments_are_rejected_without_corruption() {
        let p = payload(70);
        let frags = split_message(&p, 32).unwrap();
        let mut buf = ReassemblyBuffer::new(4, 1_000);
        let (first, _) = buf.offer(1, 9, frags[0].clone(), frags[0].bytes.clone(), None, 0);
        assert_eq!(first, Offer::Buffered);
        let (dup, _) = buf.offer(1, 9, frags[0].clone(), frags[0].bytes.clone(), None, 0);
        assert_eq!(dup, Offer::DuplicatePart);
        // A fragment claiming a different set size is discarded.
        let liar = Fragment { index: 1, count: 9, bytes: frags[1].bytes.clone() };
        let (bad, _) = buf.offer(1, 9, liar, frags[1].bytes.clone(), None, 0);
        assert_eq!(bad, Offer::Mismatch);
        // The honest remainder still completes the set correctly.
        let done = offer_all(&mut buf, 9, &frags[1..]).expect("set completes");
        assert_eq!(done.to_vec(), p.to_vec());
    }

    #[test]
    fn capacity_evicts_the_oldest_incomplete_set() {
        let mut buf = ReassemblyBuffer::new(2, 1_000_000);
        let p = payload(70);
        let frags = split_message(&p, 32).unwrap();
        for seq in 0..3u64 {
            let (_, evicted) =
                buf.offer(1, seq, frags[0].clone(), frags[0].bytes.clone(), None, seq);
            if seq < 2 {
                assert!(evicted.is_empty());
            } else {
                assert_eq!(evicted.len(), 1, "third set evicts the oldest");
                assert_eq!(evicted[0].seq, 0);
                assert_eq!((evicted[0].received, evicted[0].count), (1, 3));
            }
        }
        assert_eq!(buf.len(), 2);
    }

    #[test]
    fn sweep_expires_only_old_enough_sets() {
        let mut buf = ReassemblyBuffer::new(8, 100);
        let p = payload(70);
        let frags = split_message(&p, 32).unwrap();
        buf.offer(1, 0, frags[0].clone(), frags[0].bytes.clone(), Some(7), 0);
        buf.offer(1, 1, frags[0].clone(), frags[0].bytes.clone(), None, 60);
        assert!(buf.sweep(99).is_empty());
        let expired = buf.sweep(100);
        assert_eq!(expired.len(), 1);
        assert_eq!(expired[0].seq, 0);
        assert_eq!(expired[0].trace, Some(7));
        assert_eq!(buf.sweep(160).len(), 1, "the second set expires on its own clock");
        assert!(buf.is_empty());
    }

    #[test]
    fn purge_below_implements_newest_wins() {
        let mut buf = ReassemblyBuffer::new(8, 1_000_000);
        let p = payload(70);
        let frags = split_message(&p, 32).unwrap();
        for (sender, seq) in [(1u64, 5u64), (1, 9), (2, 3)] {
            buf.offer(sender, seq, frags[0].clone(), frags[0].bytes.clone(), None, 0);
        }
        let purged = buf.purge_below(1, 9);
        assert_eq!(purged.len(), 1, "only sender 1's older set goes");
        assert_eq!((purged[0].sender, purged[0].seq), (1, 5));
        assert_eq!(buf.len(), 2, "sender 1 seq 9 and sender 2 seq 3 survive");
    }
}
