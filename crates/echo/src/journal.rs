//! Durable delivery journal for crash-restart recovery.
//!
//! A crashed ECho process loses its volatile state — dedup windows,
//! sequenced watermarks, reassembly partials, the in-flight retry queue —
//! but the Reliable tier's contract (exactly-once delivery) must survive
//! the restart. The [`Journal`] is the durable substrate that makes that
//! possible: an append-only log of delivery-relevant facts (outgoing
//! Reliable frames, delivery acks, dedup triples, sequenced watermarks,
//! sequence floors), stamped with virtual time, that the owning system
//! writes as traffic flows and replays on restart to rebuild exactly the
//! state the tier contract requires.
//!
//! "Durable" here is modeled, not physical: the journal is an in-memory
//! `Vec` with an explicit *synced prefix*. Appends land in the unsynced
//! tail and migrate into the prefix on [`Journal::sync`] — either forced
//! per entry (WAL discipline for entries whose loss would break
//! exactly-once) or batched every `batch` appends (the fsync-batch
//! boundary; cheaper entries whose loss only costs a redundant
//! redelivery). A [`Journal::crash`] truncates the unsynced tail, so *what
//! survived is a pure function of the append/sync history* — no wall
//! clock, no I/O timing, fully deterministic and replayable per seed.

use std::collections::BTreeMap;

use pbio::WireBytes;

use crate::proto::ChannelId;

/// One durable fact in the journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalEntry {
    /// A Reliable-tier event frame left this process for `to` (a process
    /// index). The key fields are stored alongside the framed bytes so
    /// replay never re-parses the wire format.
    Sent {
        /// Destination process index.
        to: u64,
        /// Channel the frame travels on.
        channel: ChannelId,
        /// Message sequence number.
        seq: u64,
        /// Fragment index within the message (0 for whole messages).
        frag_index: u16,
        /// The framed bytes as they entered the wire.
        frame: WireBytes,
    },
    /// The frame keyed `(to, channel, seq, frag_index)` reached its
    /// destination (any terminal receiver outcome that noted the triple);
    /// the sender no longer owes a redelivery.
    Acked {
        /// Destination process index.
        to: u64,
        /// Channel of the acked frame.
        channel: ChannelId,
        /// Message sequence number.
        seq: u64,
        /// Fragment index.
        frag_index: u16,
    },
    /// This process noted an incoming `(sender, seq, frag_index)` triple
    /// in its dedup window — the receiver-side half of exactly-once.
    Seen {
        /// System-wide sender identity.
        sender: u64,
        /// Message sequence number.
        seq: u64,
        /// Fragment index.
        frag_index: u16,
    },
    /// Sequenced newest-wins watermark: the latest message seq seen from
    /// `sender` on `channel`.
    Watermark {
        /// Channel of the watermark.
        channel: ChannelId,
        /// System-wide sender identity.
        sender: u64,
        /// Latest message sequence seen.
        seq: u64,
    },
    /// The process's next outgoing sequence number will not fall below
    /// this — appended ahead of allocations (skip-ahead), so a restart can
    /// never reuse a sequence number that may already be on the wire.
    SeqFloor {
        /// Lower bound for the next allocated sequence number.
        next_seq: u64,
    },
}

impl JournalEntry {
    /// True for entries whose loss would break the Reliable contract —
    /// these are force-synced on append (WAL discipline). A lost `Acked`
    /// only costs a redundant redelivery that the receiver's (journaled)
    /// dedup window absorbs, and a lost `Watermark` only risks one stale
    /// sequenced delivery that newest-wins re-suppresses — both may ride
    /// the batch.
    fn must_sync(&self) -> bool {
        !matches!(self, JournalEntry::Acked { .. } | JournalEntry::Watermark { .. })
    }
}

/// The state a journal replay rebuilds — exactly what the Reliable tier
/// contract requires of a restarted process, nothing more.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Recovered {
    /// Sent-but-unacked Reliable frames, keyed `(to, channel, seq,
    /// frag_index)` in key order (deterministic redelivery order). A later
    /// `Sent` for the same key (a redelivery journaled by a previous
    /// incarnation) overwrites the earlier frame bytes, so a second crash
    /// redelivers each message once, not once per incarnation.
    pub unacked: BTreeMap<(u64, ChannelId, u64, u16), WireBytes>,
    /// Dedup triples in append order, replayed oldest-first so the
    /// restored sliding window evicts in the original order.
    pub seen: Vec<(u64, u64, u16)>,
    /// Sequenced newest-wins watermarks: latest seq per `(channel,
    /// sender)`.
    pub watermarks: BTreeMap<(ChannelId, u64), u64>,
    /// Lower bound for the next outgoing sequence number.
    pub seq_floor: u64,
}

/// Counters a journal keeps about itself (mirrored into `echo.journal.*`
/// by the owning system).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct JournalStats {
    /// Entries ever appended.
    pub appended: u64,
    /// Entries that reached the synced prefix.
    pub synced: u64,
    /// Unsynced entries truncated by crashes.
    pub lost: u64,
}

/// An append-only, virtual-clock-stamped delivery log with an explicit
/// synced prefix — see the module docs for the durability model.
#[derive(Debug)]
pub struct Journal {
    /// `(at_ns, entry)` in append order.
    entries: Vec<(u64, JournalEntry)>,
    /// Entries `[..synced]` survive a crash; the tail is lost.
    synced: usize,
    /// Auto-sync boundary: every `batch` appends the tail is synced even
    /// without a forced sync (floor 1 = sync every append).
    batch: usize,
    stats: JournalStats,
}

impl Journal {
    /// An empty journal syncing its tail at least every `batch` appends
    /// (floor 1).
    pub fn new(batch: usize) -> Journal {
        Journal {
            entries: Vec::new(),
            synced: 0,
            batch: batch.max(1),
            stats: JournalStats::default(),
        }
    }

    /// Appends one entry stamped `at_ns`. Entries whose loss would break
    /// exactly-once (`JournalEntry::must_sync`) force a sync; the rest
    /// ride until the batch boundary fills.
    pub fn append(&mut self, at_ns: u64, entry: JournalEntry) {
        let force = entry.must_sync();
        self.entries.push((at_ns, entry));
        self.stats.appended += 1;
        if force || self.entries.len() - self.synced >= self.batch {
            self.sync();
        }
    }

    /// Moves every appended entry into the crash-surviving prefix.
    pub fn sync(&mut self) {
        self.stats.synced += (self.entries.len() - self.synced) as u64;
        self.synced = self.entries.len();
    }

    /// A crash: the unsynced tail is torn off (it never reached the
    /// modeled disk). Returns how many entries were lost.
    pub fn crash(&mut self) -> usize {
        let lost = self.entries.len() - self.synced;
        self.entries.truncate(self.synced);
        self.stats.lost += lost as u64;
        lost
    }

    /// Entries appended so far (synced or not).
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing has been appended (or everything was torn off).
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries in the crash-surviving prefix.
    pub fn synced_len(&self) -> usize {
        self.synced
    }

    /// The journal's self-accounting.
    pub fn stats(&self) -> JournalStats {
        self.stats
    }

    /// Replays the synced prefix into the state a restarted process needs:
    /// unacked Sent frames (redelivery obligations), the dedup window
    /// content, sequenced watermarks, and the sequence floor. Pure — the
    /// journal is not consumed, so a second crash replays identically plus
    /// whatever the next incarnation appended.
    pub fn replay(&self) -> Recovered {
        let mut rec = Recovered::default();
        for (_, entry) in &self.entries[..self.synced] {
            match entry {
                JournalEntry::Sent { to, channel, seq, frag_index, frame } => {
                    rec.unacked.insert((*to, *channel, *seq, *frag_index), frame.clone());
                }
                JournalEntry::Acked { to, channel, seq, frag_index } => {
                    rec.unacked.remove(&(*to, *channel, *seq, *frag_index));
                }
                JournalEntry::Seen { sender, seq, frag_index } => {
                    rec.seen.push((*sender, *seq, *frag_index));
                }
                JournalEntry::Watermark { channel, sender, seq } => {
                    let w = rec.watermarks.entry((*channel, *sender)).or_insert(*seq);
                    *w = (*w).max(*seq);
                }
                JournalEntry::SeqFloor { next_seq } => {
                    rec.seq_floor = rec.seq_floor.max(*next_seq);
                }
            }
        }
        rec
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sent(to: u64, seq: u64) -> JournalEntry {
        JournalEntry::Sent {
            to,
            channel: ChannelId(1),
            seq,
            frag_index: 0,
            frame: WireBytes::from(vec![seq as u8]),
        }
    }

    fn acked(to: u64, seq: u64) -> JournalEntry {
        JournalEntry::Acked { to, channel: ChannelId(1), seq, frag_index: 0 }
    }

    #[test]
    fn sent_entries_force_sync_and_survive_a_crash() {
        let mut j = Journal::new(64);
        j.append(10, sent(2, 0));
        j.append(20, sent(2, 1));
        assert_eq!(j.synced_len(), 2, "Sent entries are WAL-forced");
        assert_eq!(j.crash(), 0);
        let rec = j.replay();
        assert_eq!(rec.unacked.len(), 2);
        assert_eq!(
            rec.unacked.keys().copied().collect::<Vec<_>>(),
            vec![(2, ChannelId(1), 0, 0), (2, ChannelId(1), 1, 0)]
        );
    }

    #[test]
    fn acks_ride_the_batch_and_a_crash_tears_off_the_unsynced_tail() {
        let mut j = Journal::new(8);
        j.append(10, sent(2, 0));
        j.append(20, acked(2, 0)); // batched, not yet synced
        assert_eq!(j.synced_len(), 1);
        assert_eq!(j.crash(), 1, "the unsynced ack is lost");
        // The lost ack resurrects the redelivery obligation — which is
        // safe: the receiver's journaled dedup window absorbs the dup.
        assert_eq!(j.replay().unacked.len(), 1);
        assert_eq!(j.stats().lost, 1);
    }

    #[test]
    fn batch_boundary_syncs_batched_entries() {
        let mut j = Journal::new(2);
        j.append(10, acked(2, 0));
        assert_eq!(j.synced_len(), 0);
        j.append(20, acked(2, 1));
        assert_eq!(j.synced_len(), 2, "the second ack fills the batch");
    }

    #[test]
    fn replay_folds_watermarks_floors_and_redelivered_sends() {
        let mut j = Journal::new(1);
        j.append(0, JournalEntry::SeqFloor { next_seq: 64 });
        j.append(0, JournalEntry::Watermark { channel: ChannelId(3), sender: 1, seq: 9 });
        j.append(1, JournalEntry::Watermark { channel: ChannelId(3), sender: 1, seq: 4 });
        j.append(2, JournalEntry::Seen { sender: 1, seq: 9, frag_index: 0 });
        j.append(3, sent(2, 5));
        // A redelivery by a later incarnation overwrites the same key.
        j.append(
            4,
            JournalEntry::Sent {
                to: 2,
                channel: ChannelId(1),
                seq: 5,
                frag_index: 0,
                frame: WireBytes::from(vec![0xEE]),
            },
        );
        let rec = j.replay();
        assert_eq!(rec.seq_floor, 64);
        assert_eq!(rec.watermarks[&(ChannelId(3), 1)], 9, "watermarks never regress");
        assert_eq!(rec.seen, vec![(1, 9, 0)]);
        assert_eq!(rec.unacked.len(), 1);
        assert_eq!(rec.unacked[&(2, ChannelId(1), 5, 0)].to_vec(), vec![0xEE]);
    }
}
