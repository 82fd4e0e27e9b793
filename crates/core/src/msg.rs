//! Wire messages exchanged between Mortar peers.
//!
//! Sizes are modelled (not serialized) — the simulator charges
//! `wire_bytes × hops` to the bandwidth accounting, which is how the
//! paper's "total network load" figures are reproduced.
//!
//! The data plane is *batched, interned, and enveloped*: summary traffic
//! travels in frames that carry a 4-byte [`QueryId`] handle (never the
//! query name) and the tuples one query evicts toward the same next hop
//! on the same tree in one timer tick, up to
//! [`crate::peer::PeerConfig::summary_batch_max`] per frame. A peer sends
//! them all from one end-of-tick flush, which stacks the frames it owes
//! one next hop — across queries and trees — into one message until its
//! payload reaches [`crate::peer::PeerConfig::envelope_budget`]: several
//! frames ride one [`MortarMsg::Envelope`], a lone frame a plain
//! [`MortarMsg::SummaryBatch`]. Frame payloads are shared
//! `Arc<[SummaryTuple]>` slices, so the transport's fan-out/duplication
//! clone is a pointer bump, never a tuple-vector copy. Control messages
//! (install/reconcile/topology) ship whole query specs behind
//! `Arc<QuerySpec>` (multicast chunking and reconciliation pushes clone
//! the pointer, not the spec). Everything else names a query by its id
//! alone: removals, topology requests, digests and tombstones, which
//! travel as 12-byte `(QueryId, seq)` pairs.

use crate::query::{InstallRecord, QueryId, QuerySpec};
use crate::tuple::SummaryTuple;
use std::sync::Arc;

/// Modelled size of a summary-frame header: query id (4), tree (1),
/// tuple count (2), flags (1), and a frame sequence slot (4).
pub const SUMMARY_FRAME_HEADER_BYTES: u32 = 12;

/// Modelled size of an envelope header: frame count (2), flags (1), and
/// an envelope sequence slot (4). Paid once per wire message however many
/// per-query frames ride inside.
pub const ENVELOPE_HEADER_BYTES: u32 = 7;

/// One query's summary frame: the unit of per-query framing, either sent
/// alone as [`MortarMsg::SummaryBatch`] (envelopes disabled) or stacked
/// with other queries' frames inside one [`MortarMsg::Envelope`].
///
/// The payload is a shared slice: cloning a frame — which the simulated
/// transport does for chaos duplication and message fan-out — clones the
/// `Arc`, not the tuples.
#[derive(Debug, Clone)]
pub struct SummaryFrame {
    /// Interned query handle (resolved at install time).
    pub query: QueryId,
    /// Tree the frame is (now) travelling on.
    pub tree: u8,
    /// Unused: a peer sends every frame in the tick that evicted its
    /// tuples, so it always sets 0 and no receiver reads it. The field
    /// exists only because the frozen benchmark builds frames with it.
    pub hold_age_us: i64,
    /// The tuples, in eviction order.
    pub tuples: Arc<[SummaryTuple]>,
    /// Optional piggybacked store hash (removal reconciliation rides
    /// the child→parent data flow, Section 6.1).
    pub store_hash: Option<u64>,
}

impl SummaryFrame {
    /// Modelled wire size: frame header + tuples + optional hash.
    pub fn wire_bytes(&self) -> u32 {
        SUMMARY_FRAME_HEADER_BYTES
            + self.tuples.iter().map(SummaryTuple::wire_bytes).sum::<u32>()
            + if self.store_hash.is_some() { 8 } else { 0 }
    }

    /// Modelled payload bytes (tuples only, headers excluded) — the
    /// quantity conserved across batch sizes and envelope budgets.
    pub fn payload_bytes(&self) -> u32 {
        self.tuples.iter().map(SummaryTuple::wire_bytes).sum::<u32>()
    }
}

/// The Mortar peer protocol.
#[derive(Debug, Clone)]
pub enum MortarMsg {
    /// A frame of routed summary tuples for one query, travelling on
    /// `tree`. All tuples share the same next hop; receivers process them
    /// in order, exactly as if they had arrived as individual messages.
    /// This is the wire shape of a frame the end-of-tick flush sends
    /// alone: the only frame owed to its next hop in a tick, a frame that
    /// reaches `envelope_budget` by itself, or any frame at
    /// `envelope_budget = 0`.
    SummaryBatch(SummaryFrame),
    /// Several of the summary frames a peer owes one next hop within a
    /// tick — across queries and trees — in one wire message, cut at
    /// `envelope_budget` bytes of payload. Receivers
    /// unpack frames in order; the per-frame semantics are identical to
    /// the same frames arriving as individual [`MortarMsg::SummaryBatch`]
    /// messages back-to-back, so envelope coalescing is pure transport.
    Envelope {
        /// Stacked per-query frames, in (query, tree) order.
        frames: Vec<SummaryFrame>,
    },
    /// Parent→child liveness beacon; every `reconcile_every`-th beat
    /// carries the sender's store hash.
    Heartbeat {
        /// Store hash, present on reconciliation beats.
        store_hash: Option<u64>,
    },
    /// Phase 1 of three-phase digest anti-entropy (Section 6.1's
    /// pair-wise reconciliation), sent on a store-hash mismatch or on data
    /// for a removed query: the sender's store as fixed-size `(id, seq)`
    /// entries. No spec travels until a concrete difference is
    /// identified, so a mismatch over a large mostly-agreeing store costs
    /// digests, not full sets.
    ReconcileDigest {
        /// Installed queries as (interned id, install sequence).
        installed: Vec<(QueryId, u64)>,
        /// Cached removals as (interned id, removal sequence).
        removed: Vec<(QueryId, u64)>,
    },
    /// Phase 2: the digest receiver's reconciliation plan.
    ReconcilePlan {
        /// Full entries for queries the digest showed the sender is
        /// missing (or holds at a stale sequence). Specs are shared.
        push: Vec<(Arc<QuerySpec>, QueryId, u64, i64)>,
        /// Ids the planner itself is missing; the digest sender answers
        /// with a [`MortarMsg::ReconcileTransfer`].
        want: Vec<QueryId>,
        /// The planner's tombstones the digest lacks or holds at an older
        /// sequence, as `(id, seq)`, like a digest entry. A receiver that
        /// never saw the query adopts the tombstone all the same, so its
        /// store hash can match the remover's.
        removed: Vec<(QueryId, u64)>,
    },
    /// Phase 3: full entries answering a plan's `want` list.
    ReconcileTransfer {
        /// The requested entries (shared specs).
        entries: Vec<(Arc<QuerySpec>, QueryId, u64, i64)>,
    },
    /// Chunked-multicast query installation.
    Install {
        /// The query (shared: chunking/forwarding clones the pointer).
        spec: Arc<QuerySpec>,
        /// Interned id assigned by the injector's object store.
        id: QueryId,
        /// Store sequence of the install command.
        seq: u64,
        /// Records for this chunk's members (receiver keeps its own and
        /// forwards the rest down the primary tree).
        records: Vec<InstallRecord>,
        /// Age of the install command since issuance, µs.
        issue_age_us: i64,
    },
    /// Query removal, multicast down the primary tree. Like installs, the
    /// command carries the id, never the name. A receiver that neither
    /// holds the query nor caches a tombstone for it drops the command.
    Remove {
        /// Interned query handle.
        id: QueryId,
        /// Store sequence of the removal command.
        seq: u64,
    },
    /// Ask the query root (topology server) for this peer's record.
    TopoRequest {
        /// Interned query id.
        id: QueryId,
    },
    /// Topology service reply.
    TopoReply {
        /// Interned query id.
        id: QueryId,
        /// Install sequence.
        seq: u64,
        /// The query spec (the requester may only know the name).
        spec: Arc<QuerySpec>,
        /// The requester's record.
        record: InstallRecord,
        /// Age of the query since issuance, µs.
        issue_age_us: i64,
    },
}

impl MortarMsg {
    /// Modelled wire size in bytes.
    pub fn wire_bytes(&self) -> u32 {
        match self {
            MortarMsg::SummaryBatch(frame) => frame.wire_bytes(),
            MortarMsg::Envelope { frames } => {
                ENVELOPE_HEADER_BYTES + frames.iter().map(SummaryFrame::wire_bytes).sum::<u32>()
            }
            MortarMsg::Heartbeat { store_hash } => 24 + if store_hash.is_some() { 8 } else { 0 },
            MortarMsg::ReconcileDigest { installed, removed } => {
                16 + (installed.len() + removed.len()) as u32 * 12
            }
            MortarMsg::ReconcilePlan { push, want, removed } => {
                16 + push.iter().map(|(s, _, _, _)| s.wire_bytes() + 20).sum::<u32>()
                    + want.len() as u32 * 8
                    + removed.len() as u32 * 12
            }
            MortarMsg::ReconcileTransfer { entries } => {
                16 + entries.iter().map(|(s, _, _, _)| s.wire_bytes() + 20).sum::<u32>()
            }
            MortarMsg::Install { spec, records, .. } => {
                28 + spec.wire_bytes() + records.iter().map(InstallRecord::wire_bytes).sum::<u32>()
            }
            MortarMsg::Remove { .. } => 16,
            MortarMsg::TopoRequest { .. } => 16,
            MortarMsg::TopoReply { spec, record, .. } => {
                32 + spec.wire_bytes() + record.wire_bytes()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tslist::summary;
    use crate::value::AggState;

    fn frame(query: u32, tree: u8, tuples: Vec<SummaryTuple>, hash: Option<u64>) -> SummaryFrame {
        SummaryFrame {
            query: QueryId(query),
            tree,
            hold_age_us: 0,
            tuples: tuples.into(),
            store_hash: hash,
        }
    }

    #[test]
    fn heartbeat_sizes() {
        assert_eq!(MortarMsg::Heartbeat { store_hash: None }.wire_bytes(), 24);
        assert_eq!(MortarMsg::Heartbeat { store_hash: Some(1) }.wire_bytes(), 32);
    }

    #[test]
    fn summary_frame_size_includes_tuples() {
        let one = MortarMsg::SummaryBatch(frame(
            1,
            0,
            vec![summary(0, 10, AggState::Sum(1.0), 1, 0)],
            None,
        ));
        assert!(one.wire_bytes() > 40);
    }

    #[test]
    fn batched_frames_amortize_the_header() {
        let t = summary(0, 10, AggState::Sum(1.0), 1, 0);
        let single = MortarMsg::SummaryBatch(frame(1, 0, vec![t.clone()], None));
        let batch =
            MortarMsg::SummaryBatch(frame(1, 0, vec![t.clone(), t.clone(), t.clone(), t], None));
        // One frame of four tuples costs three headers less than four
        // frames of one.
        assert_eq!(4 * single.wire_bytes() - batch.wire_bytes(), 3 * SUMMARY_FRAME_HEADER_BYTES);
    }

    #[test]
    fn store_hash_adds_eight_bytes() {
        let t = summary(0, 10, AggState::Sum(1.0), 1, 0);
        let without = MortarMsg::SummaryBatch(frame(2, 1, vec![t.clone()], None));
        let with = MortarMsg::SummaryBatch(frame(2, 1, vec![t], Some(7)));
        assert_eq!(with.wire_bytes() - without.wire_bytes(), 8);
    }

    #[test]
    fn envelope_amortizes_the_transport_message() {
        // Two queries' frames to the same next hop: one envelope costs one
        // envelope header more than the sum of its frames, but one wire
        // message instead of two (the transport charges per-message
        // overhead on top — that is the win envelopes buy).
        let t = summary(0, 10, AggState::Sum(1.0), 1, 0);
        let a = frame(1, 0, vec![t.clone(), t.clone()], None);
        let b = frame(2, 1, vec![t], Some(9));
        let separate = MortarMsg::SummaryBatch(a.clone()).wire_bytes()
            + MortarMsg::SummaryBatch(b.clone()).wire_bytes();
        let enveloped = MortarMsg::Envelope { frames: vec![a, b] };
        assert_eq!(enveloped.wire_bytes(), separate + ENVELOPE_HEADER_BYTES);
    }

    #[test]
    fn envelope_frames_share_their_payload_on_clone() {
        // The chaos-duplication / fan-out path: cloning the message clones
        // the frame list, but the tuple payloads stay shared.
        let t = summary(0, 10, AggState::Sum(1.0), 1, 0);
        let msg = MortarMsg::Envelope { frames: vec![frame(1, 0, vec![t; 64], None)] };
        let copy = msg.clone();
        let (MortarMsg::Envelope { frames: a }, MortarMsg::Envelope { frames: b }) = (&msg, &copy)
        else {
            unreachable!()
        };
        assert!(Arc::ptr_eq(&a[0].tuples, &b[0].tuples), "payload must be shared, not copied");
    }

    #[test]
    fn digest_entries_are_fixed_size_and_spec_free() {
        // The whole point of phase 1: a digest entry costs 12 bytes no
        // matter how large the query spec is, so a mismatch over a large
        // mostly-agreeing store is cheap to localize.
        let base = MortarMsg::ReconcileDigest { installed: vec![], removed: vec![] };
        let three = MortarMsg::ReconcileDigest {
            installed: vec![(QueryId(1), 1), (QueryId(2), 5)],
            removed: vec![(QueryId(3), 9)],
        };
        assert_eq!(three.wire_bytes() - base.wire_bytes(), 36);
        // A plan with no pushes is want ids + tombstones.
        let plan = MortarMsg::ReconcilePlan {
            push: vec![],
            want: vec![QueryId(1), QueryId(2)],
            removed: vec![(QueryId(3), 9)],
        };
        assert_eq!(plan.wire_bytes(), 16 + 2 * 8 + 12);
    }

    #[test]
    fn tombstones_and_topology_requests_are_fixed_size() {
        // No message names a query outside a shipped spec: a plan's
        // tombstone costs 12 bytes like a digest entry, and a topology
        // request 16, whatever the query is called.
        let base = MortarMsg::ReconcilePlan { push: vec![], want: vec![], removed: vec![] };
        let two = MortarMsg::ReconcilePlan {
            push: vec![],
            want: vec![],
            removed: vec![(QueryId(7), 3), (QueryId(900), 12)],
        };
        assert_eq!(two.wire_bytes() - base.wire_bytes(), 2 * 12);
        assert_eq!(MortarMsg::ReconcileTransfer { entries: vec![] }.wire_bytes(), 16);
        assert_eq!(MortarMsg::TopoRequest { id: QueryId(1) }.wire_bytes(), 16);
    }
}
