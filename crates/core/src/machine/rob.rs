//! Per-core re-order buffer: in-flight entries, hazard counting, issue
//! selection, and in-order retirement.
//!
//! Hazards are counted once, not rescanned. [`Core::admit`] records in
//! each new entry how many older, not-yet-`Done` entries it conflicts
//! with; [`Core::mark_done`], the only way an entry becomes `Done`,
//! decrements that count on every younger entry it conflicts with. An
//! entry's operands never change after admission and `Done` never
//! reverts, so a zero count means exactly "no hazard against any older
//! in-flight instruction", and picking the next issuable entry is one
//! pass over the ROB.

use std::collections::VecDeque;

use pimsim_event::SimTime;
use pimsim_isa::{GroupConfig, InstrClass, Instruction};

use crate::exec::Memory;
use crate::resolve::{Range, Reads, Resolved};
use crate::stats::CoreStats;

/// Lifecycle of one ROB entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum State {
    Waiting,
    Executing,
    Done,
}

/// Everything an entry's hazard tests read, fixed at admission.
#[derive(Debug, Clone, Copy)]
struct Footprint {
    reads: Reads,
    write: Option<Range>,
    /// Global-memory interval `[start, end)` touched, with `true` = write.
    gmem: Option<(u64, u64, bool)>,
    /// The flow-control channel `(src, dst, tag)` of a send or receive.
    chan: Option<(u16, u16, u16)>,
}

impl Footprint {
    /// Must one of the two entries wait for the other? RAW, WAW or WAR
    /// local-memory overlap, a global-memory conflict, or a shared
    /// transfer channel: transfers may overtake each other *across*
    /// channels, but each `(src, dst, tag)` channel stays FIFO so
    /// messages match in program order. The relation is symmetric.
    fn conflicts(&self, other: &Footprint) -> bool {
        let hits = |w: Option<Range>, rs: &Reads| {
            w.is_some_and(|w| rs.as_slice().iter().any(|r| r.overlaps(&w)))
        };
        hits(self.write, &other.reads)
            || hits(other.write, &self.reads)
            || matches!((self.write, other.write), (Some(a), Some(b)) if a.overlaps(&b))
            || gmem_conflict(&self.gmem, &other.gmem)
            || (self.chan.is_some() && self.chan == other.chan)
    }
}

/// One instruction in flight between dispatch and retirement.
#[derive(Debug)]
pub(crate) struct InFlight {
    pub(crate) seq: u64,
    pub(crate) res: Resolved,
    pub(crate) class: InstrClass,
    pub(crate) tag: u16,
    pub(crate) state: State,
    pub(crate) issue_at: SimTime,
    /// Rendered assembly, kept only while the trace wants entries.
    pub(crate) text: Option<String>,
    footprint: Footprint,
    /// Older entries, not yet `Done`, that this one conflicts with.
    blockers: u32,
}

/// Do two optional global accesses conflict (overlap with a write)?
fn gmem_conflict(a: &Option<(u64, u64, bool)>, b: &Option<(u64, u64, bool)>) -> bool {
    match (a, b) {
        (Some((s1, e1, w1)), Some((s2, e2, w2))) => (*w1 || *w2) && s1 < e2 && s2 < e1,
        _ => false,
    }
}

/// The global-memory interval a resolved instruction touches.
fn gmem_of(res: &Resolved) -> Option<(u64, u64, bool)> {
    match res {
        Resolved::GLoad { gaddr, len, .. } => Some((*gaddr, gaddr + *len as u64, false)),
        Resolved::GStore { gaddr, len, .. } => Some((*gaddr, gaddr + *len as u64, true)),
        _ => None,
    }
}

/// A core's busy crossbars: a bitset indexed by crossbar id.
///
/// Without the structure hazard two in-flight `MVM`s may share a
/// crossbar; the first completion then frees it, as the set semantics
/// always had.
#[derive(Debug, Clone, Default)]
pub(crate) struct XbarSet(Vec<u64>);

impl XbarSet {
    pub(crate) fn insert_all(&mut self, ids: &[u32]) {
        for &x in ids {
            let w = (x / 64) as usize;
            if w >= self.0.len() {
                self.0.resize(w + 1, 0);
            }
            self.0[w] |= 1 << (x % 64);
        }
    }

    pub(crate) fn remove_all(&mut self, ids: &[u32]) {
        for &x in ids {
            if let Some(w) = self.0.get_mut((x / 64) as usize) {
                *w &= !(1 << (x % 64));
            }
        }
    }

    pub(crate) fn contains_any(&self, ids: &[u32]) -> bool {
        ids.iter().any(|&x| {
            self.0
                .get((x / 64) as usize)
                .is_some_and(|w| w >> (x % 64) & 1 == 1)
        })
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.0.iter().all(|&w| w == 0)
    }
}

/// One simulated core: frontend state, register file, ROB, execution-unit
/// occupancy, program and local memory.
#[derive(Debug)]
pub(crate) struct Core {
    /// Mesh id, the source or destination of this core's channels.
    pub(crate) id: u16,
    pub(crate) pc: u32,
    pub(crate) regs: [i32; 32],
    pub(crate) halted: bool,
    /// In-flight entries in age order; their `seq`s are consecutive.
    pub(crate) rob: VecDeque<InFlight>,
    pub(crate) rob_size: usize,
    pub(crate) next_dispatch: SimTime,
    pub(crate) advance_pending: bool,
    pub(crate) vector_busy: bool,
    pub(crate) busy_xbars: XbarSet,
    /// `Waiting` entries with no hazard left, issuable once their unit
    /// is free.
    ready: u32,
    pub(crate) seq_next: u64,
    pub(crate) instrs: Vec<Instruction>,
    pub(crate) groups: Vec<GroupConfig>,
    pub(crate) tags: Vec<u16>,
    pub(crate) mem: Memory,
    pub(crate) stats: CoreStats,
}

impl Core {
    /// A core about to run `instrs` from pc 0: zeroed registers, an empty
    /// ROB, idle units, first dispatch at `next_dispatch`.
    pub(crate) fn new(
        id: u16,
        instrs: Vec<Instruction>,
        groups: Vec<GroupConfig>,
        tags: Vec<u16>,
        rob_size: usize,
        next_dispatch: SimTime,
        mem: Memory,
    ) -> Core {
        Core {
            id,
            pc: 0,
            regs: [0; 32],
            halted: instrs.is_empty(),
            rob: VecDeque::new(),
            rob_size,
            next_dispatch,
            advance_pending: false,
            vector_busy: false,
            busy_xbars: XbarSet::default(),
            ready: 0,
            seq_next: 0,
            instrs,
            groups,
            tags,
            mem,
            stats: CoreStats::default(),
        }
    }

    /// The ROB position of sequence number `seq`, if still in flight.
    fn index(&self, seq: u64) -> Option<usize> {
        let i = usize::try_from(seq.checked_sub(self.rob.front()?.seq)?).ok()?;
        (self.rob.get(i)?.seq == seq).then_some(i)
    }

    /// The ROB entry with sequence number `seq`, if still in flight.
    pub(crate) fn find(&mut self, seq: u64) -> Option<&mut InFlight> {
        let i = self.index(seq)?;
        self.rob.get_mut(i)
    }

    /// The crossbars an `MVM` occupies.
    pub(crate) fn xbars(&self, res: &Resolved) -> &[u32] {
        match res {
            Resolved::Mvm { group, .. } => &self.groups[group.as_usize()].xbar_ids,
            _ => &[],
        }
    }

    /// The flow-control channel of a transfer, if any: `(src, dst, tag)`.
    fn channel_key(c: u16, res: &Resolved) -> Option<(u16, u16, u16)> {
        match res {
            Resolved::Send { peer, tag, .. } => Some((c, *peer, *tag)),
            Resolved::Recv { peer, tag, .. } => Some((*peer, c, *tag)),
            _ => None,
        }
    }

    /// Builds the in-flight entry for a memory-class instruction with
    /// sequence number `seq` — hazard ranges, global-memory interval,
    /// channel — in the `Waiting` state, with no hazards counted yet.
    /// Shared between live dispatch ([`Core::admit`]) and the compiled
    /// engine's boundary materialization, so both derive identical hazard
    /// metadata.
    pub(crate) fn entry_for(
        &self,
        tag: u16,
        class: InstrClass,
        res: Resolved,
        text: Option<String>,
        seq: u64,
    ) -> InFlight {
        let mvm_out = match &res {
            Resolved::Mvm { group, .. } => self.groups[group.as_usize()].output_len,
            _ => 0,
        };
        InFlight {
            seq,
            footprint: Footprint {
                reads: res.reads(),
                write: res.write(mvm_out),
                gmem: gmem_of(&res),
                chan: Self::channel_key(self.id, &res),
            },
            res,
            class,
            tag,
            state: State::Waiting,
            issue_at: SimTime::ZERO,
            text,
            blockers: 0,
        }
    }

    /// Older entries, not yet `Done`, that conflict with `footprint`.
    fn count_blockers<'a>(older: impl Iterator<Item = &'a InFlight>, footprint: &Footprint) -> u32 {
        older
            .filter(|o| o.state != State::Done && o.footprint.conflicts(footprint))
            .count() as u32
    }

    /// Builds the in-flight entry for a freshly dispatched memory-class
    /// instruction, counts its hazards against the older entries, and
    /// appends it to the ROB.
    pub(crate) fn admit(
        &mut self,
        tag: u16,
        class: InstrClass,
        res: Resolved,
        text: Option<String>,
    ) {
        let seq = self.seq_next;
        self.seq_next += 1;
        let mut entry = self.entry_for(tag, class, res, text, seq);
        entry.blockers = Self::count_blockers(self.rob.iter(), &entry.footprint);
        self.ready += (entry.blockers == 0) as u32;
        self.rob.push_back(entry);
    }

    /// Recounts every entry's hazards from scratch, for a ROB rebuilt
    /// wholesale (the compiled engine's materialization).
    pub(crate) fn recount_blockers(&mut self) {
        self.ready = 0;
        for i in 0..self.rob.len() {
            let footprint = self.rob[i].footprint;
            let blockers = Self::count_blockers(self.rob.range(..i), &footprint);
            let e = &mut self.rob[i];
            e.blockers = blockers;
            self.ready += (e.state == State::Waiting && blockers == 0) as u32;
        }
    }

    /// Moves `Waiting` entry `seq` to `Executing` at time `now` and
    /// returns it.
    pub(crate) fn issue(&mut self, seq: u64, now: SimTime) -> &mut InFlight {
        let i = self.index(seq).expect("issued entry in flight");
        let e = &mut self.rob[i];
        debug_assert!(
            e.state == State::Waiting && e.blockers == 0,
            "only ready entries issue"
        );
        e.state = State::Executing;
        e.issue_at = now;
        self.ready -= 1;
        e
    }

    /// Marks entry `seq` `Done` and releases the hazards younger entries
    /// counted against it. This is the only transition to `Done`. Returns
    /// the entry, or `None` if `seq` is not in flight.
    pub(crate) fn mark_done(&mut self, seq: u64) -> Option<&mut InFlight> {
        let i = self.index(seq)?;
        debug_assert_ne!(self.rob[i].state, State::Done, "an entry completes once");
        self.rob[i].state = State::Done;
        let footprint = self.rob[i].footprint;
        // Only a blocked entry can have counted this one.
        for younger in self.rob.range_mut(i + 1..) {
            if younger.blockers > 0 && younger.footprint.conflicts(&footprint) {
                debug_assert_eq!(younger.state, State::Waiting, "blocked entries never issue");
                younger.blockers -= 1;
                self.ready += (younger.blockers == 0) as u32;
            }
        }
        self.rob.get_mut(i)
    }

    /// The oldest `Waiting` entry that has no hazard against older
    /// in-flight instructions and whose execution unit is available.
    /// `structure_hazard` gates the paper's same-crossbar serialization
    /// rule.
    pub(crate) fn next_issuable(&self, structure_hazard: bool) -> Option<u64> {
        if self.ready == 0 {
            return None;
        }
        self.rob
            .iter()
            .find(|e| {
                e.state == State::Waiting && e.blockers == 0 && self.unit_free(e, structure_hazard)
            })
            .map(|e| e.seq)
    }

    /// Structural availability of `e`'s execution unit.
    fn unit_free(&self, e: &InFlight, structure_hazard: bool) -> bool {
        match e.class {
            InstrClass::Vector => !self.vector_busy,
            // The transfer unit pipelines: waits cost time but do not
            // block unrelated channels.
            InstrClass::Transfer => true,
            // The paper's structure hazard: same crossbar ⇒ wait (an
            // ablation flag can disable the rule).
            InstrClass::Matrix => {
                !structure_hazard || !self.busy_xbars.contains_any(self.xbars(&e.res))
            }
            InstrClass::Scalar => unreachable!("scalar instructions never enter the ROB"),
        }
    }

    /// Pops retired (`Done`) entries from the ROB head, in order.
    pub(crate) fn retire(&mut self) {
        while matches!(self.rob.front(), Some(e) if e.state == State::Done) {
            self.rob.pop_front();
        }
    }
}

#[cfg(test)]
impl Core {
    /// The all-pairs scan the hazard counts replaced, kept as the test
    /// oracle: it re-derives every entry's operands from its resolved
    /// form and tests each `Waiting` entry against every older entry not
    /// yet `Done`.
    pub(crate) fn next_issuable_by_scan(&self, structure_hazard: bool) -> Option<u64> {
        let operands = |e: &InFlight| {
            let out = match e.res {
                Resolved::Mvm { group, .. } => self.groups[group.as_usize()].output_len,
                _ => 0,
            };
            let write: Vec<Range> = e.res.write(out).into_iter().collect();
            (e.res.reads().as_slice().to_vec(), write, gmem_of(&e.res))
        };
        'scan: for (i, e) in self.rob.iter().enumerate() {
            if e.state != State::Waiting {
                continue;
            }
            let (reads, writes, gmem) = operands(e);
            for older in self.rob.iter().take(i) {
                if older.state == State::Done {
                    continue;
                }
                let (older_reads, older_writes, older_gmem) = operands(older);
                let raw = reads
                    .iter()
                    .any(|r| older_writes.iter().any(|w| r.overlaps(w)));
                let waw = writes
                    .iter()
                    .any(|r| older_writes.iter().any(|w| r.overlaps(w)));
                let war = writes
                    .iter()
                    .any(|r| older_reads.iter().any(|w| r.overlaps(w)));
                if raw || waw || war || gmem_conflict(&gmem, &older_gmem) {
                    continue 'scan;
                }
                if e.class == InstrClass::Transfer && older.class == InstrClass::Transfer {
                    let ek = Self::channel_key(self.id, &e.res);
                    let ok = Self::channel_key(self.id, &older.res);
                    if ek.is_some() && ek == ok {
                        continue 'scan;
                    }
                }
            }
            let ok = match e.class {
                InstrClass::Vector => !self.vector_busy,
                InstrClass::Transfer => true,
                InstrClass::Matrix => {
                    !structure_hazard || !self.busy_xbars.contains_any(self.xbars(&e.res))
                }
                InstrClass::Scalar => unreachable!(),
            };
            if ok {
                return Some(e.seq);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsim_isa::{GroupId, PoolOp, VBinOp, VUnOp};
    use proptest::prelude::*;

    #[test]
    fn gmem_conflicts_require_a_write_and_overlap() {
        let read = Some((0u64, 10u64, false));
        let write = Some((5u64, 15u64, true));
        let far_write = Some((20u64, 30u64, true));
        assert!(gmem_conflict(&read, &write));
        assert!(gmem_conflict(&write, &write));
        assert!(!gmem_conflict(&read, &read), "two reads never conflict");
        assert!(
            !gmem_conflict(&read, &far_write),
            "disjoint never conflicts"
        );
        assert!(!gmem_conflict(&None, &write));
    }

    fn test_core() -> Core {
        Core::new(
            0,
            Vec::new(),
            Vec::new(),
            Vec::new(),
            8,
            SimTime::ZERO,
            Memory::default(),
        )
    }

    /// What the units do at issue: mark the entry `Executing` and book
    /// its unit.
    fn issue(core: &mut Core, seq: u64) {
        let e = core.issue(seq, SimTime::ZERO);
        let (class, res) = (e.class, e.res.clone());
        match class {
            InstrClass::Vector => core.vector_busy = true,
            InstrClass::Matrix => {
                let xbars = core.xbars(&res).to_vec();
                core.busy_xbars.insert_all(&xbars);
            }
            _ => {}
        }
    }

    /// What the units do at completion: release the unit, mark `Done`.
    fn complete(core: &mut Core, seq: u64) {
        let e = core.mark_done(seq).expect("completed entry in flight");
        let (class, res) = (e.class, e.res.clone());
        match class {
            InstrClass::Vector => core.vector_busy = false,
            InstrClass::Matrix => {
                let xbars = core.xbars(&res).to_vec();
                core.busy_xbars.remove_all(&xbars);
            }
            _ => {}
        }
    }

    fn class_of(res: &Resolved) -> InstrClass {
        match res {
            Resolved::Mvm { .. } => InstrClass::Matrix,
            Resolved::Send { .. }
            | Resolved::Recv { .. }
            | Resolved::GLoad { .. }
            | Resolved::GStore { .. } => InstrClass::Transfer,
            _ => InstrClass::Vector,
        }
    }

    fn admit(core: &mut Core, res: Resolved) {
        core.admit(0, class_of(&res), res, None);
    }

    #[test]
    fn raw_hazard_blocks_younger_entry() {
        let mut core = test_core();
        admit(
            &mut core,
            Resolved::VFill {
                dst: 0,
                value: 1,
                len: 8,
            },
        );
        admit(
            &mut core,
            Resolved::VUn {
                op: VUnOp::Relu,
                dst: 100,
                src: 4,
                len: 8,
            },
        );
        // Entry 0 issuable first; entry 1 reads what 0 writes.
        assert_eq!(core.next_issuable(true), Some(0));
        issue(&mut core, 0);
        assert_eq!(core.next_issuable(true), None);
        // Once 0 is done, 1 becomes issuable.
        complete(&mut core, 0);
        assert_eq!(core.next_issuable(true), Some(1));
    }

    #[test]
    fn same_channel_transfers_stay_fifo() {
        let mut core = test_core();
        let send = |src, tag| Resolved::Send {
            peer: 1,
            src,
            len: 4,
            tag,
        };
        admit(&mut core, send(0, 7));
        issue(&mut core, 0);
        admit(&mut core, send(0, 7));
        // Same (src, dst, tag) channel: the younger send must wait...
        assert_eq!(core.next_issuable(true), None);
        // ...but a different tag may overtake.
        admit(&mut core, send(100, 8));
        assert_eq!(core.next_issuable(true), Some(2));
    }

    #[test]
    fn structure_hazard_flag_gates_crossbar_conflicts() {
        let mut core = test_core();
        core.groups = vec![GroupConfig::new(GroupId(0), 4, 4, vec![3])];
        core.busy_xbars.insert_all(&[3]);
        admit(
            &mut core,
            Resolved::Mvm {
                group: GroupId(0),
                dst: 0,
                src: 100,
                len: 4,
            },
        );
        assert_eq!(core.next_issuable(true), None, "hazard enforced");
        assert_eq!(core.next_issuable(false), Some(0), "ablation disables");
    }

    #[test]
    fn retire_pops_done_prefix_only() {
        let mut core = test_core();
        for seq in 0..3 {
            admit(
                &mut core,
                Resolved::VFill {
                    dst: seq * 100,
                    value: 0,
                    len: 1,
                },
            );
        }
        core.mark_done(0);
        core.mark_done(2);
        core.retire();
        // Entry 1 still in flight: 2 must stay queued behind it.
        assert_eq!(core.rob.len(), 2);
        assert_eq!(core.rob[0].seq, 1);
        assert!(core.find(0).is_none());
        assert!(core.find(2).is_some());
        assert!(core.find(3).is_none());
    }

    #[test]
    fn recount_matches_incremental_counts() {
        let mut core = test_core();
        for dst in [0, 4, 0, 8] {
            admit(
                &mut core,
                Resolved::VFill {
                    dst,
                    value: 0,
                    len: 6,
                },
            );
        }
        issue(&mut core, 0);
        complete(&mut core, 0);
        let counts = |core: &Core| core.rob.iter().map(|e| e.blockers).collect::<Vec<_>>();
        let incremental = counts(&core);
        core.recount_blockers();
        assert_eq!(counts(&core), incremental);
        assert_eq!(incremental, vec![0, 0, 1, 1]);
    }

    #[test]
    fn xbar_set_is_a_set() {
        let mut s = XbarSet::default();
        assert!(s.is_empty());
        s.insert_all(&[3, 200]);
        s.insert_all(&[3]);
        assert!(s.contains_any(&[1, 200]));
        assert!(!s.contains_any(&[1, 2, 1000]));
        s.remove_all(&[3, 1000]);
        assert!(!s.contains_any(&[3]));
        s.remove_all(&[200]);
        assert!(s.is_empty());
    }

    // -----------------------------------------------------------------
    // Differential test: the hazard counts against the all-pairs scan.
    // -----------------------------------------------------------------

    /// Local addresses: mostly a small window, so operands overlap, and
    /// sometimes the top of the address space, where ranges saturate.
    fn addr() -> impl Strategy<Value = u32> {
        prop_oneof![
            6 => 0u32..48,
            1 => (u32::MAX - 8)..=u32::MAX,
        ]
    }

    /// Operand lengths: short, or zero (an empty range).
    fn len() -> impl Strategy<Value = u32> {
        prop_oneof![
            4 => 1u32..10,
            1 => Just(0u32),
        ]
    }

    fn resolved() -> impl Strategy<Value = Resolved> {
        prop_oneof![
            (addr(), len()).prop_map(|(dst, len)| Resolved::VFill { dst, value: 0, len }),
            (addr(), addr(), addr(), len()).prop_map(|(dst, a, b, len)| Resolved::VBin {
                op: VBinOp::Add,
                dst,
                a,
                b,
                len,
            }),
            (addr(), addr(), 0u32..6, 0u32..4, -16i32..16, -16i32..16).prop_map(
                |(dst, src, block_len, blocks, src_stride, dst_stride)| Resolved::VCopy2d {
                    dst,
                    src,
                    block_len,
                    blocks,
                    src_stride,
                    dst_stride,
                }
            ),
            (addr(), addr(), 0u32..5, 0u32..3, 0u32..3, -16i32..16).prop_map(
                |(dst, src, channels, win_w, win_h, row_stride)| Resolved::VPool {
                    op: PoolOp::Max,
                    dst,
                    src,
                    channels,
                    win_w,
                    win_h,
                    row_stride,
                }
            ),
            (addr(), 0u64..48, len()).prop_map(|(dst, gaddr, len)| Resolved::GLoad {
                dst,
                gaddr,
                len
            }),
            (0u64..48, addr(), len()).prop_map(|(gaddr, src, len)| Resolved::GStore {
                gaddr,
                src,
                len
            }),
            // Peers 0..3 include the core itself (id 1): a self-send and
            // a self-receive with one tag share a channel.
            (0u16..3, addr(), len(), 0u16..2).prop_map(|(peer, src, len, tag)| Resolved::Send {
                peer,
                src,
                len,
                tag,
            }),
            (0u16..3, addr(), 0u32..6, 0u32..3, -16i32..16, 0u16..2).prop_map(
                |(peer, dst, block_len, blocks, dst_stride, tag)| Resolved::Recv {
                    peer,
                    dst,
                    block_len,
                    blocks,
                    dst_stride,
                    tag,
                }
            ),
            (0u16..4, addr(), addr(), len()).prop_map(|(g, dst, src, len)| Resolved::Mvm {
                group: GroupId(g),
                dst,
                src,
                len,
            }),
        ]
    }

    /// One random step: admit an instruction (when the ROB has room),
    /// issue everything issuable, complete the `pick`-th executing entry,
    /// or retire.
    fn step() -> impl Strategy<Value = (u8, usize, Resolved)> {
        (0u8..4, 0usize..64, resolved())
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(300))]
        #[test]
        fn hazard_counts_match_the_all_pairs_scan(
            rob_size in 1usize..=64,
            structure_hazard in any::<bool>(),
            steps in proptest::collection::vec(step(), 0..160),
        ) {
            let mut core = test_core();
            core.id = 1;
            core.rob_size = rob_size;
            // Crossbar groups with overlapping and disjoint sets, one
            // reaching past the bitset's first word.
            core.groups = [vec![0, 1], vec![1, 2], vec![3], vec![0, 1, 2, 3, 64]]
                .into_iter()
                .enumerate()
                .map(|(g, xbars)| GroupConfig::new(GroupId(g as u16), 4, 1 + g as u32 * 3, xbars))
                .collect();
            for (i, (op, pick, res)) in steps.into_iter().enumerate() {
                match op {
                    0 if core.rob.len() < core.rob_size => admit(&mut core, res),
                    1 => {
                        while let Some(seq) = core.next_issuable(structure_hazard) {
                            prop_assert_eq!(
                                Some(seq),
                                core.next_issuable_by_scan(structure_hazard),
                                "step {}", i
                            );
                            issue(&mut core, seq);
                        }
                    }
                    2 => {
                        let executing: Vec<u64> = core
                            .rob
                            .iter()
                            .filter(|e| e.state == State::Executing)
                            .map(|e| e.seq)
                            .collect();
                        if !executing.is_empty() {
                            complete(&mut core, executing[pick % executing.len()]);
                        }
                    }
                    _ => core.retire(),
                }
                prop_assert_eq!(
                    core.next_issuable(structure_hazard),
                    core.next_issuable_by_scan(structure_hazard),
                    "step {}", i
                );
                let counts: Vec<u32> = core.rob.iter().map(|e| e.blockers).collect();
                core.recount_blockers();
                let recounted: Vec<u32> = core.rob.iter().map(|e| e.blockers).collect();
                prop_assert_eq!(counts, recounted, "step {}", i);
            }
        }
    }
}
