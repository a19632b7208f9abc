//! The cross-core program dependence DAG behind the static performance
//! bounds pass.
//!
//! For every core whose execution order is statically determined
//! ([`Cfg::linear_trace`]), the builder interprets the scalar register
//! file *exactly* as the machine frontend does (scalars execute at
//! dispatch, in order), resolves every memory-class operand to the same
//! absolute addresses the runtime's resolver computes, and derives the
//! same hazard ranges the ROB checks. Nodes are the ROB-class
//! (matrix/vector/transfer) instructions; edges are the constraints the
//! real machine provably enforces:
//!
//! * **hazard edges** — a younger instruction whose ranges RAW/WAW/WAR
//!   overlap an older one (or whose global-memory interval conflicts)
//!   cannot issue before the older completes;
//! * **channel FIFO edges** — transfers on one `(src, dst, tag)` channel
//!   issue in program order;
//! * **rendezvous edges** — a `recv` completes no earlier than its
//!   statically-matched `send`'s message delivery
//!   ([`crate::RendezvousMap`] supplies the pairing).
//!
//! Exactness of the replication is what makes the downstream bound
//! *sound*: every edge corresponds to an ordering the runtime really
//! enforces, so the longest path is a true lower bound. Over-approximated
//! ranges would invent orderings the machine never waits for and could
//! push the "lower bound" past the simulated latency.
//!
//! The same-core edges are found through per-core indexes over the older
//! nodes' ranges, global accesses and channels, so the build costs time
//! in proportion to the edges it emits rather than to the node pairs a
//! core holds. Every enforced edge is kept (no transitive reduction): the
//! critical-path backtrace picks the first predecessor with maximal
//! completion, and dropping a redundant edge could change which one that
//! is.

use std::collections::BTreeMap;

use pimsim_isa::{InstrClass, Instruction, Program, Reg, SBinOp, SImmOp, VectorShape};

use crate::cfg::Cfg;

/// A half-open local-memory interval `[start, end)`, mirroring the
/// runtime resolver's hazard ranges exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Range {
    /// First element index.
    pub start: u32,
    /// One past the last element index.
    pub end: u32,
}

impl Range {
    fn new(start: u32, len: u32) -> Range {
        Range {
            start,
            end: start.saturating_add(len),
        }
    }

    /// `true` when the range covers no element (it then conflicts with
    /// nothing).
    fn is_empty(&self) -> bool {
        self.start >= self.end
    }

    #[cfg(test)]
    fn overlaps(&self, other: &Range) -> bool {
        self.start < self.end
            && other.start < other.end
            && self.start < other.end
            && other.start < self.end
    }

    /// Conservative span of a strided 2-D access (identical arithmetic to
    /// the runtime resolver, including the `u32` saturation).
    fn strided(base: u32, block_len: u32, blocks: u32, stride: i32) -> Range {
        if blocks == 0 || block_len == 0 {
            return Range::new(base, 0);
        }
        let last = base as i64 + (blocks as i64 - 1) * stride as i64;
        let lo = (base as i64).min(last).clamp(0, u32::MAX as i64) as u32;
        let hi = ((base as i64).max(last) + block_len as i64).clamp(0, u32::MAX as i64) as u32;
        Range { start: lo, end: hi }
    }
}

/// What a node costs: the inputs its minimal unit-service time is priced
/// on, classified with the same shared tables the simulator uses.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServiceKind {
    /// A vector-unit operation with the shared [`VectorShape`].
    Vector(VectorShape),
    /// One `MVM` on a crossbar group.
    Matrix {
        /// The group's input vector length.
        input_len: u32,
        /// The group's output vector length.
        output_len: u32,
        /// Crossbars in the group.
        xbar_count: u32,
    },
    /// A core-to-core `send`: priced as the uncontended message time.
    Send {
        /// Destination core.
        to: u16,
        /// Payload elements.
        elems: u32,
    },
    /// A `recv`/`recv2d`: completes with its matched send's delivery.
    Recv,
    /// A `gload`/`gstore`: priced as the uncontended memory-access time.
    GlobalMem {
        /// Payload elements.
        elems: u32,
    },
}

/// One ROB-class instruction in a core's statically-known execution
/// order, with the exact operand metadata the runtime's hazard scan uses.
#[derive(Debug, Clone)]
pub struct DagNode {
    /// The core executing this instruction.
    pub core: u16,
    /// Instruction index in the core's program.
    pub pc: u32,
    /// Position in the core's dispatch order, counting scalar
    /// instructions too (the frontend paces *all* dispatches).
    pub dispatch_index: u32,
    /// Instruction class (never `Scalar`).
    pub class: InstrClass,
    /// Pricing inputs.
    pub service: ServiceKind,
    /// Local-memory ranges read (exact mirror of the runtime resolver).
    pub reads: Vec<Range>,
    /// Local-memory ranges written.
    pub writes: Vec<Range>,
    /// Global-memory interval `[start, end)` touched, `true` = write.
    pub gmem: Option<(u64, u64, bool)>,
    /// Flow-control channel `(src, dst, tag)` for `send`/`recv` only.
    pub channel: Option<(u16, u16, u16)>,
    /// Older same-core nodes this one provably waits for (hazard +
    /// channel-FIFO), as indices into [`Dag::nodes`].
    pub preds: Vec<usize>,
    /// The statically-matched `send` node feeding this `recv`, if any.
    pub paired_send: Option<usize>,
}

/// One core's contribution to the DAG.
#[derive(Debug, Clone)]
pub struct CoreTrace {
    /// `true` when the core's execution order is statically determined.
    pub linear: bool,
    /// Instructions the frontend dispatches (trace length; `0` for
    /// non-linear cores, whose pacing contribution is conservative).
    pub dispatches: u32,
    /// `true` when the core has at least one instruction (a non-empty
    /// core always pays at least the decode offset).
    pub has_instructions: bool,
    /// This core's nodes, as indices into [`Dag::nodes`], in trace order.
    pub nodes: Vec<usize>,
}

/// The priced cross-core dependence DAG.
#[derive(Debug, Clone)]
pub struct Dag {
    /// All nodes, grouped by core in trace order (core 0's nodes first).
    pub nodes: Vec<DagNode>,
    /// Per-core trace summaries, parallel to `program.cores`.
    pub cores: Vec<CoreTrace>,
}

/// Executes one scalar instruction against the register file, exactly as
/// the machine frontend does at dispatch (register effects only; control
/// flow is already fixed by the linear trace).
fn exec_scalar(regs: &mut [i32; 32], instr: &Instruction) {
    let rd_write = |regs: &mut [i32; 32], rd: Reg, v: i32| {
        if !rd.is_zero() {
            regs[rd.index() as usize] = v;
        }
    };
    match instr {
        Instruction::SBin { op, rd, rs1, rs2 } => {
            let a = regs[rs1.index() as usize];
            let b = regs[rs2.index() as usize];
            let v = match op {
                SBinOp::Add => a.wrapping_add(b),
                SBinOp::Sub => a.wrapping_sub(b),
                SBinOp::Mul => a.wrapping_mul(b),
                SBinOp::And => a & b,
                SBinOp::Or => a | b,
                SBinOp::Xor => a ^ b,
                SBinOp::Slt => (a < b) as i32,
                SBinOp::Sll => ((a as u32) << (b as u32 & 31)) as i32,
                SBinOp::Srl => ((a as u32) >> (b as u32 & 31)) as i32,
            };
            rd_write(regs, *rd, v);
        }
        Instruction::SImm { op, rd, rs1, imm } => {
            let a = regs[rs1.index() as usize];
            let v = match op {
                SImmOp::Add => a.wrapping_add(*imm),
                SImmOp::Mul => a.wrapping_mul(*imm),
                SImmOp::Sll => ((a as u32) << (*imm as u32 & 31)) as i32,
                SImmOp::Srl => ((a as u32) >> (*imm as u32 & 31)) as i32,
                SImmOp::And => a & *imm,
                SImmOp::Or => a | *imm,
                SImmOp::Slt => (a < *imm) as i32,
            };
            rd_write(regs, *rd, v);
        }
        // Branches are evaluated by the machine but cannot change
        // register state; the linear trace already encodes the (unique)
        // outcome.
        Instruction::Branch { .. }
        | Instruction::Jump { .. }
        | Instruction::Halt
        | Instruction::Nop => {}
        other => unreachable!("memory-class instruction in exec_scalar: {other}"),
    }
}

/// Resolves `addr` against the register file, exactly as the runtime.
fn abs(addr: pimsim_isa::Addr, regs: &[i32; 32]) -> u32 {
    let base = regs[addr.base().index() as usize] as i64;
    (base + addr.offset() as i64).max(0) as u32
}

/// Builds one node's operand metadata from a memory-class instruction and
/// the exact register state at its dispatch. Returns `None` for scalars.
fn node_of(
    program: &Program,
    core: u16,
    pc: u32,
    dispatch_index: u32,
    instr: &Instruction,
    regs: &[i32; 32],
) -> Option<DagNode> {
    use Instruction as I;
    let class = instr.class();
    if class == InstrClass::Scalar {
        return None;
    }
    let mut node = DagNode {
        core,
        pc,
        dispatch_index,
        class,
        service: ServiceKind::Recv, // placeholder, always overwritten
        reads: Vec::new(),
        writes: Vec::new(),
        gmem: None,
        channel: None,
        preds: Vec::new(),
        paired_send: None,
    };
    match instr {
        I::Mvm {
            group,
            dst,
            src,
            len,
        } => {
            let g = &program.cores[core as usize].groups[group.as_usize()];
            node.service = ServiceKind::Matrix {
                input_len: g.input_len,
                output_len: g.output_len,
                xbar_count: g.xbar_ids.len() as u32,
            };
            node.reads = vec![Range::new(abs(*src, regs), *len)];
            node.writes = vec![Range::new(abs(*dst, regs), g.output_len)];
        }
        I::VBin { dst, a, b, len, .. } => {
            node.service = ServiceKind::Vector(VectorShape::binary(*len));
            node.reads = vec![
                Range::new(abs(*a, regs), *len),
                Range::new(abs(*b, regs), *len),
            ];
            node.writes = vec![Range::new(abs(*dst, regs), *len)];
        }
        I::VImm { dst, src, len, .. } | I::VUn { dst, src, len, .. } => {
            node.service = ServiceKind::Vector(VectorShape::unary(*len));
            node.reads = vec![Range::new(abs(*src, regs), *len)];
            node.writes = vec![Range::new(abs(*dst, regs), *len)];
        }
        I::VFill { dst, len, .. } => {
            node.service = ServiceKind::Vector(VectorShape::fill(*len));
            node.writes = vec![Range::new(abs(*dst, regs), *len)];
        }
        I::VCopy2d {
            dst,
            src,
            block_len,
            blocks,
            src_stride,
            dst_stride,
        } => {
            node.service = ServiceKind::Vector(VectorShape::copy2d(*block_len, *blocks));
            node.reads = vec![Range::strided(
                abs(*src, regs),
                *block_len,
                *blocks,
                *src_stride,
            )];
            node.writes = vec![Range::strided(
                abs(*dst, regs),
                *block_len,
                *blocks,
                *dst_stride,
            )];
        }
        I::VPool {
            dst,
            src,
            channels,
            win_w,
            win_h,
            row_stride,
            ..
        } => {
            node.service = ServiceKind::Vector(VectorShape::pool(*channels, *win_w, *win_h));
            node.reads = vec![Range::strided(
                abs(*src, regs),
                win_w * channels,
                (*win_h).max(1),
                *row_stride,
            )];
            node.writes = vec![Range::new(abs(*dst, regs), *channels)];
        }
        I::Send {
            peer,
            src,
            len,
            tag,
        } => {
            node.service = ServiceKind::Send {
                to: peer.0,
                elems: *len,
            };
            node.reads = vec![Range::new(abs(*src, regs), *len)];
            node.channel = Some((core, peer.0, *tag));
        }
        I::Recv {
            peer,
            dst,
            len,
            tag,
        } => {
            node.service = ServiceKind::Recv;
            // A plain recv resolves like a 1-block strided recv.
            node.writes = vec![Range::strided(abs(*dst, regs), *len, 1, *len as i32)];
            node.channel = Some((peer.0, core, *tag));
        }
        I::Recv2d {
            peer,
            dst,
            block_len,
            blocks,
            dst_stride,
            tag,
        } => {
            node.service = ServiceKind::Recv;
            node.writes = vec![Range::strided(
                abs(*dst, regs),
                *block_len,
                *blocks,
                *dst_stride,
            )];
            node.channel = Some((peer.0, core, *tag));
        }
        I::GLoad { dst, gaddr, len } => {
            node.service = ServiceKind::GlobalMem { elems: *len };
            node.writes = vec![Range::new(abs(*dst, regs), *len)];
            let g = abs(*gaddr, regs) as u64;
            node.gmem = Some((g, g + *len as u64, false));
        }
        I::GStore { gaddr, src, len } => {
            node.service = ServiceKind::GlobalMem { elems: *len };
            node.reads = vec![Range::new(abs(*src, regs), *len)];
            let g = abs(*gaddr, regs) as u64;
            node.gmem = Some((g, g + *len as u64, true));
        }
        _ => unreachable!("scalar class filtered above"),
    }
    Some(node)
}

/// Does two optional global accesses conflict (overlap with a write)?
/// Exact mirror of the ROB's check.
fn gmem_conflict(a: &Option<(u64, u64, bool)>, b: &Option<(u64, u64, bool)>) -> bool {
    match (a, b) {
        (Some((s1, e1, w1)), Some((s2, e2, w2))) => (*w1 || *w2) && s1 < e2 && s2 < e1,
        _ => false,
    }
}

/// Must `younger` wait for `older`'s completion before issuing? Exact
/// mirror of the ROB's hazard scan (RAW/WAW/WAR local-memory overlap,
/// global-memory conflict, same-channel transfer FIFO). The all-pairs
/// oracle the indexed builder ([`link_core`]) is tested against.
#[cfg(test)]
fn blocks(older: &DagNode, younger: &DagNode) -> bool {
    let raw = younger
        .reads
        .iter()
        .any(|r| older.writes.iter().any(|w| r.overlaps(w)));
    let waw = younger
        .writes
        .iter()
        .any(|r| older.writes.iter().any(|w| r.overlaps(w)));
    let war = younger
        .writes
        .iter()
        .any(|r| older.reads.iter().any(|w| r.overlaps(w)));
    if raw || waw || war || gmem_conflict(&younger.gmem, &older.gmem) {
        return true;
    }
    younger.channel.is_some() && younger.channel == older.channel
}

/// The older ranges of one kind (reads or writes) on one core, answering
/// "which inserted ranges overlap `q`?" with each match reported exactly
/// once. A non-empty `[s, e)` overlaps a non-empty `[qs, qe)` iff it
/// either contains `qs` (`s <= qs < e`) or starts inside the query
/// (`qs < s < qe`), and no range does both. A segment tree over the
/// core's compressed range endpoints answers the first case with a point
/// stab, a start-keyed map the second. Empty ranges are never inserted
/// and never match.
struct RangeIndex<'a> {
    /// Sorted distinct endpoints of every non-empty range on the core;
    /// leaf `k` is the elementary interval `[coords[k], coords[k + 1])`.
    coords: &'a [u32],
    /// Leaf count rounded up to a power of two.
    size: usize,
    /// Heap-ordered tree: `tree[n]` lists the ranges whose canonical
    /// cover includes node `n`.
    tree: Vec<Vec<u32>>,
    /// Ranges keyed by start.
    by_start: BTreeMap<u32, Vec<u32>>,
}

impl<'a> RangeIndex<'a> {
    fn new(coords: &'a [u32]) -> RangeIndex<'a> {
        let size = coords.len().saturating_sub(1).next_power_of_two();
        RangeIndex {
            coords,
            size,
            tree: vec![Vec::new(); 2 * size],
            by_start: BTreeMap::new(),
        }
    }

    /// Tree node of the leaf starting at `x` (every endpoint of a
    /// non-empty range on the core is a coordinate).
    fn leaf(&self, x: u32) -> usize {
        self.size
            + self
                .coords
                .binary_search(&x)
                .expect("range endpoint is a core coordinate")
    }

    fn insert(&mut self, r: Range, id: u32) {
        if r.is_empty() {
            return;
        }
        let (mut lo, mut hi) = (self.leaf(r.start), self.leaf(r.end));
        while lo < hi {
            if lo & 1 == 1 {
                self.tree[lo].push(id);
                lo += 1;
            }
            if hi & 1 == 1 {
                hi -= 1;
                self.tree[hi].push(id);
            }
            lo >>= 1;
            hi >>= 1;
        }
        self.by_start.entry(r.start).or_default().push(id);
    }

    /// Calls `hit` once per inserted range that overlaps `q`.
    fn query(&self, q: Range, hit: &mut impl FnMut(u32)) {
        if q.is_empty() {
            return;
        }
        let mut n = self.leaf(q.start);
        while n > 0 {
            self.tree[n].iter().for_each(|&id| hit(id));
            n >>= 1;
        }
        for ids in self.by_start.range(q.start + 1..q.end).map(|(_, ids)| ids) {
            ids.iter().for_each(|&id| hit(id));
        }
    }
}

/// Fills `preds` for one core's nodes (`nodes`, in trace order, whose
/// ids in [`Dag::nodes`] start at `first`): every older node on the core
/// that the ROB makes it wait for, ascending.
fn link_core(nodes: &mut [DagNode], first: usize) {
    let mut coords: Vec<u32> = nodes
        .iter()
        .flat_map(|n| n.reads.iter().chain(&n.writes))
        .filter(|r| !r.is_empty())
        .flat_map(|r| [r.start, r.end])
        .collect();
    coords.sort_unstable();
    coords.dedup();
    let mut reads = RangeIndex::new(&coords);
    let mut writes = RangeIndex::new(&coords);
    let mut gmem: Vec<(u32, (u64, u64, bool))> = Vec::new();
    let mut channels: BTreeMap<(u16, u16, u16), Vec<u32>> = BTreeMap::new();
    // `seen[j] == i` once older node `j` is already a predecessor of `i`.
    let mut seen = vec![u32::MAX; nodes.len()];
    let mut found: Vec<u32> = Vec::new();
    for (i, node) in nodes.iter_mut().enumerate() {
        let id = i as u32;
        let mut hit = |j: u32| {
            if seen[j as usize] != id {
                seen[j as usize] = id;
                found.push(j);
            }
        };
        for &r in &node.reads {
            writes.query(r, &mut hit); // RAW
        }
        for &w in &node.writes {
            writes.query(w, &mut hit); // WAW
            reads.query(w, &mut hit); // WAR
        }
        if node.gmem.is_some() {
            for &(j, g) in &gmem {
                if gmem_conflict(&node.gmem, &Some(g)) {
                    hit(j);
                }
            }
        }
        if let Some(ch) = node.channel {
            let older = channels.entry(ch).or_default();
            older.iter().for_each(|&j| hit(j));
            older.push(id);
        }
        for &r in &node.reads {
            reads.insert(r, id);
        }
        for &w in &node.writes {
            writes.insert(w, id);
        }
        if let Some(g) = node.gmem {
            gmem.push((id, g));
        }
        found.sort_unstable();
        node.preds = found.drain(..).map(|j| first + j as usize).collect();
    }
}

impl Dag {
    /// Builds the DAG from a validated program, its per-core CFGs, and
    /// the rendezvous pairing. Non-linear cores contribute no nodes (only
    /// a conservative pacing term); channels whose endpoints are not both
    /// linear have no rendezvous edges.
    pub fn build(program: &Program, cfgs: &[Cfg], rendezvous: &crate::RendezvousMap) -> Dag {
        let mut nodes: Vec<DagNode> = Vec::new();
        let mut cores = Vec::with_capacity(program.cores.len());
        for (c, (cp, cfg)) in program.cores.iter().zip(cfgs).enumerate() {
            let c16 = c as u16;
            let Some(trace) = cfg.linear_trace() else {
                cores.push(CoreTrace {
                    linear: false,
                    dispatches: 0,
                    has_instructions: !cp.instrs.is_empty(),
                    nodes: Vec::new(),
                });
                continue;
            };
            let first = nodes.len();
            let mut regs = [0i32; 32];
            for (k, &pc) in trace.iter().enumerate() {
                let instr = &cp.instrs[pc as usize];
                match node_of(program, c16, pc, k as u32, instr, &regs) {
                    Some(node) => nodes.push(node),
                    None => exec_scalar(&mut regs, instr),
                }
            }
            // Hazard + channel-FIFO edges among this core's nodes.
            let end = nodes.len();
            link_core(&mut nodes[first..end], first);
            cores.push(CoreTrace {
                linear: true,
                dispatches: trace.len() as u32,
                has_instructions: !cp.instrs.is_empty(),
                nodes: (first..end).collect(),
            });
        }

        // Rendezvous edges: each statically-matched pair's recv waits for
        // its send's delivery. A pc appears at most once in a linear
        // trace, so (core, pc) identifies a node.
        let mut by_site = std::collections::BTreeMap::new();
        for (id, n) in nodes.iter().enumerate() {
            if n.channel.is_some() {
                by_site.insert((n.core, n.pc), id);
            }
        }
        for p in &rendezvous.pairs {
            let (Some(&s), Some(&r)) = (
                by_site.get(&(p.sender, p.send_pc)),
                by_site.get(&(p.receiver, p.recv_pc)),
            ) else {
                continue;
            };
            nodes[r].paired_send = Some(s);
        }

        Dag { nodes, cores }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pimsim_isa::asm::assemble;

    fn dag_of(src: &str) -> Dag {
        let p = assemble(src).unwrap();
        let cfgs: Vec<Cfg> = p.cores.iter().map(|c| Cfg::build(&c.instrs)).collect();
        let (_, map) = crate::rendezvous::check(&p, &cfgs, 4, 1);
        Dag::build(&p, &cfgs, &map)
    }

    #[test]
    fn scalar_interpretation_resolves_exact_addresses() {
        // r1 = 1000; the vector op's operands resolve against it.
        let d = dag_of(
            ".core 0\n\
             li r1, 1000\n\
             vadd [r1+24], [r1+0], [r0+8], 8\n\
             halt\n",
        );
        assert_eq!(d.nodes.len(), 1);
        let n = &d.nodes[0];
        assert_eq!(n.dispatch_index, 1, "li dispatched first");
        assert_eq!(
            n.writes,
            vec![Range {
                start: 1024,
                end: 1032
            }]
        );
        assert_eq!(
            n.reads,
            vec![
                Range {
                    start: 1000,
                    end: 1008
                },
                Range { start: 8, end: 16 }
            ]
        );
        assert_eq!(d.cores[0].dispatches, 3);
    }

    #[test]
    fn hazard_edges_follow_real_overlaps() {
        let d = dag_of(
            ".core 0\n\
             vfill [r0+0], 1, 8\n\
             vrelu [r0+100], [r0+4], 8\n\
             vfill [r0+200], 2, 8\n\
             halt\n",
        );
        assert_eq!(d.nodes.len(), 3);
        assert_eq!(d.nodes[1].preds, vec![0], "RAW on [4, 8)");
        assert!(d.nodes[2].preds.is_empty(), "disjoint ranges: no edge");
    }

    #[test]
    fn same_channel_transfers_chain_fifo() {
        let d = dag_of(
            ".core 0\n\
             send core1, [r0+0], 4, tag=7\n\
             send core1, [r0+100], 4, tag=7\n\
             send core1, [r0+200], 4, tag=8\n\
             halt\n\
             .core 1\n\
             recv core0, [r0+0], 4, tag=7\n\
             recv core0, [r0+100], 4, tag=7\n\
             recv core0, [r0+200], 4, tag=8\n\
             halt\n",
        );
        // Disjoint payload ranges: only the channel rule chains them.
        assert_eq!(d.nodes[1].preds, vec![0]);
        assert!(d.nodes[2].preds.is_empty(), "different tag overtakes");
    }

    #[test]
    fn rendezvous_pairs_become_cross_edges() {
        let d = dag_of(
            ".core 0\n\
             send core1, [r0+0], 16, tag=3\n\
             halt\n\
             .core 1\n\
             recv core0, [r0+0], 16, tag=3\n\
             halt\n",
        );
        assert_eq!(d.nodes.len(), 2);
        let recv = d.nodes.iter().position(|n| n.core == 1).unwrap();
        let send = d.nodes.iter().position(|n| n.core == 0).unwrap();
        assert_eq!(d.nodes[recv].paired_send, Some(send));
        assert_eq!(d.nodes[send].paired_send, None);
    }

    #[test]
    fn non_linear_cores_contribute_no_nodes() {
        let d = dag_of(
            ".core 0\n\
             jmp 0\n",
        );
        assert!(d.nodes.is_empty());
        assert!(!d.cores[0].linear);
        assert!(d.cores[0].has_instructions);
    }

    /// Builds the DAG of an already-compiled program (no rendezvous edges:
    /// only the same-core `preds` are under test).
    fn dag_of_program(p: &Program) -> Dag {
        let cfgs: Vec<Cfg> = p.cores.iter().map(|c| Cfg::build(&c.instrs)).collect();
        Dag::build(p, &cfgs, &crate::RendezvousMap::default())
    }

    /// The all-pairs oracle: for every node, each older node on its core
    /// that [`blocks`] it, ascending.
    fn oracle_preds(d: &Dag) -> Vec<Vec<usize>> {
        d.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                d.cores[n.core as usize]
                    .nodes
                    .iter()
                    .copied()
                    .take_while(|&j| j < i)
                    .filter(|&j| blocks(&d.nodes[j], n))
                    .collect()
            })
            .collect()
    }

    mod differential {
        use super::*;
        use pimsim_isa::{Addr, CoreId, PoolOp, VBinOp};
        use proptest::prelude::*;

        /// An operand address: base `r0` (zero), `r1` (just under
        /// `i32::MAX`, so long operands saturate at `u32::MAX`) or `r2`
        /// (moved by generated `addi`s, possibly below zero), plus a small
        /// offset so that ranges collide often.
        fn addr() -> impl Strategy<Value = Addr> {
            (0u8..3, -8i32..48).prop_map(|(r, off)| Addr::new(Reg::new(r).unwrap(), off).unwrap())
        }

        /// Operand lengths: short, zero, or long enough to saturate.
        fn len() -> impl Strategy<Value = u32> {
            prop_oneof![
                4 => 1u32..12,
                1 => Just(0u32),
                1 => (u32::MAX - 4)..=u32::MAX,
            ]
        }

        fn instr(core: u16) -> impl Strategy<Value = Instruction> {
            use Instruction as I;
            let peer = CoreId(1 - core);
            prop_oneof![
                (-24i32..24).prop_map(|imm| I::SImm {
                    op: SImmOp::Add,
                    rd: Reg::R2,
                    rs1: Reg::R2,
                    imm,
                }),
                (addr(), len()).prop_map(|(dst, len)| I::VFill { dst, value: 1, len }),
                (addr(), addr(), addr(), len()).prop_map(|(dst, a, b, len)| I::VBin {
                    op: VBinOp::Add,
                    dst,
                    a,
                    b,
                    len,
                }),
                (addr(), addr(), 0u32..6, 0u32..4, -16i32..16, -16i32..16).prop_map(
                    |(dst, src, block_len, blocks, src_stride, dst_stride)| I::VCopy2d {
                        dst,
                        src,
                        block_len,
                        blocks,
                        src_stride,
                        dst_stride,
                    }
                ),
                (addr(), addr(), 0u32..5, 0u32..3, 0u32..3, -16i32..16).prop_map(
                    |(dst, src, channels, win_w, win_h, row_stride)| I::VPool {
                        op: PoolOp::Max,
                        dst,
                        src,
                        channels,
                        win_w,
                        win_h,
                        row_stride,
                    }
                ),
                (addr(), addr(), len()).prop_map(|(dst, gaddr, len)| I::GLoad { dst, gaddr, len }),
                (addr(), addr(), len()).prop_map(|(gaddr, src, len)| I::GStore { gaddr, src, len }),
                (addr(), len(), 0u16..2).prop_map(move |(src, len, tag)| I::Send {
                    peer,
                    src,
                    len,
                    tag,
                }),
                (addr(), len(), 0u16..2).prop_map(move |(dst, len, tag)| I::Recv {
                    peer,
                    dst,
                    len,
                    tag,
                }),
                (addr(), 0u32..6, 0u32..4, -16i32..16, 0u16..2).prop_map(
                    move |(dst, block_len, blocks, dst_stride, tag)| I::Recv2d {
                        peer,
                        dst,
                        block_len,
                        blocks,
                        dst_stride,
                        tag,
                    }
                ),
            ]
        }

        /// A straight-line core: set up the `r1`/`r2` bases, run `body`,
        /// halt.
        fn core_program(body: Vec<Instruction>) -> pimsim_isa::CoreProgram {
            let li = |rd, imm| Instruction::SImm {
                op: SImmOp::Add,
                rd,
                rs1: Reg::R0,
                imm,
            };
            let mut instrs = vec![li(Reg::R1, i32::MAX - 40), li(Reg::R2, 16)];
            instrs.extend(body);
            instrs.push(Instruction::Halt);
            pimsim_isa::CoreProgram {
                instrs,
                ..Default::default()
            }
        }

        proptest! {
            #[test]
            fn indexed_preds_equal_the_all_pairs_oracle(
                core0 in proptest::collection::vec(instr(0), 0..40),
                core1 in proptest::collection::vec(instr(1), 0..24),
            ) {
                let mut p = Program::with_cores(2);
                p.cores[0] = core_program(core0);
                p.cores[1] = core_program(core1);
                let d = dag_of_program(&p);
                let want = oracle_preds(&d);
                for (i, n) in d.nodes.iter().enumerate() {
                    prop_assert_eq!(&n.preds, &want[i], "node {} (core {} pc {})", i, n.core, n.pc);
                }
            }
        }

        #[test]
        fn indexed_preds_equal_the_all_pairs_oracle_on_the_zoo() {
            use pimsim_arch::ArchConfig;
            use pimsim_compiler::{Compiler, MappingPolicy};
            use pimsim_nn::zoo;
            let small = ArchConfig::small_test();
            let paper = ArchConfig::paper_default();
            for (net, arch) in [
                (zoo::tiny_mlp(), &small),
                (zoo::tiny_cnn(), &small),
                (zoo::lenet(32), &paper),
            ] {
                for policy in [
                    MappingPolicy::UtilizationFirst,
                    MappingPolicy::PerformanceFirst,
                ] {
                    let compiled = Compiler::new(arch)
                        .mapping(policy)
                        .functional(false)
                        .compile(&net)
                        .unwrap();
                    let d = dag_of_program(&compiled.program);
                    assert!(d.cores.iter().all(|c| c.linear), "{}", net.name);
                    let want = oracle_preds(&d);
                    for (i, n) in d.nodes.iter().enumerate() {
                        assert_eq!(n.preds, want[i], "{} {policy:?}: node {i}", net.name);
                    }
                }
            }
        }
    }

    #[test]
    fn gmem_conflicts_make_edges() {
        let d = dag_of(
            ".core 0\n\
             gstore g[r0+100], [r0+0], 8\n\
             gload [r0+500], g[r0+104], 8\n\
             gload [r0+600], g[r0+900], 8\n\
             halt\n",
        );
        assert_eq!(d.nodes[1].preds, vec![0], "store/load overlap at 104..108");
        assert!(d.nodes[2].preds.is_empty(), "disjoint global intervals");
    }
}
