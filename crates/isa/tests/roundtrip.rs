//! Property tests: every instruction survives binary encode/decode and
//! assembly print/parse round-trips, whole programs survive the JSON
//! artifact round-trip, and so does any untyped JSON value.

use std::collections::BTreeMap;

use pimsim_isa::asm;
use pimsim_isa::{
    decode, encode, Addr, BranchCond, CoreId, CoreProgram, GroupConfig, GroupId, Instruction,
    PoolOp, Program, ProgramMeta, Reg, SBinOp, SImmOp, VBinOp, VImmOp, VUnOp, WeightMatrix,
};
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::strategy::BoxedStrategy;
use serde_json::{Map, Number, Value};

fn reg_strategy() -> impl Strategy<Value = Reg> {
    (0u8..32).prop_map(|i| Reg::new(i).unwrap())
}

fn addr_strategy() -> impl Strategy<Value = Addr> {
    (reg_strategy(), -2_097_152i32..=2_097_151).prop_map(|(r, o)| Addr::new(r, o).unwrap())
}

fn len_strategy() -> impl Strategy<Value = u32> {
    0u32..=262_143
}

prop_compose! {
    fn vbin_op()(i in 0usize..5) -> VBinOp {
        [VBinOp::Add, VBinOp::Sub, VBinOp::Mul, VBinOp::Max, VBinOp::Min][i]
    }
}
prop_compose! {
    fn vimm_op()(i in 0usize..3) -> VImmOp {
        [VImmOp::Add, VImmOp::Mul, VImmOp::Sra][i]
    }
}
prop_compose! {
    fn vun_op()(i in 0usize..6) -> VUnOp {
        [VUnOp::Relu, VUnOp::Sigmoid, VUnOp::Tanh, VUnOp::Copy, VUnOp::Neg, VUnOp::Abs][i]
    }
}
prop_compose! {
    fn sbin_op()(i in 0usize..9) -> SBinOp {
        [SBinOp::Add, SBinOp::Sub, SBinOp::Mul, SBinOp::And, SBinOp::Or,
         SBinOp::Xor, SBinOp::Slt, SBinOp::Sll, SBinOp::Srl][i]
    }
}
prop_compose! {
    fn simm_op()(i in 0usize..7) -> SImmOp {
        [SImmOp::Add, SImmOp::Mul, SImmOp::Sll, SImmOp::Srl, SImmOp::And,
         SImmOp::Or, SImmOp::Slt][i]
    }
}
prop_compose! {
    fn branch_cond()(i in 0usize..4) -> BranchCond {
        [BranchCond::Eq, BranchCond::Ne, BranchCond::Lt, BranchCond::Ge][i]
    }
}
prop_compose! {
    fn pool_op()(i in 0usize..2) -> PoolOp {
        [PoolOp::Max, PoolOp::Avg][i]
    }
}

fn instruction_strategy() -> impl Strategy<Value = Instruction> {
    let stride = -131_072i32..=131_071;
    let block = 0u32..=16_383;
    prop_oneof![
        Just(Instruction::Nop),
        Just(Instruction::Halt),
        (0u32..=67_108_863).prop_map(|target| Instruction::Jump { target }),
        (
            branch_cond(),
            reg_strategy(),
            reg_strategy(),
            0u32..=67_108_863
        )
            .prop_map(|(cond, rs1, rs2, target)| Instruction::Branch {
                cond,
                rs1,
                rs2,
                target
            }),
        (sbin_op(), reg_strategy(), reg_strategy(), reg_strategy())
            .prop_map(|(op, rd, rs1, rs2)| Instruction::SBin { op, rd, rs1, rs2 }),
        (simm_op(), reg_strategy(), reg_strategy(), any::<i32>())
            .prop_map(|(op, rd, rs1, imm)| Instruction::SImm { op, rd, rs1, imm }),
        (
            0u16..=4095,
            addr_strategy(),
            addr_strategy(),
            len_strategy()
        )
            .prop_map(|(g, dst, src, len)| Instruction::Mvm {
                group: GroupId(g),
                dst,
                src,
                len
            }),
        (
            vbin_op(),
            addr_strategy(),
            addr_strategy(),
            addr_strategy(),
            len_strategy()
        )
            .prop_map(|(op, dst, a, b, len)| Instruction::VBin { op, dst, a, b, len }),
        (
            vimm_op(),
            addr_strategy(),
            addr_strategy(),
            -8_388_608i32..=8_388_607,
            len_strategy()
        )
            .prop_map(|(op, dst, src, imm, len)| Instruction::VImm {
                op,
                dst,
                src,
                imm,
                len
            }),
        (vun_op(), addr_strategy(), addr_strategy(), len_strategy())
            .prop_map(|(op, dst, src, len)| Instruction::VUn { op, dst, src, len }),
        (addr_strategy(), any::<i32>(), len_strategy())
            .prop_map(|(dst, value, len)| Instruction::VFill { dst, value, len }),
        (
            addr_strategy(),
            addr_strategy(),
            block.clone(),
            block.clone(),
            stride.clone(),
            stride.clone()
        )
            .prop_map(|(dst, src, block_len, blocks, src_stride, dst_stride)| {
                Instruction::VCopy2d {
                    dst,
                    src,
                    block_len,
                    blocks,
                    src_stride,
                    dst_stride,
                }
            }),
        (
            pool_op(),
            addr_strategy(),
            addr_strategy(),
            0u32..=16_383,
            0u32..=63,
            0u32..=63,
            stride.clone()
        )
            .prop_map(|(op, dst, src, channels, win_w, win_h, row_stride)| {
                Instruction::VPool {
                    op,
                    dst,
                    src,
                    channels,
                    win_w,
                    win_h,
                    row_stride,
                }
            }),
        (0u16..=4095, addr_strategy(), len_strategy(), any::<u16>()).prop_map(
            |(c, src, len, tag)| Instruction::Send {
                peer: CoreId(c),
                src,
                len,
                tag
            }
        ),
        (0u16..=4095, addr_strategy(), len_strategy(), any::<u16>()).prop_map(
            |(c, dst, len, tag)| Instruction::Recv {
                peer: CoreId(c),
                dst,
                len,
                tag
            }
        ),
        (
            0u16..=4095,
            addr_strategy(),
            block.clone(),
            block,
            stride,
            any::<u16>()
        )
            .prop_map(|(c, dst, block_len, blocks, dst_stride, tag)| {
                Instruction::Recv2d {
                    peer: CoreId(c),
                    dst,
                    block_len,
                    blocks,
                    dst_stride,
                    tag,
                }
            }),
        (addr_strategy(), addr_strategy(), len_strategy())
            .prop_map(|(dst, gaddr, len)| Instruction::GLoad { dst, gaddr, len }),
        (addr_strategy(), addr_strategy(), len_strategy())
            .prop_map(|(gaddr, src, len)| Instruction::GStore { gaddr, src, len }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Binary encoding is lossless.
    #[test]
    fn encode_decode_roundtrip(instr in instruction_strategy()) {
        let word = encode(&instr).expect("every generated instruction is encodable");
        let back = decode(word).expect("decode of a valid word succeeds");
        prop_assert_eq!(back, instr);
    }

    /// The canonical assembly text parses back to the same instruction.
    #[test]
    fn display_parse_roundtrip(instr in instruction_strategy()) {
        let text = instr.to_string();
        let back = asm::parse_instruction(&text)
            .unwrap_or_else(|e| panic!("parse of `{text}` failed: {e}"));
        prop_assert_eq!(back, instr);
    }

    /// Encoded words always carry a decodable opcode (no aliasing).
    #[test]
    fn opcode_is_stable(instr in instruction_strategy()) {
        let word = encode(&instr).unwrap();
        let again = encode(&decode(word).unwrap()).unwrap();
        prop_assert_eq!(word, again);
    }
}

/// Strings that exercise every escape the printer writes (quotes,
/// backslashes, control characters) and multi-byte UTF-8.
fn text_strategy() -> impl Strategy<Value = String> {
    const PIECES: [&str; 10] = [
        "",
        "conv1",
        "\"",
        "\\",
        "\n\r\t",
        "\u{1}\u{1f}",
        "é",
        "\u{1d11e}",
        "/",
        "a b",
    ];
    vec(0usize..PIECES.len(), 0..4).prop_map(|ix| ix.into_iter().map(|i| PIECES[i]).collect())
}

fn group_strategy() -> impl Strategy<Value = GroupConfig> {
    (
        0u16..8,
        1u32..4,
        1u32..4,
        vec(0u32..64, 0..3),
        any::<bool>(),
    )
        .prop_map(|(id, rows, cols, xbars, weighted)| {
            let mut g = GroupConfig::new(GroupId(id), rows, cols, xbars);
            if weighted {
                let data = (0..rows * cols).map(|i| i as i8 - 3).collect();
                g.weights = Some(WeightMatrix::new(rows, cols, data).unwrap());
            }
            g
        })
}

fn core_strategy() -> impl Strategy<Value = CoreProgram> {
    (
        vec(instruction_strategy(), 0..24),
        vec(group_strategy(), 0..3),
        vec((any::<u32>(), vec(any::<i32>(), 0..6)), 0..3),
        vec((text_strategy(), any::<u32>()), 0..3),
        vec(any::<u16>(), 0..8),
    )
        .prop_map(
            |(instrs, groups, local_init, labels, instr_tags)| CoreProgram {
                instrs,
                groups,
                local_init,
                labels: labels.into_iter().collect::<BTreeMap<_, _>>(),
                instr_tags,
            },
        )
}

fn program_strategy() -> impl Strategy<Value = Program> {
    (
        vec(core_strategy(), 0..4),
        vec((any::<u64>(), vec(any::<i32>(), 0..6)), 0..3),
        (text_strategy(), text_strategy(), text_strategy()),
    )
        .prop_map(|(cores, global_init, (name, mapping, notes))| Program {
            cores,
            global_init,
            meta: ProgramMeta {
                name,
                mapping,
                notes,
            },
        })
}

fn leaf_strategy() -> BoxedStrategy<Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<u64>().prop_map(|n| Value::Number(Number::from_u64(n))),
        any::<i64>().prop_map(|n| Value::Number(Number::from_i64(n))),
        any::<u64>().prop_map(|bits| {
            let f = f64::from_bits(bits);
            Value::Number(Number::from_f64(if f.is_finite() { f } else { 0.5 }))
        }),
        text_strategy().prop_map(Value::String),
    ]
    .boxed()
}

/// Values nested one level deeper than `inner`'s.
fn nest(inner: BoxedStrategy<Value>) -> BoxedStrategy<Value> {
    prop_oneof![
        inner.clone(),
        vec(inner.clone(), 0..4).prop_map(Value::Array),
        vec((text_strategy(), inner), 0..4)
            .prop_map(|members| Value::Object(members.into_iter().collect::<Map>())),
    ]
    .boxed()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// A program artifact reads back as the program that wrote it, in
    /// both the pretty form `to_json` writes and the compact form.
    #[test]
    fn program_json_roundtrip(program in program_strategy()) {
        let text = program.to_json();
        prop_assert_eq!(Program::from_json(&text).unwrap(), program.clone());
        let compact = serde_json::to_string(&program).unwrap();
        prop_assert_eq!(serde_json::from_str::<Program>(&compact).unwrap(), program);
    }

    /// Any JSON value survives printing and re-parsing, compact and pretty,
    /// and both forms print identically once re-read.
    #[test]
    fn value_json_roundtrip(value in nest(nest(nest(leaf_strategy())))) {
        let compact = serde_json::to_string(&value).unwrap();
        let pretty = serde_json::to_string_pretty(&value).unwrap();
        let from_compact: Value = serde_json::from_str(&compact).unwrap();
        let from_pretty: Value = serde_json::from_str(&pretty).unwrap();
        prop_assert_eq!(&from_compact, &value);
        prop_assert_eq!(&from_pretty, &value);
        prop_assert_eq!(serde_json::to_string(&from_pretty).unwrap(), compact);
    }
}
