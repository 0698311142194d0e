/**
 * @file
 * Static decode information: instruction class, functional unit
 * requirements and latencies (paper Table 1), source/destination
 * register extraction, and memory access attributes.
 */

#ifndef VPIR_ISA_DECODE_HH
#define VPIR_ISA_DECODE_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "isa/instr.hh"

namespace vpir
{

/** Broad instruction classes used by scheduling and statistics. */
enum class InstClass : uint8_t
{
    Nop,
    IntAlu,
    IntMult,
    IntDiv,
    Load,
    Store,
    Branch,   //!< conditional branches (incl. BC1x)
    Jump,     //!< unconditional J/JAL/JR/JALR
    FpAdd,    //!< add/sub/compare/convert/move
    FpMult,
    FpDiv,
    FpSqrt,
    Halt,
};

/** Functional unit kinds, with pool sizes from Table 1. */
enum class FuType : uint8_t
{
    None,      //!< no FU needed (NOP/HALT)
    IntAlu,    //!< 8 units; also executes branches/jumps
    LoadStore, //!< 2 units
    FpAdder,   //!< 4 units
    IntMulDiv, //!< 1 unit
    FpMulDiv,  //!< 1 unit
    NUM_TYPES
};

/** Pool size for each FU type (Table 1). */
unsigned fuPoolSize(FuType t);

/** Per-opcode static information. */
struct DecodeInfo
{
    InstClass cls;
    FuType fu;
    uint8_t opLat;    //!< total execution latency, cycles
    uint8_t issueLat; //!< cycles before the FU accepts another op
};

namespace detail
{

using DecodeTable =
    std::array<DecodeInfo, static_cast<size_t>(Op::NUM_OPS)>;

/** The per-opcode decode table (latencies from Table 1), built at
 *  compile time so decodeInfo() is an inline array read. */
constexpr DecodeTable
buildDecodeTable()
{
    using C = InstClass;
    using F = FuType;
    DecodeTable t{};

    auto set = [&t](Op op, C c, F f, uint8_t lat, uint8_t iss) {
        t[static_cast<size_t>(op)] = DecodeInfo{c, f, lat, iss};
    };

    set(Op::NOP, C::Nop, F::None, 0, 0);
    set(Op::HALT, C::Halt, F::None, 0, 0);

    for (Op op : {Op::ADD, Op::SUB, Op::AND, Op::OR, Op::XOR, Op::NOR,
                  Op::SLT, Op::SLTU, Op::SLLV, Op::SRLV, Op::SRAV,
                  Op::ADDI, Op::ANDI, Op::ORI, Op::XORI, Op::SLTI,
                  Op::SLTIU, Op::SLL, Op::SRL, Op::SRA, Op::LUI, Op::LI,
                  Op::MFHI, Op::MFLO}) {
        set(op, C::IntAlu, F::IntAlu, 1, 1);
    }

    for (Op op : {Op::MULT, Op::MULTU})
        set(op, C::IntMult, F::IntMulDiv, 3, 1);
    for (Op op : {Op::DIV, Op::DIVU})
        set(op, C::IntDiv, F::IntMulDiv, 20, 19);

    for (Op op : {Op::LB, Op::LBU, Op::LH, Op::LHU, Op::LW, Op::L_D})
        set(op, C::Load, F::LoadStore, 1, 1);
    for (Op op : {Op::SB, Op::SH, Op::SW, Op::S_D})
        set(op, C::Store, F::LoadStore, 1, 1);

    for (Op op : {Op::BEQ, Op::BNE, Op::BLEZ, Op::BGTZ, Op::BLTZ,
                  Op::BGEZ, Op::BC1T, Op::BC1F}) {
        set(op, C::Branch, F::IntAlu, 1, 1);
    }
    for (Op op : {Op::J, Op::JAL, Op::JR, Op::JALR})
        set(op, C::Jump, F::IntAlu, 1, 1);

    for (Op op : {Op::ADD_D, Op::SUB_D, Op::C_EQ_D, Op::C_LT_D,
                  Op::C_LE_D, Op::CVT_D_W, Op::CVT_W_D, Op::MOV_D,
                  Op::NEG_D}) {
        set(op, C::FpAdd, F::FpAdder, 2, 1);
    }
    set(Op::MUL_D, C::FpMult, F::FpMulDiv, 4, 1);
    set(Op::DIV_D, C::FpDiv, F::FpMulDiv, 12, 12);
    set(Op::SQRT_D, C::FpSqrt, F::FpMulDiv, 24, 24);

    return t;
}

inline constexpr DecodeTable decodeTable = buildDecodeTable();

} // namespace detail

/** Decode table lookup. */
inline const DecodeInfo &
decodeInfo(Op op)
{
    return detail::decodeTable[static_cast<size_t>(op)];
}

/** The slowest operation's latency (the largest opLat), in cycles. */
inline constexpr unsigned maxOpLat = [] {
    unsigned m = 0;
    for (const DecodeInfo &d : detail::decodeTable)
        m = d.opLat > m ? d.opLat : m;
    return m;
}();

/** Up to two source registers (REG_INVALID when absent). */
struct SrcRegs
{
    RegId src[2];
};

/** Extract the architectural source registers of an instruction. */
SrcRegs srcRegs(const Instr &inst);

/** Up to two destination registers (REG_INVALID when absent). */
struct DstRegs
{
    RegId dst[2];
};

/** Extract the architectural destination registers. */
DstRegs dstRegs(const Instr &inst);

/** Memory access size in bytes (0 for non-memory ops). */
unsigned memSize(Op op);

inline bool
isLoad(Op op)
{
    return decodeInfo(op).cls == InstClass::Load;
}

inline bool
isStore(Op op)
{
    return decodeInfo(op).cls == InstClass::Store;
}

inline bool
isMem(Op op)
{
    return isLoad(op) || isStore(op);
}

inline bool
isCondBranch(Op op)
{
    return decodeInfo(op).cls == InstClass::Branch;
}

inline bool
isJump(Op op)
{
    return decodeInfo(op).cls == InstClass::Jump;
}

/** Any control transfer: conditional branch or jump. */
inline bool
isControl(Op op)
{
    return isCondBranch(op) || isJump(op);
}

/** True for JR/JALR whose target comes from a register. */
inline bool
isIndirectJump(Op op)
{
    return op == Op::JR || op == Op::JALR;
}

/** True for call-like ops that push the return address (JAL/JALR). */
inline bool
isCall(Op op)
{
    return op == Op::JAL || op == Op::JALR;
}

/** True for JR r31, i.e. a function return (by convention). */
inline bool
isReturn(const Instr &inst)
{
    return inst.op == Op::JR && inst.rs == REG_RA;
}

/** True when the instruction produces a register result. */
inline bool
producesResult(const Instr &inst)
{
    return inst.rd != REG_INVALID || inst.rd2 != REG_INVALID;
}

/**
 * One text word decoded once: what the emulator, the core and the
 * limit study need to know about an instruction that does not depend
 * on its dynamic instance. Emulator builds one per text word of its
 * program, so the per-instance paths read fields instead of
 * re-deriving them.
 */
struct StaticInst
{
    Instr inst;
    DecodeInfo di;
    RegId src[2]; //!< srcRegs(inst), r0 already REG_INVALID
    RegId dst[2]; //!< dstRegs(inst), r0 already REG_INVALID
    uint8_t memSz; //!< memSize(inst.op)
    bool isLd;
    bool isSt;
    bool isCtrl;     //!< conditional branch or jump
    bool resolvable; //!< conditional branch or indirect jump
    bool isHalt;
    bool isCall;     //!< isCall(inst.op)
    bool isReturn;   //!< isReturn(inst)
};

/** Decode @p inst into its static record. */
StaticInst makeStaticInst(const Instr &inst);

} // namespace vpir

#endif // VPIR_ISA_DECODE_HH
