/** @file Unit tests for static decode information. */

#include <gtest/gtest.h>

#include <string>

#include "isa/decode.hh"

using namespace vpir;

TEST(Decode, Table1Latencies)
{
    EXPECT_EQ(decodeInfo(Op::ADD).opLat, 1);
    EXPECT_EQ(decodeInfo(Op::MULT).opLat, 3);
    EXPECT_EQ(decodeInfo(Op::DIV).opLat, 20);
    EXPECT_EQ(decodeInfo(Op::DIV).issueLat, 19);
    EXPECT_EQ(decodeInfo(Op::ADD_D).opLat, 2);
    EXPECT_EQ(decodeInfo(Op::MUL_D).opLat, 4);
    EXPECT_EQ(decodeInfo(Op::DIV_D).opLat, 12);
    EXPECT_EQ(decodeInfo(Op::DIV_D).issueLat, 12);
    EXPECT_EQ(decodeInfo(Op::SQRT_D).opLat, 24);
    EXPECT_EQ(decodeInfo(Op::SQRT_D).issueLat, 24);
}

TEST(Decode, Table1FuPoolSizes)
{
    EXPECT_EQ(fuPoolSize(FuType::IntAlu), 8u);
    EXPECT_EQ(fuPoolSize(FuType::LoadStore), 2u);
    EXPECT_EQ(fuPoolSize(FuType::FpAdder), 4u);
    EXPECT_EQ(fuPoolSize(FuType::IntMulDiv), 1u);
    EXPECT_EQ(fuPoolSize(FuType::FpMulDiv), 1u);
}

TEST(Decode, Classes)
{
    EXPECT_EQ(decodeInfo(Op::LW).cls, InstClass::Load);
    EXPECT_EQ(decodeInfo(Op::SW).cls, InstClass::Store);
    EXPECT_EQ(decodeInfo(Op::BEQ).cls, InstClass::Branch);
    EXPECT_EQ(decodeInfo(Op::JR).cls, InstClass::Jump);
    EXPECT_EQ(decodeInfo(Op::NOP).cls, InstClass::Nop);
    EXPECT_EQ(decodeInfo(Op::HALT).cls, InstClass::Halt);
}

TEST(Decode, Predicates)
{
    EXPECT_TRUE(isLoad(Op::LBU));
    EXPECT_TRUE(isStore(Op::S_D));
    EXPECT_TRUE(isMem(Op::LH));
    EXPECT_FALSE(isMem(Op::ADD));
    EXPECT_TRUE(isCondBranch(Op::BC1T));
    EXPECT_TRUE(isJump(Op::JAL));
    EXPECT_TRUE(isControl(Op::BNE));
    EXPECT_TRUE(isIndirectJump(Op::JALR));
    EXPECT_FALSE(isIndirectJump(Op::J));
    EXPECT_TRUE(isCall(Op::JAL));
    EXPECT_FALSE(isCall(Op::JR));
}

TEST(Decode, ReturnConvention)
{
    Instr jr;
    jr.op = Op::JR;
    jr.rs = REG_RA;
    EXPECT_TRUE(isReturn(jr));
    jr.rs = intReg(5);
    EXPECT_FALSE(isReturn(jr));
}

TEST(Decode, SrcRegsExtraction)
{
    Instr add;
    add.op = Op::ADD;
    add.rd = intReg(3);
    add.rs = intReg(1);
    add.rt = intReg(2);
    SrcRegs s = srcRegs(add);
    EXPECT_EQ(s.src[0], intReg(1));
    EXPECT_EQ(s.src[1], intReg(2));
}

TEST(Decode, R0ReadsAreNotDependences)
{
    Instr add;
    add.op = Op::ADD;
    add.rd = intReg(3);
    add.rs = REG_ZERO;
    add.rt = intReg(2);
    SrcRegs s = srcRegs(add);
    EXPECT_EQ(s.src[0], REG_INVALID);
    EXPECT_EQ(s.src[1], intReg(2));
}

TEST(Decode, R0WritesAreDiscarded)
{
    Instr add;
    add.op = Op::ADD;
    add.rd = REG_ZERO;
    DstRegs d = dstRegs(add);
    EXPECT_EQ(d.dst[0], REG_INVALID);
}

TEST(Decode, MultHasTwoDests)
{
    Instr m;
    m.op = Op::MULT;
    m.rd = REG_LO;
    m.rd2 = REG_HI;
    m.rs = intReg(1);
    m.rt = intReg(2);
    DstRegs d = dstRegs(m);
    EXPECT_EQ(d.dst[0], REG_LO);
    EXPECT_EQ(d.dst[1], REG_HI);
}

TEST(Decode, MfhiReadsHi)
{
    Instr m;
    m.op = Op::MFHI;
    m.rd = intReg(4);
    SrcRegs s = srcRegs(m);
    EXPECT_EQ(s.src[0], REG_HI);
}

TEST(Decode, MemSizes)
{
    EXPECT_EQ(memSize(Op::LB), 1u);
    EXPECT_EQ(memSize(Op::SH), 2u);
    EXPECT_EQ(memSize(Op::LW), 4u);
    EXPECT_EQ(memSize(Op::L_D), 8u);
    EXPECT_EQ(memSize(Op::ADD), 0u);
}

/** Every opcode must have coherent decode info. */
class DecodeAllOps : public ::testing::TestWithParam<int>
{
};

TEST_P(DecodeAllOps, InfoIsCoherent)
{
    Op op = static_cast<Op>(GetParam());
    const DecodeInfo &di = decodeInfo(op);
    if (di.cls == InstClass::Nop || di.cls == InstClass::Halt) {
        EXPECT_EQ(di.fu, FuType::None);
    } else {
        EXPECT_NE(di.fu, FuType::None);
        EXPECT_GE(di.opLat, 1);
        EXPECT_GE(di.issueLat, 1);
        EXPECT_LE(di.issueLat, di.opLat);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, DecodeAllOps,
    ::testing::Range(0, static_cast<int>(Op::NUM_OPS)));

/** The static decode table must say what the per-instance decoder
 *  says, for every opcode and for register patterns that exercise
 *  r0 as a source and as a destination and a second destination. */
TEST(StaticInst, MatchesDecoderForEveryOpcode)
{
    struct Regs
    {
        RegId rd, rd2, rs, rt;
    };
    const Regs patterns[] = {
        {intReg(3), REG_INVALID, intReg(1), intReg(2)},
        {REG_ZERO, REG_INVALID, REG_ZERO, intReg(2)},
        {REG_LO, REG_HI, intReg(4), REG_ZERO},
        {intReg(5), REG_ZERO, REG_RA, intReg(6)},
        {REG_INVALID, REG_INVALID, REG_RA, REG_INVALID},
    };
    for (int o = 0; o < static_cast<int>(Op::NUM_OPS); ++o) {
        for (const Regs &r : patterns) {
            Instr inst;
            inst.op = static_cast<Op>(o);
            inst.rd = r.rd;
            inst.rd2 = r.rd2;
            inst.rs = r.rs;
            inst.rt = r.rt;
            inst.imm = -12;
            inst.target = 0x1040;
            StaticInst si = makeStaticInst(inst);
            SCOPED_TRACE(opName(inst.op) + " rd " +
                         std::to_string(r.rd) + " rd2 " +
                         std::to_string(r.rd2) + " rs " +
                         std::to_string(r.rs) + " rt " +
                         std::to_string(r.rt));

            EXPECT_EQ(si.inst.op, inst.op);
            EXPECT_EQ(si.inst.rd, inst.rd);
            EXPECT_EQ(si.inst.rd2, inst.rd2);
            EXPECT_EQ(si.inst.rs, inst.rs);
            EXPECT_EQ(si.inst.rt, inst.rt);
            EXPECT_EQ(si.inst.imm, inst.imm);
            EXPECT_EQ(si.inst.target, inst.target);

            const DecodeInfo &di = decodeInfo(inst.op);
            EXPECT_EQ(si.di.cls, di.cls);
            EXPECT_EQ(si.di.fu, di.fu);
            EXPECT_EQ(si.di.opLat, di.opLat);
            EXPECT_EQ(si.di.issueLat, di.issueLat);

            SrcRegs s = srcRegs(inst);
            DstRegs d = dstRegs(inst);
            for (int k = 0; k < 2; ++k) {
                EXPECT_EQ(si.src[k], s.src[k]) << "src " << k;
                EXPECT_EQ(si.dst[k], d.dst[k]) << "dst " << k;
                EXPECT_NE(si.src[k], REG_ZERO);
                EXPECT_NE(si.dst[k], REG_ZERO);
            }
            EXPECT_EQ(si.memSz, memSize(inst.op));

            EXPECT_EQ(si.isLd, di.cls == InstClass::Load);
            EXPECT_EQ(si.isSt, di.cls == InstClass::Store);
            EXPECT_EQ(si.isCtrl, isControl(inst.op));
            EXPECT_EQ(si.resolvable,
                      isCondBranch(inst.op) || isIndirectJump(inst.op));
            EXPECT_EQ(si.isHalt, inst.op == Op::HALT);
            EXPECT_EQ(si.isCall, isCall(inst.op));
            EXPECT_EQ(si.isReturn, isReturn(inst));
        }
    }
}
