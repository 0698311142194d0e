/** @file Unit tests for instruction semantics and the stepper. */

#include <gtest/gtest.h>

#include <cstring>
#include <limits>

#include "asm/assembler.hh"
#include "common/rng.hh"
#include "emu/executor.hh"
#include "workload/wregs.hh"

using namespace vpir;
using namespace vpir::wreg;

namespace
{

/** evalInstr into a fresh SemOut, for the checks of one outcome. */
SemOut
eval(const Instr &i, Addr pc, uint64_t a, uint64_t b, const EmuState *mem)
{
    SemOut o;
    evalInstr(o, i, pc, a, b, mem);
    return o;
}

/** Every field of two outcomes, one expectation each. */
void
expectSameOut(const SemOut &got, const SemOut &want)
{
    EXPECT_EQ(got.result, want.result);
    EXPECT_EQ(got.result2, want.result2);
    EXPECT_EQ(got.taken, want.taken);
    EXPECT_EQ(got.nextPC, want.nextPC);
    EXPECT_EQ(got.memAddr, want.memAddr);
    EXPECT_EQ(got.storeValue, want.storeValue);
}

uint64_t
evalRR(Op op, uint32_t a, uint32_t b)
{
    Instr i;
    i.op = op;
    i.rd = T0;
    i.rs = T1;
    i.rt = T2;
    return eval(i, 0x1000, a, b, nullptr).result;
}

uint64_t
dbits(double d)
{
    uint64_t b;
    std::memcpy(&b, &d, sizeof(b));
    return b;
}

double
bitsd(uint64_t b)
{
    double d;
    std::memcpy(&d, &b, sizeof(d));
    return d;
}

} // anonymous namespace

TEST(EvalInstr, IntegerAlu)
{
    EXPECT_EQ(evalRR(Op::ADD, 5, 7), 12u);
    EXPECT_EQ(evalRR(Op::ADD, 0xffffffff, 1), 0u); // 32-bit wrap
    EXPECT_EQ(evalRR(Op::SUB, 5, 7),
              static_cast<uint32_t>(-2));
    EXPECT_EQ(evalRR(Op::AND, 0xf0f0, 0xff00), 0xf000u);
    EXPECT_EQ(evalRR(Op::OR, 0xf0f0, 0x0f0f), 0xffffu);
    EXPECT_EQ(evalRR(Op::XOR, 0xff, 0x0f), 0xf0u);
    EXPECT_EQ(evalRR(Op::NOR, 0, 0), 0xffffffffu);
    EXPECT_EQ(evalRR(Op::SLT, static_cast<uint32_t>(-1), 0), 1u);
    EXPECT_EQ(evalRR(Op::SLTU, static_cast<uint32_t>(-1), 0), 0u);
    EXPECT_EQ(evalRR(Op::SLLV, 1, 5), 32u);
    EXPECT_EQ(evalRR(Op::SRLV, 0x80000000, 31), 1u);
    EXPECT_EQ(evalRR(Op::SRAV, 0x80000000, 31), 0xffffffffu);
}

TEST(EvalInstr, Immediates)
{
    Instr i;
    i.op = Op::ADDI;
    i.rd = T0;
    i.rs = T1;
    i.imm = -3;
    EXPECT_EQ(eval(i, 0, 10, 0, nullptr).result, 7u);

    i.op = Op::LUI;
    i.imm = 0x1234;
    EXPECT_EQ(eval(i, 0, 0, 0, nullptr).result, 0x12340000u);

    i.op = Op::LI;
    i.imm = -1;
    EXPECT_EQ(eval(i, 0, 0, 0, nullptr).result, 0xffffffffu);

    i.op = Op::SLL;
    i.imm = 4;
    EXPECT_EQ(eval(i, 0, 3, 0, nullptr).result, 48u);
    i.op = Op::SRA;
    i.imm = 1;
    EXPECT_EQ(eval(i, 0, 0x80000000u, 0, nullptr).result,
              0xc0000000u);
}

TEST(EvalInstr, MultDiv)
{
    Instr m;
    m.op = Op::MULT;
    m.rd = REG_LO;
    m.rd2 = REG_HI;
    m.rs = T1;
    m.rt = T2;
    SemOut o = eval(m, 0, 0x10000, 0x10000, nullptr);
    EXPECT_EQ(o.result, 0u);       // LO
    EXPECT_EQ(o.result2, 1u);      // HI
    o = eval(m, 0, static_cast<uint32_t>(-2), 3, nullptr);
    EXPECT_EQ(o.result, static_cast<uint32_t>(-6));
    EXPECT_EQ(o.result2, 0xffffffffu); // sign extension of -6

    m.op = Op::DIV;
    o = eval(m, 0, 17, 5, nullptr);
    EXPECT_EQ(o.result, 3u);  // quotient in LO
    EXPECT_EQ(o.result2, 2u); // remainder in HI
    o = eval(m, 0, 17, 0, nullptr); // divide by zero defined
    EXPECT_EQ(o.result, 0u);
}

/** Property: DIV satisfies a = q*b + r with |r| < |b|. */
TEST(EvalInstr, DivMulIdentityProperty)
{
    Rng rng(5);
    Instr d;
    d.op = Op::DIV;
    d.rd = REG_LO;
    d.rd2 = REG_HI;
    d.rs = T1;
    d.rt = T2;
    for (int i = 0; i < 2000; ++i) {
        int32_t a = static_cast<int32_t>(rng.next());
        int32_t b = static_cast<int32_t>(rng.next() | 1);
        if (a == INT32_MIN && b == -1)
            continue;
        SemOut o = eval(d, 0, static_cast<uint32_t>(a),
                        static_cast<uint32_t>(b), nullptr);
        int32_t q = static_cast<int32_t>(o.result);
        int32_t r = static_cast<int32_t>(o.result2);
        ASSERT_EQ(static_cast<int64_t>(q) * b + r, a);
    }
}

TEST(EvalInstr, Branches)
{
    Instr b;
    b.op = Op::BEQ;
    b.rs = T1;
    b.rt = T2;
    b.target = 0x2000;
    SemOut o = eval(b, 0x1000, 4, 4, nullptr);
    EXPECT_TRUE(o.taken);
    EXPECT_EQ(o.nextPC, 0x2000u);
    o = eval(b, 0x1000, 4, 5, nullptr);
    EXPECT_FALSE(o.taken);
    EXPECT_EQ(o.nextPC, 0x1004u);

    b.op = Op::BLTZ;
    o = eval(b, 0x1000, static_cast<uint32_t>(-1), 0, nullptr);
    EXPECT_TRUE(o.taken);
    b.op = Op::BGEZ;
    o = eval(b, 0x1000, 0, 0, nullptr);
    EXPECT_TRUE(o.taken);
}

TEST(EvalInstr, Jumps)
{
    Instr j;
    j.op = Op::JAL;
    j.rd = REG_RA;
    j.target = 0x3000;
    SemOut o = eval(j, 0x1000, 0, 0, nullptr);
    EXPECT_EQ(o.nextPC, 0x3000u);
    EXPECT_EQ(o.result, 0x1004u); // link

    j.op = Op::JR;
    j.rs = T1;
    o = eval(j, 0x1000, 0x4000, 0, nullptr);
    EXPECT_EQ(o.nextPC, 0x4000u);
}

TEST(EvalInstr, FloatingPoint)
{
    Instr f;
    f.op = Op::ADD_D;
    f.rd = fpReg(0);
    f.rs = fpReg(1);
    f.rt = fpReg(2);
    SemOut o = eval(f, 0, dbits(1.5), dbits(2.25), nullptr);
    EXPECT_DOUBLE_EQ(bitsd(o.result), 3.75);

    f.op = Op::MUL_D;
    o = eval(f, 0, dbits(3.0), dbits(-2.0), nullptr);
    EXPECT_DOUBLE_EQ(bitsd(o.result), -6.0);

    f.op = Op::SQRT_D;
    o = eval(f, 0, dbits(9.0), 0, nullptr);
    EXPECT_DOUBLE_EQ(bitsd(o.result), 3.0);

    f.op = Op::C_LT_D;
    o = eval(f, 0, dbits(1.0), dbits(2.0), nullptr);
    EXPECT_EQ(o.result, 1u);

    f.op = Op::CVT_D_W;
    o = eval(f, 0, static_cast<uint32_t>(-7), 0, nullptr);
    EXPECT_DOUBLE_EQ(bitsd(o.result), -7.0);

    f.op = Op::CVT_W_D;
    o = eval(f, 0, dbits(-7.9), 0, nullptr);
    EXPECT_EQ(static_cast<int32_t>(o.result), -7);
}

/** CVT_W_D truncates toward zero; NaN, the infinities and doubles
 *  whose truncation leaves int32 give 0x80000000. */
TEST(EvalInstr, CvtWDOutsideInt32IsIndefinite)
{
    Instr f;
    f.op = Op::CVT_W_D;
    f.rd = fpReg(0);
    f.rs = fpReg(1);
    auto cvt = [&](double d) {
        return eval(f, 0, dbits(d), 0, nullptr).result;
    };
    EXPECT_EQ(cvt(std::numeric_limits<double>::quiet_NaN()), 0x80000000u);
    EXPECT_EQ(cvt(std::numeric_limits<double>::infinity()), 0x80000000u);
    EXPECT_EQ(cvt(-std::numeric_limits<double>::infinity()), 0x80000000u);
    EXPECT_EQ(cvt(2147483648.0), 0x80000000u);  // 2^31
    EXPECT_EQ(cvt(-2147483649.0), 0x80000000u); // -2^31 - 1
    EXPECT_EQ(cvt(1e300), 0x80000000u);
    // The edges that still truncate into int32.
    EXPECT_EQ(cvt(2147483647.9), 0x7fffffffu);
    EXPECT_EQ(cvt(-2147483648.0), 0x80000000u);
    EXPECT_EQ(cvt(-2147483648.9), 0x80000000u);
    EXPECT_EQ(cvt(-0.5), 0u);
}

/** Every field is written on every call: outcomes that set a memory
 *  address, a store value, a taken direction, a jump target or HI
 *  leave none of it in the record an ADDI is evaluated into next. */
TEST(EvalInstr, InPlaceLeavesNothingOfThePrevious)
{
    Instr st;
    st.op = Op::SW;
    st.rs = T0;
    st.rt = T1;
    st.imm = 8;
    Instr br;
    br.op = Op::BNE;
    br.rs = T0;
    br.rt = T1;
    br.target = 0x2000;
    Instr mul;
    mul.op = Op::MULT;
    mul.rd = REG_LO;
    mul.rd2 = REG_HI;
    mul.rs = T0;
    mul.rt = T1;
    Instr addi;
    addi.op = Op::ADDI;
    addi.rd = T2;
    addi.rs = T0;
    addi.imm = 5;

    SemOut o;
    evalInstr(o, st, 0x1000, 0x5000, 0x99, nullptr);
    ASSERT_EQ(o.memAddr, 0x5008u);
    ASSERT_EQ(o.storeValue, 0x99u);
    evalInstr(o, br, 0x1004, 1, 2, nullptr);
    ASSERT_TRUE(o.taken);
    ASSERT_EQ(o.nextPC, 0x2000u);
    evalInstr(o, mul, 0x1008, 0x10000, 0x30000, nullptr);
    ASSERT_EQ(o.result2, 3u);

    evalInstr(o, addi, 0x100c, 37, 0, nullptr);
    SCOPED_TRACE("ADDI into a used record against a fresh one");
    expectSameOut(o, eval(addi, 0x100c, 37, 0, nullptr));
    EXPECT_EQ(o.result, 42u);
}

TEST(EvalInstr, LoadsSignAndZeroExtend)
{
    EmuState mem;
    mem.initMem(0x100, 1, 0x80);
    Instr l;
    l.op = Op::LB;
    l.rd = T0;
    l.rs = T1;
    EXPECT_EQ(eval(l, 0, 0x100, 0, &mem).result, 0xffffff80u);
    l.op = Op::LBU;
    EXPECT_EQ(eval(l, 0, 0x100, 0, &mem).result, 0x80u);
}

TEST(Emulator, RunsAssembledProgram)
{
    Assembler a;
    a.dataLabel("out");
    a.space(8);
    a.li(T0, 6);
    a.li(T1, 7);
    a.mult(T0, T1);
    a.mflo(T2);
    a.la(T3, "out");
    a.sw(T2, T3, 0);
    a.halt();
    Program p = a.finish();

    EmuState st;
    Emulator emu(p, st);
    Emulator::loadProgram(p, st);
    int guard = 0;
    while (!emu.halted() && guard++ < 100)
        emu.step();
    EXPECT_TRUE(emu.halted());
    EXPECT_EQ(st.readMem(a.dataAddr("out"), 4), 42u);
}

TEST(Emulator, LoopExecutesExpectedCount)
{
    Assembler a;
    a.li(T0, 10);
    a.li(T1, 0);
    a.label("loop");
    a.addi(T1, T1, 3);
    a.addi(T0, T0, -1);
    a.bgtz(T0, "loop");
    a.halt();
    Program p = a.finish();

    EmuState st;
    Emulator emu(p, st);
    Emulator::loadProgram(p, st);
    uint64_t steps = 0;
    while (!emu.halted()) {
        emu.step();
        ++steps;
        ASSERT_LT(steps, 1000u);
    }
    EXPECT_EQ(st.readReg(T1), 30u);
    EXPECT_EQ(steps, 2u + 3u * 10u + 1u); // 2 li, 10x3 body, halt
}

TEST(Emulator, OffTextPCHalts)
{
    Assembler a;
    a.nop();
    Program p = a.finish();
    EmuState st;
    Emulator emu(p, st);
    emu.setPC(0xdead0000);
    ExecResult r = emu.step();
    EXPECT_TRUE(r.halted);
}

TEST(Emulator, SrcValsCaptureOperands)
{
    Assembler a;
    a.li(T0, 11);
    a.li(T1, 22);
    a.add(T2, T0, T1);
    a.halt();
    Program p = a.finish();
    EmuState st;
    Emulator emu(p, st);
    emu.step();
    emu.step();
    ExecResult r = emu.step();
    EXPECT_EQ(r.srcVals[0], 11u);
    EXPECT_EQ(r.srcVals[1], 22u);
    EXPECT_EQ(r.out.result, 33u);
}

/** step(r) into a record that held a store keeps none of the store's
 *  fields: the limit study and every ROB slot reuse one record. */
TEST(Emulator, ReusedResultKeepsNothingOfAStore)
{
    Assembler a;
    a.li(T0, 0x5000);
    a.li(T1, 0x99);
    a.sw(T1, T0, 8);
    a.addi(T2, T1, 1);
    a.halt();
    Program p = a.finish();
    EmuState st;
    Emulator emu(p, st);
    ExecResult r;
    emu.step(r);
    emu.step(r);
    emu.step(r);
    ASSERT_EQ(r.inst.op, Op::SW);
    ASSERT_EQ(r.out.memAddr, 0x5008u);
    ASSERT_EQ(r.out.storeValue, 0x99u);
    ASSERT_EQ(r.srcVals[1], 0x99u);

    emu.step(r);
    EXPECT_EQ(r.inst.op, Op::ADDI);
    EXPECT_FALSE(r.halted);
    EXPECT_EQ(r.srcVals[0], 0x99u);
    EXPECT_EQ(r.srcVals[1], 0u);
    expectSameOut(r.out, eval(r.inst, r.pc, 0x99, 0, &st));
    EXPECT_EQ(r.out.result, 0x9au);
    EXPECT_EQ(r.out.memAddr, 0u);
    EXPECT_EQ(r.out.storeValue, 0u);
}

TEST(Emulator, StoreWritesThroughJournal)
{
    Assembler a;
    a.li(T0, 0x5000);
    a.li(T1, 0x99);
    a.sb(T1, T0, 2);
    a.halt();
    Program p = a.finish();
    EmuState st;
    Emulator emu(p, st);
    JournalMark m = st.mark();
    emu.step();
    emu.step();
    emu.step();
    EXPECT_EQ(st.readMem(0x5002, 1), 0x99u);
    st.rollback(m);
    EXPECT_EQ(st.readMem(0x5002, 1), 0u);
}
