/** @file Unit tests for the redundancy limit study (§4.3). */

#include <gtest/gtest.h>

#include <array>

#include "asm/assembler.hh"
#include "redundancy/redundancy.hh"
#include "workload/workload.hh"
#include "workload/wregs.hh"

using namespace vpir;
using namespace vpir::wreg;

namespace
{

/** A loop recomputing a constant chain: everything repeats. */
Program
constantLoop(int iters)
{
    Assembler a;
    a.dataLabel("c");
    a.word(42);
    a.la(S0, "c");
    a.li(S1, iters);
    a.label("loop");
    a.lw(T0, S0, 0);
    a.sll(T1, T0, 1);
    a.xor_(T2, T1, T0);
    a.addi(S1, S1, -1);
    a.bgtz(S1, "loop");
    a.halt();
    return a.finish();
}

/** A pure counter: results follow a stride, never repeating. */
Program
counterLoop(int iters)
{
    Assembler a;
    a.li(S1, iters);
    a.li(T0, 0);
    a.label("loop");
    a.addi(T0, T0, 12);    // strided results: derivable
    a.addi(S1, S1, -1);    // strided results: derivable
    a.bgtz(S1, "loop");
    a.halt();
    return a.finish();
}

/** An LCG: results are effectively unique and unstrided. */
Program
lcgLoop(int iters)
{
    Assembler a;
    a.li(S1, iters);
    a.li(T0, 12345);
    a.li(T1, 1103515245 & 0x7fff);
    a.label("loop");
    a.mult(T0, T1);
    a.mflo(T0);
    a.addi(T0, T0, 12345);
    a.addi(S1, S1, -1);
    a.bgtz(S1, "loop");
    a.halt();
    return a.finish();
}

/** All eleven counters, in declaration order. */
std::array<uint64_t, 11>
counters(const RedundancyStats &s)
{
    return {s.totalDynamic, s.resultProducing, s.unique,
            s.repeated, s.derivable, s.unaccounted,
            s.prodReused, s.prodFar, s.prodNear,
            s.inputsDifferent, s.reusable};
}

} // anonymous namespace

TEST(Redundancy, ConstantLoopIsRepeated)
{
    RedundancyStats st = analyzeRedundancy(constantLoop(500));
    EXPECT_GT(st.resultProducing, 1000u);
    // The chain body repeats; unique results only from the first
    // iteration and the (derivable) countdown.
    double repeated_frac = static_cast<double>(st.repeated) /
                           static_cast<double>(st.resultProducing);
    EXPECT_GT(repeated_frac, 0.55);
    EXPECT_LT(st.unique, 20u);
}

TEST(Redundancy, CounterLoopIsDerivable)
{
    RedundancyStats st = analyzeRedundancy(counterLoop(500));
    double derivable_frac = static_cast<double>(st.derivable) /
                            static_cast<double>(st.resultProducing);
    EXPECT_GT(derivable_frac, 0.9);
}

TEST(Redundancy, LcgIsMostlyUnique)
{
    RedundancyStats st = analyzeRedundancy(lcgLoop(500));
    double unique_frac = static_cast<double>(st.unique) /
                         static_cast<double>(st.resultProducing);
    EXPECT_GT(unique_frac, 0.35);
    EXPECT_LT(static_cast<double>(st.repeated) /
                  static_cast<double>(st.resultProducing),
              0.4);
}

TEST(Redundancy, ConstantLoopIsReusable)
{
    RedundancyStats st = analyzeRedundancy(constantLoop(500));
    // Same operands every iteration and the producers reuse too:
    // nearly all of the repeated work is reusable.
    EXPECT_GT(st.reusableFraction(), 0.65);
}

TEST(Redundancy, CategoriesPartitionResultProducing)
{
    for (const Program &p :
         {constantLoop(300), counterLoop(300), lcgLoop(300)}) {
        RedundancyStats st = analyzeRedundancy(p);
        EXPECT_EQ(st.unique + st.repeated + st.derivable +
                      st.unaccounted,
                  st.resultProducing);
        EXPECT_EQ(st.prodReused + st.prodFar + st.prodNear,
                  st.repeated);
        EXPECT_LE(st.reusable, st.repeated);
    }
}

TEST(Redundancy, UnaccountedAppearsWithTinyBuffers)
{
    RedundancyParams params;
    params.maxInstances = 4;
    RedundancyStats st = analyzeRedundancy(lcgLoop(500), params);
    EXPECT_GT(st.unaccounted, 100u);
}

TEST(Redundancy, MaxInstsCapsAnalysis)
{
    RedundancyParams params;
    params.maxInsts = 100;
    RedundancyStats st = analyzeRedundancy(constantLoop(500), params);
    EXPECT_LE(st.totalDynamic, 100u);
}

TEST(Redundancy, NearProducersBlockReuse)
{
    // A tight serial chain: each instruction's producer is the
    // immediately preceding one (< 50 instructions), and nothing is
    // reusable to bootstrap the chain, so inputs are never ready.
    Assembler a;
    a.li(S1, 300);
    a.li(T0, 0);
    a.label("loop");
    a.xori(T0, T0, 1);     // alternates: repeated results
    a.xori(T0, T0, 2);
    a.xori(T0, T0, 4);
    a.addi(S1, S1, -1);
    a.bgtz(S1, "loop");
    a.halt();
    RedundancyStats st = analyzeRedundancy(a.finish());
    EXPECT_GT(st.prodNear + st.prodReused, st.prodFar);
}

TEST(Redundancy, PaperBandHoldsForMixedProgram)
{
    // A program mixing constants, counters and a little noise should
    // land in the paper's "most redundancy is reusable" regime.
    Assembler a;
    a.dataLabel("tab");
    for (int i = 0; i < 8; ++i)
        a.word(static_cast<uint32_t>(3 * i + 1));
    a.la(S0, "tab");
    a.li(S1, 400);
    a.li(S2, 0);
    a.label("loop");
    a.addi(S2, S2, 1);
    a.andi(S2, S2, 7);     // wrapping index: operand values repeat,
                           // bootstrapping the reuse chains
    a.sll(T0, S2, 2);
    a.add(T1, S0, T0);
    a.lw(T2, T1, 0);
    a.sll(T3, T2, 1);
    a.add(S3, S3, T3);
    a.addi(S1, S1, -1);
    a.bgtz(S1, "loop");
    a.halt();
    RedundancyStats st = analyzeRedundancy(a.finish());
    EXPECT_GT(st.redundant(), st.resultProducing / 2);
    EXPECT_GT(st.reusableFraction(), 0.5);
}

TEST(Redundancy, WorkloadStatsPinned)
{
    // Figures 8-10 at 200 K instructions, with the paper's 10K
    // buffers and with 64-instance buffers, which fill on every
    // workload so unaccounted results and full-buffer freezes occur.
    struct Row
    {
        const char *name;
        unsigned maxInstances;
        std::array<uint64_t, 11> expect;
    };
    const Row rows[] = {
        {"go", 10000, {200000, 142212, 4227, 134836, 3149, 0,
                       109257, 7619, 17960, 12398, 111539}},
        {"m88ksim", 10000, {200000, 171318, 10824, 157536, 2958, 0,
                            118485, 25504, 13547, 9463, 139926}},
        {"ijpeg", 10000, {200000, 172083, 12796, 150982, 8305, 0,
                          119690, 13121, 18171, 12720, 128048}},
        {"perl", 10000, {200000, 160231, 18699, 135867, 5665, 0,
                         115279, 11913, 8675, 6377, 125323}},
        {"vortex", 10000, {200000, 145568, 9878, 130732, 4958, 0,
                           107248, 12119, 11365, 5716, 118989}},
        {"gcc", 10000, {200000, 155063, 24759, 123896, 6408, 0,
                        116645, 14, 7237, 5148, 116633}},
        {"compress", 10000, {200000, 132195, 9482, 101694, 21019, 0,
                             44765, 16435, 40494, 13493, 59882}},
        {"go", 64, {200000, 142212, 602, 117184, 14508, 9918,
                    56015, 6370, 54799, 27770, 58691}},
        {"m88ksim", 64, {200000, 171318, 2378, 142808, 14180, 11952,
                         112525, 25363, 4920, 4161, 135651}},
        {"ijpeg", 64, {200000, 172083, 1212, 82099, 24986, 63786,
                       60874, 3803, 17422, 12630, 62090}},
        {"perl", 64, {200000, 160231, 1050, 110944, 13475, 34762,
                      69824, 11913, 29207, 19065, 79371}},
        {"vortex", 64, {200000, 145568, 1371, 108847, 11683, 23667,
                        74161, 10650, 24036, 14215, 83949}},
        {"gcc", 64, {200000, 155063, 1572, 67337, 24202, 61952,
                     47668, 14, 19655, 13826, 47665}},
        {"compress", 64, {200000, 132195, 1007, 65104, 24931, 41153,
                          17137, 7270, 40697, 14036, 22852}},
    };
    for (const Row &row : rows) {
        RedundancyParams params;
        params.maxInsts = 200000;
        params.maxInstances = row.maxInstances;
        RedundancyStats st =
            analyzeRedundancy(makeWorkload(row.name).program, params);
        EXPECT_EQ(counters(st), row.expect)
            << row.name << " with " << row.maxInstances
            << "-instance buffers";
    }
}

TEST(Redundancy, FullOperandTableFreezesStoredResults)
{
    // Two-instance buffers. Per iteration, P loads an address from
    // the list A, B, C, A, A and L loads the word there; the words are
    // 7, 9 and 100, and the store in the first iteration turns the
    // word at A into 9. The 50 nops put P at least 50 instructions
    // ahead of L, so L's input is ready and only the operand buffer
    // decides whether it is reusable.
    Assembler a;
    a.dataLabel("wa");
    a.word(7);
    a.dataLabel("wb");
    a.word(9);
    a.word(0); // C - B != B - A: C is not a stride step
    a.dataLabel("wc");
    a.word(100);
    a.dataLabel("ptrs");
    for (const char *w : {"wa", "wb", "wc", "wa", "wa"})
        a.word(a.dataAddr(w));
    a.la(S0, "ptrs");
    a.la(S2, "wa");
    a.li(S3, 9);
    a.li(S1, 5);
    a.label("loop");
    a.lw(T1, S0, 0);   // P
    for (int i = 0; i < 50; ++i)
        a.nop();
    a.lw(T2, T1, 0);   // L
    a.sw(S3, S2, 0);
    a.addi(S0, S0, 4);
    a.addi(S1, S1, -1);
    a.bgtz(S1, "loop");
    a.halt();

    RedundancyParams params;
    params.maxInstances = 2;
    RedundancyStats st = analyzeRedundancy(a.finish(), params);

    // L reads 7 at A, 9 at B, then 100 at C: unique, unique, and
    // unaccounted (both buffers are full; 100 is not 9 + (9 - 7)).
    // Its operand buffer holds A -> 7 and B -> 9. The next two reads
    // at A return 9, a repeated result. A full buffer keeps A -> 7,
    // so both count as inputsDifferent and neither is reusable. A
    // buffer that still overwrote A would store A -> 9 and make the
    // second read reusable: inputsDifferent 3 and reusable 1 overall.
    // P returns A, B (unique), C (unaccounted), then A twice:
    // repeated, with unseen operands and a near producer (the
    // address increment three instructions back). The setup's four
    // li are unique; both increments are unique twice, then strided.
    EXPECT_EQ(st.totalDynamic, 4u + 5 * 56);
    EXPECT_EQ(st.resultProducing, 24u);
    EXPECT_EQ(st.unique, 12u);
    EXPECT_EQ(st.unaccounted, 2u);
    EXPECT_EQ(st.derivable, 6u);
    EXPECT_EQ(st.repeated, 4u);
    EXPECT_EQ(st.prodFar, 2u);  // L: P is 51 instructions ahead
    EXPECT_EQ(st.prodNear, 2u); // P
    EXPECT_EQ(st.inputsDifferent, 4u);
    EXPECT_EQ(st.reusable, 0u);
}
