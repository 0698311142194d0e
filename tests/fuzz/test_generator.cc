/**
 * @file
 * Generator unit tests: determinism, termination by construction and
 * full static Op coverage in every program.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/rng.hh"
#include "emu/executor.hh"
#include "fuzz/generator.hh"
#include "fuzz/program_io.hh"
#include "isa/instr.hh"

using namespace vpir;
using namespace vpir::fuzz;

TEST(FuzzGenerator, DeterministicForSeed)
{
    Program a = generateProgram(0x1234);
    Program b = generateProgram(0x1234);
    EXPECT_EQ(programToText(a), programToText(b));
}

TEST(FuzzGenerator, SeedsProduceDistinctPrograms)
{
    EXPECT_NE(programToText(generateProgram(1)),
              programToText(generateProgram(2)));
}

TEST(FuzzGenerator, EveryOpAppearsInEveryProgram)
{
    // The coverage block makes full static ISA coverage a structural
    // property, not a statistical one: any seed exercises the whole
    // assembler -> decode -> disasm surface.
    for (uint64_t seed : {0ull, 7ull, 0xdeadbeefull}) {
        Program p = generateProgram(seed);
        std::set<Op> seen;
        for (const Instr &i : p.text)
            seen.insert(i.op);
        for (int op = 0; op <= static_cast<int>(Op::HALT); ++op) {
            EXPECT_TRUE(seen.count(static_cast<Op>(op)))
                << "seed " << seed << " missing op "
                << opName(static_cast<Op>(op));
        }
    }
}

TEST(FuzzGenerator, ProgramsTerminate)
{
    for (uint64_t seed : {3ull, 0x5eedull, 0xffffffffull}) {
        Program p = generateProgram(seed);
        EmuState st;
        Emulator::loadProgram(p, st);
        Emulator emu(p, st);
        uint64_t steps = 0;
        const uint64_t cap = 2000000;
        while (!emu.halted() && steps < cap) {
            emu.step();
            st.retire(st.mark());
            ++steps;
        }
        EXPECT_TRUE(emu.halted())
            << "seed " << seed << " still running after " << cap
            << " steps";
    }
}
