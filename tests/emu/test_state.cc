/** @file Unit tests for journaled architectural state. */

#include <gtest/gtest.h>

#include <array>
#include <map>
#include <vector>

#include "common/rng.hh"
#include "emu/state.hh"

using namespace vpir;

TEST(EmuState, R0IsHardwiredZero)
{
    EmuState s;
    s.writeReg(REG_ZERO, 99);
    EXPECT_EQ(s.readReg(REG_ZERO), 0u);
    EXPECT_EQ(s.journalDepth(), 0u); // write was dropped entirely
}

TEST(EmuState, RegisterReadWrite)
{
    EmuState s;
    s.writeReg(5, 1234);
    EXPECT_EQ(s.readReg(5), 1234u);
    s.writeReg(REG_HI, 7);
    EXPECT_EQ(s.readReg(REG_HI), 7u);
}

TEST(EmuState, MemoryLittleEndian)
{
    EmuState s;
    s.writeMem(0x1000, 4, 0x11223344);
    EXPECT_EQ(s.readMem(0x1000, 1), 0x44u);
    EXPECT_EQ(s.readMem(0x1001, 1), 0x33u);
    EXPECT_EQ(s.readMem(0x1000, 2), 0x3344u);
    EXPECT_EQ(s.readMem(0x1000, 4), 0x11223344u);
}

TEST(EmuState, UnmappedMemoryReadsZero)
{
    EmuState s;
    EXPECT_EQ(s.readMem(0xdead0000, 4), 0u);
}

TEST(EmuState, CrossPageAccess)
{
    EmuState s;
    // Write 8 bytes straddling a 4 KiB page boundary.
    s.writeMem(0x1ffc, 8, 0x0102030405060708ull);
    EXPECT_EQ(s.readMem(0x1ffc, 8), 0x0102030405060708ull);
    EXPECT_EQ(s.readMem(0x2000, 4), 0x01020304u);
}

TEST(EmuState, RollbackRestoresRegisters)
{
    EmuState s;
    s.writeReg(3, 10);
    JournalMark m = s.mark();
    s.writeReg(3, 20);
    s.writeReg(4, 30);
    s.rollback(m);
    EXPECT_EQ(s.readReg(3), 10u);
    EXPECT_EQ(s.readReg(4), 0u);
}

TEST(EmuState, RollbackRestoresMemory)
{
    EmuState s;
    s.writeMem(0x100, 4, 0xaaaa);
    JournalMark m = s.mark();
    s.writeMem(0x100, 4, 0xbbbb);
    s.writeMem(0x104, 2, 0x12);
    s.rollback(m);
    EXPECT_EQ(s.readMem(0x100, 4), 0xaaaau);
    EXPECT_EQ(s.readMem(0x104, 2), 0u);
}

TEST(EmuState, NestedRollbacks)
{
    EmuState s;
    s.writeReg(1, 1);
    JournalMark m1 = s.mark();
    s.writeReg(1, 2);
    JournalMark m2 = s.mark();
    s.writeReg(1, 3);
    s.rollback(m2);
    EXPECT_EQ(s.readReg(1), 2u);
    s.rollback(m1);
    EXPECT_EQ(s.readReg(1), 1u);
}

TEST(EmuState, RetireBoundsJournal)
{
    EmuState s;
    for (int i = 0; i < 100; ++i)
        s.writeReg(2, static_cast<uint64_t>(i));
    EXPECT_EQ(s.journalDepth(), 100u);
    s.retire(s.mark());
    EXPECT_EQ(s.journalDepth(), 0u);
    // State unaffected by retirement.
    EXPECT_EQ(s.readReg(2), 99u);
}

TEST(EmuState, RollbackAfterPartialRetire)
{
    EmuState s;
    s.writeReg(1, 1);
    s.retire(s.mark());
    JournalMark m = s.mark();
    s.writeReg(1, 2);
    s.rollback(m);
    EXPECT_EQ(s.readReg(1), 1u);
}

TEST(EmuState, InitWritesAreNotJournaled)
{
    EmuState s;
    s.initReg(7, 42);
    s.initMem(0x10, 4, 77);
    EXPECT_EQ(s.journalDepth(), 0u);
    EXPECT_EQ(s.readReg(7), 42u);
    EXPECT_EQ(s.readMem(0x10, 4), 77u);
}

TEST(EmuState, AccessesAcrossLeafAndAddressSpaceEnd)
{
    // A page-table leaf covers 4 MiB. 0x003ffffc + 8 straddles the
    // first and second leaves; 0xfffffffc + 8 wraps to address 0.
    EmuState s;
    s.writeMem(0x003ffffc, 8, 0x0102030405060708ull);
    s.writeMem(0xfffffffc, 8, 0x1112131415161718ull);
    s.retire(s.mark());
    EXPECT_EQ(s.readMem(0x003ffffc, 8), 0x0102030405060708ull);
    EXPECT_EQ(s.readMem(0x00400000, 4), 0x01020304u);
    EXPECT_EQ(s.readMem(0xfffffffc, 8), 0x1112131415161718ull);
    EXPECT_EQ(s.readMem(0x00000000, 4), 0x11121314u);
    ASSERT_EQ(s.residentPages(), 4u);

    JournalMark m = s.mark();
    s.writeMem(0x003ffffc, 8, ~0ull);
    s.writeMem(0xfffffffc, 8, ~0ull);
    EXPECT_EQ(s.readMem(0x00000000, 4), 0xffffffffu);
    s.rollback(m);
    EXPECT_EQ(s.readMem(0x003ffffc, 8), 0x0102030405060708ull);
    EXPECT_EQ(s.readMem(0xfffffffc, 8), 0x1112131415161718ull);

    // A region never written reads as zero without allocating.
    EXPECT_EQ(s.readMem(0x80000000, 8), 0u);
    EXPECT_EQ(s.residentPages(), 4u);

    // A clone shares the pages of every leaf, and a write inside one
    // page faults that page alone.
    EmuState clone = s;
    EXPECT_EQ(clone.residentPages(), 4u);
    EXPECT_EQ(clone.sharedPages(), 4u);
    clone.writeMem(0x00400000, 4, 0xdeadbeef);
    EXPECT_EQ(clone.cowFaults() - s.cowFaults(), 1u);
    EXPECT_EQ(clone.sharedPages(), 3u);
    EXPECT_EQ(s.sharedPages(), 3u);
    EXPECT_EQ(s.readMem(0x00400000, 4), 0x01020304u);
    EXPECT_EQ(clone.readMem(0xfffffffc, 8), 0x1112131415161718ull);
}

// ----------------------------------------------------- copy-on-write

TEST(EmuStateCow, CloneSharesAllPages)
{
    EmuState s;
    s.writeMem(0x1000, 4, 0xaabbccdd);
    s.writeMem(0x5000, 4, 0x11223344);
    s.retire(s.mark());
    ASSERT_EQ(s.residentPages(), 2u);
    EXPECT_EQ(s.sharedPages(), 0u);

    EmuState clone = s;
    // A clone is pointer copies, not data copies: every page shared.
    EXPECT_EQ(clone.residentPages(), 2u);
    EXPECT_EQ(s.sharedPages(), 2u);
    EXPECT_EQ(clone.sharedPages(), 2u);
    EXPECT_EQ(clone.readMem(0x1000, 4), 0xaabbccddu);
    EXPECT_EQ(clone.readMem(0x5000, 4), 0x11223344u);
    EXPECT_EQ(clone.cowFaults(), 0u);
}

TEST(EmuStateCow, WriteFaultsAPrivatePage)
{
    EmuState s;
    s.writeMem(0x1000, 4, 0xaabbccdd);
    s.writeMem(0x5000, 4, 0x11223344);
    s.retire(s.mark());

    EmuState clone = s;
    clone.writeMem(0x1000, 4, 0xdeadbeef);
    // Exactly the written page was cloned; the other stays shared.
    EXPECT_EQ(clone.cowFaults(), 1u);
    EXPECT_EQ(clone.sharedPages(), 1u);
    EXPECT_EQ(s.sharedPages(), 1u);
    EXPECT_EQ(clone.readMem(0x1000, 4), 0xdeadbeefu);
    EXPECT_EQ(s.readMem(0x1000, 4), 0xaabbccddu); // original untouched
    // Writing the same page again must not fault a second time.
    clone.writeMem(0x1004, 4, 1);
    EXPECT_EQ(clone.cowFaults(), 1u);
}

TEST(EmuStateCow, ReadsNeverFault)
{
    EmuState s;
    s.writeMem(0x1000, 4, 42);
    s.retire(s.mark());
    EmuState clone = s;
    EXPECT_EQ(clone.readMem(0x1000, 4), 42u);
    EXPECT_EQ(clone.readMem(0x1ffc, 4), 0u); // same page, zero bytes
    EXPECT_EQ(clone.cowFaults(), 0u);
    EXPECT_EQ(s.sharedPages(), 1u);
}

TEST(EmuStateCow, JournalRollbackAcrossClone)
{
    // The journal must behave identically on a COW clone: speculative
    // writes fault private pages, rollback restores the clone to the
    // snapshot values, and the original never observes any of it.
    EmuState s;
    s.writeReg(5, 77);
    s.writeMem(0x2000, 4, 0x1111);
    s.retire(s.mark());

    EmuState clone = s;
    JournalMark m = clone.mark();
    clone.writeReg(5, 88);
    clone.writeMem(0x2000, 4, 0x2222);
    clone.writeMem(0x9000, 4, 0x3333); // page the original never had
    EXPECT_EQ(s.readMem(0x2000, 4), 0x1111u);
    clone.rollback(m);
    EXPECT_EQ(clone.readReg(5), 77u);
    EXPECT_EQ(clone.readMem(0x2000, 4), 0x1111u);
    EXPECT_EQ(clone.readMem(0x9000, 4), 0u);
    EXPECT_EQ(s.readReg(5), 77u);
    EXPECT_EQ(s.readMem(0x2000, 4), 0x1111u);
}

/**
 * Property test: against a reference model, random interleavings of
 * writes, rollbacks, and retires always restore the exact state.
 */
TEST(EmuState, RandomisedJournalEquivalence)
{
    EmuState s;
    Rng rng(2024);

    struct Shadow
    {
        std::map<RegId, uint64_t> regs;
        std::map<Addr, uint8_t> mem;
    };
    Shadow cur;
    std::vector<std::pair<JournalMark, Shadow>> snaps;

    for (int step = 0; step < 3000; ++step) {
        uint64_t r = rng.below(100);
        if (r < 40) {
            RegId reg = static_cast<RegId>(1 + rng.below(30));
            uint64_t v = rng.next();
            s.writeReg(reg, v);
            cur.regs[reg] = v;
        } else if (r < 80) {
            Addr a = static_cast<Addr>(0x4000 + rng.below(256) * 4);
            uint32_t v = static_cast<uint32_t>(rng.next());
            s.writeMem(a, 4, v);
            for (int b = 0; b < 4; ++b)
                cur.mem[a + b] = static_cast<uint8_t>(v >> (8 * b));
        } else if (r < 90) {
            snaps.emplace_back(s.mark(), cur);
        } else if (!snaps.empty()) {
            size_t k = rng.below(snaps.size());
            s.rollback(snaps[k].first);
            cur = snaps[k].second;
            snaps.resize(k + 1);
        }
    }

    for (const auto &[reg, v] : cur.regs)
        ASSERT_EQ(s.readReg(reg), v);
    for (const auto &[a, v] : cur.mem)
        ASSERT_EQ(s.readMem(a, 1), v);
}

/**
 * Property test for the journal's storage: random runs of register
 * and memory writes, partial retires and partial rollbacks, many of
 * them retiring past the point where the retired prefix outgrows the
 * live records and gets compacted away. After every operation the
 * state, mark() and journalDepth() must equal a reference that keeps
 * the retired state plus the list of live writes and replays them.
 */
TEST(EmuState, JournalCompactionMatchesReferenceReplay)
{
    struct Write
    {
        bool isReg;
        RegId reg;
        Addr addr;
        unsigned size;
        uint64_t value;
    };
    struct Ref
    {
        std::array<uint64_t, NUM_ARCH_REGS> regs{};
        std::map<Addr, uint8_t> mem;

        void
        apply(const Write &w)
        {
            if (w.isReg) {
                regs[w.reg] = w.value;
                return;
            }
            for (unsigned b = 0; b < w.size; ++b)
                mem[w.addr + b] = static_cast<uint8_t>(w.value >> (8 * b));
        }
    };

    EmuState s;
    Rng rng(17);
    Ref retired;              // state at the retire point
    std::vector<Write> live;  // journaled writes since then, in order
    JournalMark base = s.mark();
    int writes = 0;
    int retires_leaving_live = 0;
    for (int step = 0; step < 8000; ++step) {
        uint64_t r = rng.below(100);
        if (r < 70) {
            Write w{};
            w.value = rng.next();
            if (rng.below(2)) {
                w.isReg = true;
                w.reg = static_cast<RegId>(1 + rng.below(NUM_ARCH_REGS - 1));
                s.writeReg(w.reg, w.value);
            } else {
                static const unsigned sizes[] = {1, 2, 4, 8};
                w.size = sizes[rng.below(4)];
                // 64 bytes straddling a page boundary.
                w.addr = static_cast<Addr>(0x4fe0 + rng.below(64));
                s.writeMem(w.addr, w.size, w.value);
                if (w.size < 8)
                    w.value &= (uint64_t{1} << (8 * w.size)) - 1;
            }
            live.push_back(w);
            ++writes;
        } else if (r < 85) {
            size_t n = rng.below(live.size() + 1);
            s.retire(base + n);
            for (size_t i = 0; i < n; ++i)
                retired.apply(live[i]);
            live.erase(live.begin(),
                       live.begin() + static_cast<std::ptrdiff_t>(n));
            base += n;
            retires_leaving_live += n > 0 && !live.empty();
        } else {
            size_t n = rng.below(live.size() + 1);
            s.rollback(base + n);
            live.resize(n);
        }

        ASSERT_EQ(s.mark(), base + live.size()) << "step " << step;
        ASSERT_EQ(s.journalDepth(), live.size()) << "step " << step;
        Ref expect = retired;
        for (const Write &w : live)
            expect.apply(w);
        for (RegId g = 1; g < NUM_ARCH_REGS; ++g)
            ASSERT_EQ(s.readReg(g), expect.regs[g])
                << "step " << step << " reg " << unsigned(g);
        for (Addr a = 0x4fe0; a < 0x4fe0 + 64 + 7; ++a) {
            auto it = expect.mem.find(a);
            ASSERT_EQ(s.readMem(a, 1), it == expect.mem.end() ? 0 : it->second)
                << "step " << step << " addr " << a;
        }
    }
    EXPECT_GE(writes, 5000);
    EXPECT_GT(retires_leaving_live, 100);
}
