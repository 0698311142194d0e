/** @file Unit tests for the S_{n+d} reuse buffer. */

#include <gtest/gtest.h>

#include "reuse/reuse_buffer.hh"

using namespace vpir;

namespace
{

RbParams
smallRb()
{
    return RbParams{64, 4};
}

Instr
addInstr()
{
    Instr i;
    i.op = Op::ADD;
    i.rd = 3;
    i.rs = 1;
    i.rt = 2;
    return i;
}

Instr
loadInstr()
{
    Instr i;
    i.op = Op::LW;
    i.rd = 3;
    i.rs = 1;
    i.imm = 0;
    return i;
}

RbInsertInfo
addInsert(Addr pc, uint64_t a, uint64_t b)
{
    RbInsertInfo info;
    info.pc = pc;
    info.inst = addInstr();
    info.srcReg[0] = 1;
    info.srcReg[1] = 2;
    info.srcVal[0] = a;
    info.srcVal[1] = b;
    info.result = (a + b) & 0xffffffff;
    return info;
}

RbInsertInfo
loadInsert(Addr pc, uint64_t base, uint64_t value)
{
    RbInsertInfo info;
    info.pc = pc;
    info.inst = loadInstr();
    info.srcReg[0] = 1;
    info.srcReg[1] = REG_INVALID;
    info.srcVal[0] = base;
    info.memAddr = static_cast<Addr>(base);
    info.memValue = value;
    info.result = value;
    return info;
}

/** Ready operand query with the given values. */
void
readyOps(RbOperandQuery q[2], uint64_t a, uint64_t b)
{
    q[0] = RbOperandQuery{};
    q[0].reg = 1;
    q[0].ready = true;
    q[0].value = a;
    q[1] = RbOperandQuery{};
    q[1].reg = 2;
    q[1].ready = true;
    q[1].value = b;
}

} // anonymous namespace

TEST(ReuseBuffer, MissOnEmpty)
{
    ReuseBuffer rb(smallRb());
    RbOperandQuery q[2];
    readyOps(q, 5, 7);
    EXPECT_FALSE(rb.probe(0x1000, addInstr(), q).resultReused);
}

TEST(ReuseBuffer, HitWithMatchingOperands)
{
    ReuseBuffer rb(smallRb());
    rb.insert(addInsert(0x1000, 5, 7));
    RbOperandQuery q[2];
    readyOps(q, 5, 7);
    RbProbeResult r = rb.probe(0x1000, addInstr(), q);
    EXPECT_TRUE(r.resultReused);
    EXPECT_EQ(r.result, 12u);
}

TEST(ReuseBuffer, MissWithDifferentOperands)
{
    ReuseBuffer rb(smallRb());
    rb.insert(addInsert(0x1000, 5, 7));
    RbOperandQuery q[2];
    readyOps(q, 5, 8);
    EXPECT_FALSE(rb.probe(0x1000, addInstr(), q).resultReused);
}

TEST(ReuseBuffer, MissWhenOperandNotReady)
{
    ReuseBuffer rb(smallRb());
    rb.insert(addInsert(0x1000, 5, 7));
    RbOperandQuery q[2];
    readyOps(q, 5, 7);
    q[1].ready = false; // paper §3.1: not ready -> not reused
    EXPECT_FALSE(rb.probe(0x1000, addInstr(), q).resultReused);
}

TEST(ReuseBuffer, MultipleInstancesPerPC)
{
    ReuseBuffer rb(smallRb());
    rb.insert(addInsert(0x1000, 1, 1));
    rb.insert(addInsert(0x1000, 2, 2));
    rb.insert(addInsert(0x1000, 3, 3));
    EXPECT_EQ(rb.instancesFor(0x1000), 3u);
    RbOperandQuery q[2];
    readyOps(q, 2, 2);
    RbProbeResult r = rb.probe(0x1000, addInstr(), q);
    ASSERT_TRUE(r.resultReused);
    EXPECT_EQ(r.result, 4u);
}

TEST(ReuseBuffer, RefreshDoesNotDuplicate)
{
    ReuseBuffer rb(smallRb());
    rb.insert(addInsert(0x1000, 1, 1));
    rb.insert(addInsert(0x1000, 1, 1));
    EXPECT_EQ(rb.instancesFor(0x1000), 1u);
}

TEST(ReuseBuffer, CapacityFourInstances)
{
    ReuseBuffer rb(smallRb());
    for (uint64_t v = 0; v < 6; ++v)
        rb.insert(addInsert(0x1000, v, v));
    EXPECT_EQ(rb.instancesFor(0x1000), 4u);
}

TEST(ReuseBuffer, LoadAddressAndResultReuse)
{
    ReuseBuffer rb(smallRb());
    rb.insert(loadInsert(0x2000, 0x5000, 77));
    RbOperandQuery q[2];
    q[0] = RbOperandQuery{};
    q[0].reg = 1;
    q[0].ready = true;
    q[0].value = 0x5000;
    q[1] = RbOperandQuery{};
    RbProbeResult r = rb.probe(0x2000, loadInstr(), q);
    EXPECT_TRUE(r.addrReused);
    EXPECT_TRUE(r.resultReused);
    EXPECT_EQ(r.memValue, 77u);
    EXPECT_EQ(r.memAddr, 0x5000u);
}

TEST(ReuseBuffer, StoreKillsLoadResultNotAddress)
{
    ReuseBuffer rb(smallRb());
    rb.insert(loadInsert(0x2000, 0x5000, 77));
    rb.storeInvalidate(0x5000, 4);
    RbOperandQuery q[2];
    q[0] = RbOperandQuery{};
    q[0].reg = 1;
    q[0].ready = true;
    q[0].value = 0x5000;
    q[1] = RbOperandQuery{};
    RbProbeResult r = rb.probe(0x2000, loadInstr(), q);
    EXPECT_TRUE(r.addrReused);     // address part survives
    EXPECT_FALSE(r.resultReused);  // result part invalidated
}

TEST(ReuseBuffer, StoreToOtherAddressLeavesLoadValid)
{
    ReuseBuffer rb(smallRb());
    rb.insert(loadInsert(0x2000, 0x5000, 77));
    rb.storeInvalidate(0x6000, 4);
    RbOperandQuery q[2];
    q[0] = RbOperandQuery{};
    q[0].reg = 1;
    q[0].ready = true;
    q[0].value = 0x5000;
    q[1] = RbOperandQuery{};
    EXPECT_TRUE(rb.probe(0x2000, loadInstr(), q).resultReused);
}

TEST(ReuseBuffer, PartialOverlapStoreInvalidates)
{
    ReuseBuffer rb(smallRb());
    rb.insert(loadInsert(0x2000, 0x5000, 77)); // 4-byte load
    rb.storeInvalidate(0x5002, 1);             // one byte inside
    RbOperandQuery q[2];
    q[0] = RbOperandQuery{};
    q[0].reg = 1;
    q[0].ready = true;
    q[0].value = 0x5000;
    q[1] = RbOperandQuery{};
    EXPECT_FALSE(rb.probe(0x2000, loadInstr(), q).resultReused);
}

TEST(ReuseBuffer, ReinsertRevalidatesLoad)
{
    ReuseBuffer rb(smallRb());
    rb.insert(loadInsert(0x2000, 0x5000, 77));
    rb.storeInvalidate(0x5000, 4);
    rb.insert(loadInsert(0x2000, 0x5000, 88)); // re-executed load
    RbOperandQuery q[2];
    q[0] = RbOperandQuery{};
    q[0].reg = 1;
    q[0].ready = true;
    q[0].value = 0x5000;
    q[1] = RbOperandQuery{};
    RbProbeResult r = rb.probe(0x2000, loadInstr(), q);
    EXPECT_TRUE(r.resultReused);
    EXPECT_EQ(r.memValue, 88u);
}

TEST(ReuseBuffer, ChainReuseThroughDependencePointer)
{
    ReuseBuffer rb(smallRb());
    // Producer: r3 = r1 + r2 with (5, 7) -> 12.
    RbRef prod = rb.insert(addInsert(0x1000, 5, 7));

    // Consumer: r4 = r3 + r2 with (12, 7), linked to the producer.
    Instr consumer;
    consumer.op = Op::ADD;
    consumer.rd = 4;
    consumer.rs = 3;
    consumer.rt = 2;
    RbInsertInfo info;
    info.pc = 0x1004;
    info.inst = consumer;
    info.srcReg[0] = 3;
    info.srcReg[1] = 2;
    info.srcVal[0] = 12;
    info.srcVal[1] = 7;
    info.result = 19;
    RbRef cons = rb.insert(info);
    RbRef links[2] = {prod, RbRef{}};
    rb.linkSources(cons, links);

    // Probe the consumer with operand r3 NOT ready, but its in-flight
    // producer reused from the linked entry: the chain collapses.
    RbOperandQuery q[2];
    q[0] = RbOperandQuery{};
    q[0].reg = 3;
    q[0].ready = false;
    q[0].value = 12;
    q[0].producerReuse = prod;
    q[1] = RbOperandQuery{};
    q[1].reg = 2;
    q[1].ready = true;
    q[1].value = 7;
    RbProbeResult r = rb.probe(0x1004, consumer, q);
    ASSERT_TRUE(r.resultReused);
    EXPECT_EQ(r.result, 19u);

    // A stale link (different serial) must not chain.
    q[0].producerReuse.serial += 1;
    EXPECT_FALSE(rb.probe(0x1004, consumer, q).resultReused);
}

TEST(ReuseBuffer, SquashedWorkRecoveryCreditOnce)
{
    ReuseBuffer rb(smallRb());
    RbRef ref = rb.insert(addInsert(0x1000, 5, 7));
    rb.markSquashed(ref);

    RbOperandQuery q[2];
    readyOps(q, 5, 7);
    RbProbeResult r = rb.probe(0x1000, addInstr(), q);
    ASSERT_TRUE(r.resultReused);
    EXPECT_TRUE(r.recoveredSquashedWork);
    rb.noteReused(r, addInstr());

    // Credit consumed: the next reuse of the same entry is ordinary.
    r = rb.probe(0x1000, addInstr(), q);
    ASSERT_TRUE(r.resultReused);
    EXPECT_FALSE(r.recoveredSquashedWork);
}

TEST(ReuseBuffer, BranchOutcomeReuse)
{
    ReuseBuffer rb(smallRb());
    Instr br;
    br.op = Op::BNE;
    br.rs = 1;
    br.rt = 2;
    br.target = 0x3000;
    RbInsertInfo info;
    info.pc = 0x1010;
    info.inst = br;
    info.srcReg[0] = 1;
    info.srcReg[1] = 2;
    info.srcVal[0] = 4;
    info.srcVal[1] = 9;
    info.taken = true;
    info.nextPC = 0x3000;
    rb.insert(info);

    RbOperandQuery q[2];
    readyOps(q, 4, 9);
    RbProbeResult r = rb.probe(0x1010, br, q);
    ASSERT_TRUE(r.resultReused);
    EXPECT_TRUE(r.taken);
    EXPECT_EQ(r.nextPC, 0x3000u);
}

TEST(ReuseBuffer, DifferentOpcodeSamePCMisses)
{
    ReuseBuffer rb(smallRb());
    rb.insert(addInsert(0x1000, 5, 7));
    Instr sub = addInstr();
    sub.op = Op::SUB;
    RbOperandQuery q[2];
    readyOps(q, 5, 7);
    EXPECT_FALSE(rb.probe(0x1000, sub, q).resultReused);
}

TEST(ReuseBuffer, ResetClears)
{
    ReuseBuffer rb(smallRb());
    rb.insert(addInsert(0x1000, 5, 7));
    rb.reset();
    RbOperandQuery q[2];
    readyOps(q, 5, 7);
    EXPECT_FALSE(rb.probe(0x1000, addInstr(), q).resultReused);
}

/** A reused or refreshed instance survives; the least recently used
 *  one is evicted. Probing alone does not count as a use. */
TEST(ReuseBuffer, EvictsLeastRecentlyUsedInstance)
{
    ReuseBuffer rb(smallRb());
    for (uint64_t v = 1; v <= 4; ++v)
        rb.insert(addInsert(0x1000, v, v));
    RbOperandQuery q[2];
    readyOps(q, 1, 1);
    RbProbeResult hit = rb.probe(0x1000, addInstr(), q);
    ASSERT_TRUE(hit.resultReused);
    rb.noteReused(hit, addInstr()); // reuse re-touches instance 1
    readyOps(q, 2, 2);
    ASSERT_TRUE(rb.probe(0x1000, addInstr(), q).resultReused);
    rb.insert(addInsert(0x1000, 5, 5)); // evicts 2, despite its probe
    rb.insert(addInsert(0x1000, 3, 3)); // refresh re-touches 3
    rb.insert(addInsert(0x1000, 6, 6)); // evicts 4
    EXPECT_EQ(rb.instancesFor(0x1000), 4u);
    for (uint64_t v = 1; v <= 6; ++v) {
        readyOps(q, v, v);
        EXPECT_EQ(rb.probe(0x1000, addInstr(), q).resultReused,
                  v != 2 && v != 4)
            << v;
    }
    EXPECT_EQ(rb.audit(), "");
}

/** Word spans wrap past the top of the 32-bit space, as EmuState's
 *  byte addressing does; no span loop may run away or miss the
 *  wrapped words. */
TEST(ReuseBuffer, SpanAtTopOfAddressSpaceTerminates)
{
    ReuseBuffer rb(smallRb());
    RbOperandQuery q[2];
    q[0] = RbOperandQuery{};
    q[0].reg = 1;
    q[0].ready = true;
    q[0].value = 0xfffffffc;
    q[1] = RbOperandQuery{};

    rb.insert(loadInsert(0x2000, 0xfffffffc, 77));
    EXPECT_EQ(rb.audit(), "");
    ASSERT_TRUE(rb.probe(0x2000, loadInstr(), q).resultReused);
    rb.storeInvalidate(0xfffffffc, 1); // byte store, top word
    EXPECT_FALSE(rb.probe(0x2000, loadInstr(), q).resultReused);

    rb.insert(loadInsert(0x2000, 0xfffffffc, 77)); // revalidate
    ASSERT_TRUE(rb.probe(0x2000, loadInstr(), q).resultReused);
    rb.storeInvalidate(0xfffffffb, 8); // bytes 0xfffffffb..0x2, wrapping
    EXPECT_FALSE(rb.probe(0x2000, loadInstr(), q).resultReused);
    EXPECT_EQ(rb.audit(), "");
}
