#include "core/core.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <sstream>

#include "common/env.hh"
#include "common/logging.hh"
#include "isa/disasm.hh"

namespace vpir
{

namespace
{

/** Completion-wheel span for @p p: a power of two longer than the
 *  longest delay the core schedules an event ahead. That is the
 *  slowest operation or a load (AGEN, then a D-cache hit plus a
 *  miss), plus the VP verification delay; a finalize recheck waits
 *  at most the verification delay. */
uint64_t
wheelSpan(const CoreParams &p)
{
    uint64_t load = 1 + uint64_t{p.dcache.hitLatency} + p.dcache.missLatency;
    return std::bit_ceil(std::max<uint64_t>(maxOpLat, load) +
                         p.vpVerifyLatency + 1);
}

} // anonymous namespace

Core::Core(const CoreParams &p, const Program &program,
           const EmuSnapshot *warm)
    : params(p),
      prog(program),
      emu(program, state),
      icache(p.icache),
      dcache(p.dcache),
      bpred(p.bpred),
      injector(p.faults),
      wheel(wheelSpan(p)),
      rob(p.robEntries),
      robCold(p.robEntries),
      bpCps(p.robEntries),
      fetchQueue(p.fetchQueueSize),
      fetchCps(p.fetchQueueSize),
      storeQ(p.lsqEntries),
      fetchPC(program.entry),
      done(p.maxInsts == 0 || p.maxCycles == 0)
{
    if (p.technique == Technique::VP || p.technique == Technique::Hybrid) {
        vptResult.emplace(p.vpt);
        vptAddr.emplace(p.vpt);
    }
    if (p.technique == Technique::IR || p.technique == Technique::Hybrid)
        rb.emplace(p.rb);
    for (auto &r : regProducer)
        r = RobRef{};
    auditClobberCycle = parseEnvU64("VPIR_TEST_AUDIT_CLOBBER", UINT64_MAX);
    readySet.reset(p.robEntries);
    ctrlSet.reset(p.robEntries);
    finalCand.reset(p.robEntries);
    waiters.nodes.assign(2 * p.robEntries, OpWaiter{});
    finWaiters.nodes.assign(2 * p.robEntries, OpWaiter{});
    schedScratch.reserve(p.robEntries);
    dueScratch.reserve(p.robEntries);

    // Start state: the shared post-warmup snapshot when given, else a
    // private one built the same way (paper §4.1.5: the first
    // warmupInsts instructions run on the emulator alone). The core
    // and its checker clone it: the clone copies the page-table
    // leaves' pointers and writes fault private pages (see
    // emu/state.hh).
    EmuSnapshot cold;
    if (!warm) {
        cold = makeWarmSnapshot(program, p.warmupInsts);
        warm = &cold;
    }
    VPIR_ASSERT(warm->warmupInsts == p.warmupInsts,
                "warm snapshot built for a different warmup length");
    state = warm->state;
    fetchPC = warm->pc;
    if (warm->halted)
        warn("warmup consumed the whole program");
    if (p.checkRetire)
        checker = std::make_unique<LockstepChecker>(program, *warm);
}

// ------------------------------------------------------------ helpers

bool
Core::refAlive(const RobRef &r) const
{
    return r.valid() && rob[r.slot].valid && rob[r.slot].seq == r.seq;
}

int
Core::allocRob()
{
    if (robUsed == params.robEntries)
        return -1;
    int slot = robTail;
    robTail = nextSlot(robTail);
    ++robUsed;
    return slot;
}

uint64_t
Core::entryValueFor(const RobEntry &e, RegId reg) const
{
    RegId rd2 = e.si->inst.rd2;
    if (rd2 != REG_INVALID && reg == rd2)
        return e.curResult2;
    return e.curResult;
}

bool
Core::entryValueAvail(const RobEntry &e, RegId reg, uint64_t t) const
{
    RegId rd2 = e.si->inst.rd2;
    if (rd2 != REG_INVALID && reg == rd2)
        return e.curResult2Valid && e.readyTime <= t;
    return e.hasValue && e.readyTime <= t;
}

Core::OperandView
Core::operandView(int slot, int k, uint64_t t) const
{
    const RobEntry &e = at(slot);
    OperandView v;
    if (e.srcReg[k] == REG_INVALID) {
        v.avail = true;
        v.final = true;
        v.value = 0;
        return v;
    }
    const RobRef &ref = e.srcRob[k];
    if (!refAlive(ref)) {
        // Producer committed (or value was architectural at dispatch):
        // the value is final and equals the oracle operand.
        v.avail = true;
        v.final = true;
        v.value = e.oracleSrc[k];
        return v;
    }
    const RobEntry &p = at(ref.slot);
    v.avail = entryValueAvail(p, e.srcReg[k], t);
    v.value = entryValueFor(p, e.srcReg[k]);
    v.final = v.avail && p.finalized && p.finalizeAt <= t;
    // Idle-skip bound: the only way this view changes without an
    // event is the producer's verification delay elapsing.
    if (v.avail && p.finalized && p.finalizeAt > t)
        noteWake(p.finalizeAt);
    return v;
}

void
Core::noteStoreAddrReady()
{
    while (storeAddrPrefix < storeQ.size()) {
        const RobRef &r = storeQ[storeAddrPrefix];
        if (!refAlive(r) || !at(r.slot).storeAddrReady)
            break;
        ++storeAddrPrefix;
    }
}

uint64_t
Core::oldestUnknownStoreSeq() const
{
    return storeAddrPrefix < storeQ.size() ? storeQ[storeAddrPrefix].seq
                                           : UINT64_MAX;
}

unsigned
Core::unresolvedBranches() const
{
    return robUnresolvedCtrl + fqResolvable;
}

// -------------------------------------------------------------- fetch

void
Core::fetchStage()
{
    if (done || fetchHalted || curCycle < fetchResumeCycle ||
        icacheStallUntil > curCycle) {
        // Time-gated stalls bound the idle skip; the other gates only
        // clear on events (a squash) that are activity in their own
        // cycle.
        if (!done && !fetchHalted) {
            if (curCycle < fetchResumeCycle)
                noteWake(fetchResumeCycle);
            else
                noteWake(icacheStallUntil);
        }
        return;
    }

    unsigned budget = params.fetchWidth;
    bool first = true;
    Addr line_pc = fetchPC;

    while (budget > 0 && fetchQueue.size() < params.fetchQueueSize) {
        const StaticInst *si = emu.staticAt(fetchPC);
        if (!si) {
            fetchHalted = true; // off the text segment; wait for squash
            cycleHadWork = true;
            break;
        }
        if (!icache.sameLine(fetchPC, line_pc))
            break; // cannot fetch across a cache line boundary

        if (first) {
            unsigned lat = icache.access(fetchPC);
            cycleHadWork = true; // cache state/stats advanced
            if (lat > params.icache.hitLatency) {
                icacheStallUntil = curCycle + lat;
                return;
            }
            first = false;
        }

        FetchedInst f;
        f.si = si;
        f.pc = fetchPC;

        if (si->isHalt) {
            f.predNextPC = fetchPC; // fetch stops here
            fetchQueue.push_back(f);
            fetchHalted = true;
            break;
        }

        bool taken_stop = false;
        if (si->isCtrl) {
            if (si->resolvable &&
                unresolvedBranches() >= params.maxUnresolvedBranches) {
                break; // Table 1: max 8 unresolved branches
            }
            fetchCps.push_back(bpred.checkpoint());
            BpredLookup look = bpred.predict(fetchPC, si->inst);
            f.predTaken = look.predTaken;
            f.ghrUsed = look.ghrUsed;
            f.fromRas = look.fromRas;
            f.predNextPC = look.predTaken ? look.predTarget
                                          : fetchPC + 4;
            taken_stop = look.predTaken; // one taken branch per cycle
        } else {
            f.predNextPC = fetchPC + 4;
        }

        fetchQueue.push_back(f);
        fqResolvable += si->resolvable;
        fetchPC = f.predNextPC;
        --budget;
        if (taken_stop)
            break;
    }
}

// ----------------------------------------------------------- dispatch

void
Core::tryDispatchPredict(int slot)
{
    RobEntry &e = at(slot);
    RobCold &c = coldAt(slot);
    const StaticInst &si = *e.si;

    if (params.vpPredictResults && producesResult(si.inst) &&
        !si.isSt && si.inst.rd != REG_INVALID) {
        c.madePred = vptResult->predict(c.exec.pc, c.exec.out.result);
        // Injected VPT faults: corrupt the predicted value and/or flip
        // the confidence gate. Both must be absorbed by the normal
        // late-validation path (squash + re-execute), never escaping
        // to architectural state.
        if (c.madePred.valid && injector.fireVptValue())
            c.madePred.value = injector.corrupt(c.madePred.value);
        if (injector.fireVptConf())
            c.madePred.valid = !c.madePred.valid;
        if (c.madePred.valid) {
            e.predicted = true;
            c.predValue = c.madePred.value;
            e.curResult = c.madePred.value;
            e.hasValue = true;
            e.readyTime = curCycle;
        }
    }
    // Hybrid: a load that already reused its address carries a
    // *validated* address; overwriting it with a VPT guess would both
    // degrade it to a speculation and (before the addr-stale re-issue
    // existed) silently time the cache access at the wrong line.
    if (params.vpPredictAddresses && (si.isLd || si.isSt) &&
        !e.addrReused) {
        c.madeAddrPred = vptAddr->predict(c.exec.pc, c.exec.out.memAddr);
        if (c.madeAddrPred.valid && injector.fireVptValue())
            c.madeAddrPred.value = injector.corrupt(c.madeAddrPred.value);
        if (c.madeAddrPred.valid) {
            e.addrPredicted = true;
            c.addrPredValue = c.madeAddrPred.value;
            if (si.isLd) {
                // Loads may access the cache with the predicted
                // (speculative) address without waiting for the base
                // register. Store address predictions are recorded
                // (Table 3) but not used for disambiguation.
                e.curMemAddr = static_cast<Addr>(c.madeAddrPred.value);
                e.memAddrKnown = true;
            }
        }
    }
}

void
Core::tryDispatchReuse(int slot)
{
    RobEntry &e = at(slot);
    RobCold &c = coldAt(slot);
    const StaticInst &si = *e.si;
    const ExecResult &er = c.exec;
    if (si.di.cls == InstClass::Nop || si.isHalt)
        return;

    // Build the operand queries for the reuse test: current
    // architectural values (oracle for this path) plus decode-time
    // availability and producer reuse chaining information.
    RbOperandQuery q[2];
    for (int k = 0; k < 2; ++k) {
        q[k].reg = e.srcReg[k];
        q[k].value = er.srcVals[k];
        if (q[k].reg == REG_INVALID)
            continue;
        const RobRef &ref = e.srcRob[k];
        if (!refAlive(ref)) {
            q[k].ready = true;
        } else {
            const RobEntry &p = at(ref.slot);
            q[k].ready = entryValueAvail(p, q[k].reg, curCycle) &&
                         p.finalized;
            // Chains probe through reused producers; in late mode the
            // hit set must match early mode (only validation timing
            // differs), so late-reused producers chain as well.
            if (p.reused || p.reusedLate)
                q[k].producerReuse = coldAt(ref.slot).rbEntry;
        }
    }

    RbProbeResult hit = rb->probe(er.pc, si.inst, q);
    if (!hit.entry.valid())
        return;

    bool result_ok = hit.resultReused;

    if (si.isLd && result_ok) {
        // Precision check standing in for exact invalidation: the
        // stored value must still be what memory holds for this path.
        // With the oracle cross-check disabled the core trusts the
        // RB's own address-range invalidation, like real hardware; an
        // escape is then the retire checker's to catch.
        if (params.irOracleCheck && hit.memValue != er.out.result)
            result_ok = false;
        // Non-speculative gate: all older stores must have known,
        // non-overlapping addresses (Table 1's conservative loads).
        // Readiness is O(1) against the store-address watermark; the
        // overlap walk only runs once every address is known, and
        // only visits stores.
        if (result_ok && oldestUnknownStoreSeq() < e.seq)
            result_ok = false;
        if (result_ok) {
            Addr lo = er.out.memAddr;
            for (const RobRef &ref : storeQ) {
                if (ref.seq >= e.seq)
                    break;
                const RobEntry &s = at(ref.slot);
                Addr s_lo = s.curMemAddr;
                if (lo < s_lo + s.si->memSz && s_lo < lo + si.memSz) {
                    result_ok = false;
                    break;
                }
            }
        }
    }

    if (result_ok && params.irValidation == IrValidation::Late) {
        // Figure 3 "late": the hit behaves as a correct value
        // prediction — the value flows at decode but the instruction
        // still executes, uses resources, and resolves at execute.
        e.reusedLate = true;
        if (producesResult(si.inst) && si.inst.rd != REG_INVALID &&
            !si.isSt) {
            e.predicted = true;
            c.predValue = er.out.result;
            e.curResult = c.predValue;
            e.hasValue = true;
            e.readyTime = curCycle;
        }
        if (hit.recoveredSquashedWork)
            ++st.squashedRecovered;
        rb->noteReused(hit, si.inst);
        c.rbEntry = hit.entry;
        return;
    }

    if (result_ok) {
        e.reused = true;
        e.needsExec = false;
        c.rbEntry = hit.entry;
        e.curResult = producesResult(si.inst)
                          ? (si.isLd ? hit.memValue : hit.result)
                          : 0;
        e.curResult2 = hit.result2;
        e.curResult2Valid = true;
        c.curTaken = er.out.taken;
        c.curNextPC = er.out.nextPC;
        e.hasValue = producesResult(si.inst);
        e.readyTime = curCycle;
        e.finalized = true;
        e.finalizeAt = curCycle;
        if (si.isLd) {
            e.curMemAddr = er.out.memAddr;
            e.memAddrKnown = true;
        }
        if (hit.recoveredSquashedWork)
            ++st.squashedRecovered;
        rb->noteReused(hit, si.inst);
        if (params.irOracleCheck) {
            VPIR_ASSERT(!producesResult(si.inst) ||
                            e.curResult == er.out.result,
                        "reuse delivered a wrong value");
        }
        return;
    }

    if (hit.addrReused && (si.isLd || si.isSt)) {
        if (params.irOracleCheck) {
            VPIR_ASSERT(hit.memAddr == er.out.memAddr,
                        "address reuse delivered a wrong address");
        }
        e.addrReused = true;
        e.curMemAddr = hit.memAddr;
        e.memAddrKnown = true;
        if (si.isSt) {
            e.storeAddrReady = true; // unblocks younger loads early
            noteStoreAddrReady();
        }
        rb->noteReused(hit, si.inst);
        if (hit.recoveredSquashedWork)
            ++st.squashedRecovered;
    }
}

namespace
{

/** A freshly dispatched slot's two records, copied over it whole. */
constexpr RobEntry freshEntry{};
constexpr RobCold freshCold{};

} // anonymous namespace

void
Core::dispatchStage()
{
    unsigned dispatched = 0;
    while (dispatched < params.dispatchWidth && !fetchQueue.empty()) {
        const FetchedInst &f = fetchQueue.front();
        const StaticInst &si = *f.si;
        bool is_mem = si.isLd || si.isSt;
        if (is_mem && lsqUsed >= params.lsqEntries)
            break;
        int slot = allocRob();
        if (slot < 0)
            break;

        RobEntry &e = at(slot);
        RobCold &c = coldAt(slot);
        // memcpy, not assignment: GCC lowers an assignment from these
        // images to a rep stos whose start-up costs more than the copy.
        std::memcpy(&e, &freshEntry, sizeof e);
        std::memcpy(&c, &freshCold, sizeof c);
        emu.stepAt(f.pc, c.exec);
        const ExecResult &er = c.exec;
        e.valid = true;
        e.seq = nextSeq++;
        e.si = f.si;
        e.dispatchCycle = curCycle;
        e.oracleSrc[0] = er.srcVals[0];
        e.oracleSrc[1] = er.srcVals[1];
        e.oracleAddr = er.out.memAddr;
        c.postMark = state.mark();
        c.predTaken = f.predTaken;
        c.predNextPC = f.predNextPC;
        c.followedNextPC = f.predNextPC;
        c.ghrUsed = f.ghrUsed;
        c.fromRas = f.fromRas;
        if (si.isCtrl) {
            bpCps[slot] = fetchCps.front();
            fetchCps.pop_front();
        }

        // Rename sources against in-flight producers.
        for (int k = 0; k < 2; ++k) {
            RegId r = si.src[k];
            e.srcReg[k] = r;
            if (r != REG_INVALID && refAlive(regProducer[r]))
                e.srcRob[k] = regProducer[r];
        }

        bool no_exec = si.di.cls == InstClass::Nop || si.isHalt;
        if (no_exec) {
            e.needsExec = false;
            e.finalized = true;
            e.finalizeAt = curCycle;
        }

        lsqUsed += is_mem;
        // Stores also enter the disambiguation queue; appending an
        // address-unknown store keeps the watermark invariant (it sits
        // at or beyond storeAddrPrefix).
        if (si.isSt)
            storeQ.push_back(RobRef{slot, e.seq});

        // The non-speculative reuse test first; hybrid falls back to
        // a value prediction when the result was not reused (the
        // redundancy VP can capture but IR's operand test cannot).
        if (!no_exec && rb)
            tryDispatchReuse(slot);
        if (!no_exec && vptResult && !e.reused)
            tryDispatchPredict(slot);

        // Claim destinations after the reuse probe (which must see the
        // *previous* producers of our destination registers).
        for (RegId r : si.dst) {
            if (r != REG_INVALID)
                regProducer[r] = RobRef{slot, e.seq};
        }

        schedOnDispatch(slot);
        fqResolvable -= si.resolvable;
        fetchQueue.pop_front();
        ++dispatched;
        cycleHadWork = true;

        // A reused control instruction resolves at decode: resolution
        // latency zero, and an immediate redirect on a bpred miss.
        if (e.reused && si.isCtrl) {
            bool redirect = c.curNextPC != c.followedNextPC;
            doResolve(slot, c.curNextPC, true);
            if (redirect)
                break; // fetch queue flushed
        }
    }
}

// ----------------------------------------- incremental scheduling

void
Core::linkWaiter(WaitList &list, int cslot, int k, int pslot)
{
    int id = cslot * 2 + k;
    OpWaiter &w = list[id];
    VPIR_ASSERT(w.prodSlot < 0, "re-linking a linked waiter node");
    w.prodSlot = pslot;
    w.prev = -1;
    w.next = at(pslot).*list.head;
    if (w.next >= 0)
        list[w.next].prev = id;
    at(pslot).*list.head = id;
}

void
Core::unlinkWaiter(WaitList &list, int cslot, int k)
{
    int id = cslot * 2 + k;
    OpWaiter &w = list[id];
    if (w.prodSlot < 0)
        return;
    if (w.prev >= 0)
        list[w.prev].next = w.next;
    else
        at(w.prodSlot).*list.head = w.next;
    if (w.next >= 0)
        list[w.next].prev = w.prev;
    w = OpWaiter{};
}

void
Core::wakeWaiters(int prodSlot)
{
    const RobEntry &p = at(prodSlot);
    int id = p.waiterHead;
    while (id >= 0) {
        int next = waiters[id].next;
        int cslot = id / 2;
        int k = id % 2;
        RobEntry &c = at(cslot);
        if (entryValueAvail(p, c.srcReg[k], curCycle)) {
            OpWaiter &w = waiters[id];
            if (!w.availSeen) {
                // First availability: monotone per ROB incarnation,
                // so pendingOps decrements for good. The link stays —
                // later publications of a *different* value must
                // re-wake the consumer for re-execution.
                w.availSeen = true;
                if (--c.pendingOps == 0)
                    readySet.insert(cslot);
            } else if (c.executedOnce
                           ? entryValueFor(p, c.srcReg[k]) !=
                                 c.usedVals[k]
                           : c.pendingOps == 0) {
                // Re-publication of an already-available operand: the
                // consumer is an issue candidate again, but only when
                // this publication actually changed the value it last
                // consumed (the issue scan's changed test is exactly
                // per-operand value-vs-used). A not-yet-executed
                // consumer is already a member whenever its operands
                // are all available.
                readySet.insert(cslot);
            }
        }
        id = next;
    }
}

void
Core::scheduleRefinal(int slot, uint64_t at_cycle)
{
    WheelEvent ev;
    ev.at = at_cycle;
    ev.seq = at(slot).seq;
    ev.slot = slot;
    ev.kind = WheelEvent::Kind::Refinal;
    wheel.schedule(ev, curCycle);
}

void
Core::noteResolvedForFetch(int slot)
{
    RobCold &c = coldAt(slot);
    if (at(slot).si->resolvable && !c.resolvedForFetch) {
        VPIR_ASSERT(robUnresolvedCtrl > 0,
                    "unresolved-control counter underflow");
        --robUnresolvedCtrl;
    }
    c.resolvedForFetch = true;
}

void
Core::schedOnDispatch(int slot)
{
    RobEntry &e = at(slot);
    // Slot reuse: any residue from the previous occupant is a bug in
    // the unlink discipline, but clearing is O(1) and keeps a
    // dangling node from corrupting a live producer's list.
    for (int k = 0; k < 2; ++k) {
        unlinkWaiter(waiters, slot, k);
        unlinkWaiter(finWaiters, slot, k);
    }

    if (e.si->resolvable) {
        ++robUnresolvedCtrl;
        if (!coldAt(slot).finalActionDone)
            ctrlSet.insert(slot);
    }
    if (!e.needsExec)
        return; // reused/nop/halt: never issues
    e.pendingOps = 0;
    for (int k = 0; k < 2; ++k) {
        if (e.srcReg[k] == REG_INVALID || !refAlive(e.srcRob[k]))
            continue;
        // Link every live-producer operand, available or not: the
        // link is the re-publication wake channel that lets the issue
        // scan drop quiescent entries from the ready set.
        const RobEntry &p = at(e.srcRob[k].slot);
        bool avail = entryValueAvail(p, e.srcReg[k], curCycle);
        linkWaiter(waiters, slot, k, e.srcRob[k].slot);
        waiters[slot * 2 + k].availSeen = avail;
        if (!avail)
            ++e.pendingOps;
    }
    bool addr_ready_load =
        e.si->isLd && e.memAddrKnown && (e.addrReused || e.addrPredicted);
    if (e.pendingOps == 0 || addr_ready_load)
        readySet.insert(slot);
}

void
Core::collectInOrder(const SlotSet &s, std::vector<int> &out) const
{
    // ROB slots are allocated in ring order, so walking the bitmask
    // from the head (with wraparound) yields program order directly —
    // no sort.
    out.clear();
    s.forEachFrom(static_cast<size_t>(robHead), [&](int slot) {
        out.push_back(slot);
        return true;
    });
}

// -------------------------------------------------------------- issue

bool
Core::loadMayAccess(int slot, bool &forward, RobRef &conflict) const
{
    const RobEntry &e = at(slot);
    forward = false;
    conflict = RobRef{};
    // All older stores must have known addresses (Table 1): O(1)
    // against the store-address watermark. When one is still unknown
    // the load waits on it; otherwise the overlap walk below visits
    // only stores, every address known.
    if (oldestUnknownStoreSeq() < e.seq) {
        conflict = storeQ[storeAddrPrefix];
        return false;
    }
    const RobEntry *fwd_store = nullptr;
    Addr l_lo = e.curMemAddr;
    unsigned l_sz = e.si->memSz;
    for (const RobRef &ref : storeQ) {
        if (ref.seq >= e.seq)
            break;
        const RobEntry &s = at(ref.slot);
        Addr s_lo = s.curMemAddr;
        unsigned s_sz = s.si->memSz;
        if (l_lo < s_lo + s_sz && s_lo < l_lo + l_sz) {
            if (s_lo == l_lo && s_sz == l_sz) {
                fwd_store = &s; // youngest matching store wins
                conflict = ref;
            } else {
                // Partial overlap: wait until the store commits.
                conflict = ref;
                return false;
            }
        }
    }
    if (fwd_store)
        forward = true;
    return true;
}

void
Core::issueEntry(int slot, const OperandView &v0, const OperandView &v1)
{
    RobEntry &e = at(slot);
    RobCold &c = coldAt(slot);
    const StaticInst &si = *e.si;

    e.usedVals[0] = v0.value;
    e.usedVals[1] = v1.value;
    ++e.execCount;
    if (!e.executedOnce)
        ++st.executedInsts;

    bool oracle_inputs = v0.value == e.oracleSrc[0] &&
                         v1.value == e.oracleSrc[1];

    if (oracle_inputs) {
        const SemOut &o = c.exec.out;
        c.pendResult = o.result;
        c.pendResult2 = o.result2;
        c.pendTaken = o.taken;
        c.pendNextPC = o.nextPC;
        c.pendMemAddr = o.memAddr;
    } else {
        // Speculative inputs: genuinely evaluate with the wrong
        // values (this is what makes spurious outcomes possible).
        SemOut o = evalInstr(si.inst, c.exec.pc, v0.value, v1.value,
                             &state);
        c.pendResult = o.result;
        c.pendResult2 = o.result2;
        c.pendTaken = o.taken;
        c.pendNextPC = o.nextPC;
        c.pendMemAddr = o.memAddr;
    }

    uint64_t complete = curCycle + si.di.opLat;

    if (si.isLd) {
        bool skip_agen = e.addrReused || (e.addrPredicted &&
                                          !v0.avail);
        // Loads that did AGEN use the freshly computed address; the
        // others carry the reused/predicted one.
        if (!skip_agen)
            e.curMemAddr = static_cast<Addr>(c.pendMemAddr);
        bool fwd = false;
        RobRef dep;
        if (loadMayAccess(slot, fwd, dep) && !fwd) {
            unsigned lat = dcache.access(e.curMemAddr);
            complete = curCycle + (skip_agen ? 0 : 1) + lat;
        } else {
            // Forwarded from an older matching store.
            complete = curCycle + (skip_agen ? 0 : 1) + 1;
        }
        if (!oracle_inputs || (e.addrPredicted && !v0.avail)) {
            // Speculative access: read whatever that address holds.
            c.pendResult = state.readMem(e.curMemAddr, si.memSz);
        }
    }

    // Value publication is delayed by the verification latency when a
    // predicted instruction computes something other than what its
    // consumers were handed (paper: dependants are delayed by the
    // VP-verification latency).
    if (e.predicted && c.pendResult != e.curResult)
        complete += params.vpVerifyLatency;

    // Completions are processed before issue, so the earliest cycle
    // one can be delivered is the next; zero-latency NOP/HALT and
    // already-due results land there. completeAt is that delivery
    // cycle, which the audit checks no in-flight entry outlives.
    e.inFlight = true;
    e.completeAt = std::max(complete, curCycle + 1);
    // In-flight entries leave both candidate sets; completion makes
    // the entry a finalize candidate again, and a wake landing during
    // the flight makes it an issue candidate again.
    readySet.erase(slot);
    finalCand.erase(slot);
    WheelEvent ev;
    ev.at = e.completeAt;
    ev.seq = e.seq;
    ev.slot = slot;
    wheel.schedule(ev, curCycle);
}

void
Core::issueStage()
{
    unsigned issued = 0;
    // Only ready-set members, in program order.
    collectInOrder(readySet, schedScratch);
    for (int slot : schedScratch) {
        RobEntry &e = at(slot);
        if (!e.valid || !e.needsExec || e.inFlight || e.finalized)
            continue;
        if (curCycle <= e.dispatchCycle)
            continue; // earliest issue is the cycle after dispatch

        // Does this entry currently want to execute?
        bool wants = false;
        OperandView v[2];
        bool all_avail = true;
        bool all_final = true;
        for (int k = 0; k < 2; ++k) {
            v[k] = operandView(slot, k, curCycle);
            all_avail = all_avail && v[k].avail;
            all_final = all_final && v[k].final;
        }
        // Loads with a reused/predicted address need no operands to
        // access the cache.
        bool is_ld = e.si->isLd;
        bool addr_ready_load =
            is_ld && e.memAddrKnown && (e.addrReused || e.addrPredicted);
        if (!all_avail && !addr_ready_load) {
            // Waiter links guarantee a wake when the missing operand
            // publishes, so the entry can leave the ready set.
            readySet.erase(slot);
            continue;
        }

        if (!e.executedOnce) {
            wants = true;
        } else {
            bool changed = v[0].value != e.usedVals[0] ||
                           v[1].value != e.usedVals[1];
            // An address-speculative load can have accessed the wrong
            // location with operand values that coincidentally equal
            // the oracle ones; the value test alone would never
            // re-issue it. Redo the access once real operands arrive.
            bool addr_stale = is_ld && all_avail &&
                              e.curMemAddr != e.oracleAddr;
            if (!changed && !addr_stale) {
                // Quiescent: only an operand re-publication can change
                // this evaluation, and the persistent waiter links
                // re-wake the entry then — so stop polling it.
                readySet.erase(slot);
                continue;
            }
            if (params.reexec == ReexecPolicy::Multiple || addr_stale) {
                wants = true; // ME: re-execute on any new value
            } else {
                // NME: re-execute once, after operands are final.
                wants = all_final && e.execCount < 2;
                if (!wants) {
                    if (e.execCount >= 2) {
                        // Final re-execution already done; nothing
                        // further can make this entry issue.
                        readySet.erase(slot);
                    }
                    // else: waiting on operand *finality*, which can
                    // elapse with no publication — keep polling (the
                    // operand view notes the finalize cycle as an
                    // idle-skip bound).
                    continue;
                }
            }
        }

        // Loads must respect store disambiguation before requesting
        // a port (a blocked load is a dataflow stall, not resource
        // contention).
        bool fwd = false;
        RobRef dep;
        bool needs_port = false;
        if (is_ld) {
            // A load whose address is known only speculatively still
            // needs every older store address known (Table 1).
            if (!loadMayAccess(slot, fwd, dep))
                continue;
            needs_port = !fwd;
        }

        // From here on the instruction is ready: any denial is
        // resource contention (Figure 5).
        ++st.resourceRequests;
        cycleHadWork = true;
        if (issued >= params.issueWidth) {
            ++st.resourceDenied;
            continue;
        }
        bool skip_agen_fu = is_ld && e.addrReused;
        FuType fu = skip_agen_fu ? FuType::None : e.si->di.fu;
        if (!fus.available(fu, curCycle)) {
            ++st.resourceDenied;
            continue;
        }
        if (needs_port && dcachePortsUsed >= params.dcachePorts) {
            ++st.resourceDenied;
            continue;
        }
        fus.acquire(fu, curCycle, e.si->di.issueLat);
        if (needs_port)
            ++dcachePortsUsed;
        issueEntry(slot, v[0], v[1]);
        ++issued;
    }
}

// -------------------------------------------------- completion/verify

void
Core::completeEntry(int slot)
{
    RobEntry &e = at(slot);
    RobCold &c = coldAt(slot);
    const StaticInst &si = *e.si;
    cycleHadWork = true;
    e.inFlight = false;
    e.executedOnce = true;
    e.curResult = c.pendResult;
    e.curResult2 = c.pendResult2;
    e.curResult2Valid = true;
    c.curTaken = c.pendTaken;
    c.curNextPC = c.pendNextPC;
    if (si.isLd || si.isSt) {
        if (!e.addrReused)
            e.curMemAddr = static_cast<Addr>(c.pendMemAddr);
        e.memAddrKnown = true;
    }
    e.hasValue = producesResult(si.inst);
    e.readyTime = curCycle;

    if (si.isSt) {
        e.storeAddrReady = true;
        noteStoreAddrReady();
        if (rb) {
            // Injected fault: a dropped invalidation leaves stale
            // load values in the RB. With the oracle cross-check on,
            // the dispatch precision check refuses the stale hit;
            // with it off, an escape is the retire checker's to catch.
            if (!injector.fireRbDropInv())
                rb->storeInvalidate(e.curMemAddr, si.memSz);
        }
    }

    if (si.resolvable) {
        bool sb = !vptResult ||
                  params.branchRes == BranchResolution::Speculative;
        if (sb)
            c.pendingResolve = true;
    }

    if (rb && !c.rbInserted)
        insertIntoRb(slot);

    // Scheduler upkeep: the publication may unblock consumers, the
    // entry itself is a finalize candidate again (re-execution
    // candidacy is wake-driven: any publication landing during the
    // flight already re-inserted it into the ready set), and a
    // pending SB resolution makes it a resolution candidate.
    wakeWaiters(slot);
    if (!e.finalized)
        finalCand.insert(slot);
    // An address-stale load wants to re-issue on *unchanged* operands
    // (the issue scan's addr_stale term), and this completion itself
    // is what made the address stale — there may be no further
    // operand publication to deliver a wake, so re-arm it here.
    if (si.isLd && e.curMemAddr != e.oracleAddr)
        readySet.insert(slot);
    if (c.pendingResolve && !c.finalActionDone)
        ctrlSet.insert(slot);
}

void
Core::processCompletions()
{
    // Only this cycle's wheel bucket. Squashes leave stale events
    // behind, so each is validated against live ROB state; completion
    // order must be program order (RB insertion and store-invalidation
    // are order-sensitive), so sort by seq.
    dueScratch.clear();
    wheel.popDue(curCycle, dueScratch);
    schedScratch.clear();
    for (const WheelEvent &ev : dueScratch) {
        const RobEntry &e = at(ev.slot);
        if (ev.kind == WheelEvent::Kind::Refinal) {
            // A parked finalize candidate's recheck came due (its
            // producer's verification delay elapsed). Re-issued or
            // squashed incarnations drop the event; completion or the
            // staleness check re-arms them.
            if (e.valid && e.seq == ev.seq && !e.inFlight &&
                !e.finalized && e.needsExec && e.executedOnce) {
                finalCand.insert(ev.slot);
            }
            continue;
        }
        if (e.valid && e.seq == ev.seq && e.inFlight &&
            e.completeAt <= curCycle) {
            schedScratch.push_back(ev.slot);
        }
    }
    std::sort(schedScratch.begin(), schedScratch.end(),
              [this](int a, int b) { return at(a).seq < at(b).seq; });
    for (int slot : schedScratch)
        completeEntry(slot);
}

void
Core::finalizeScan()
{
    // Walks only the finalize-candidate set, as a mutable worklist:
    // an entry that fails because an operand is not yet final *parks*
    // — on the producer's finalize-waiter list when the producer has
    // not finalized, or on a timed wheel recheck when only its
    // verification delay is pending — instead of being re-polled
    // every cycle. A producer finalizing mid-pass wakes its parked
    // consumers and splices them back into the worklist in program
    // order, so chains of same-cycle finalizations resolve in one
    // pass, oldest first.
    collectInOrder(finalCand, schedScratch);
    for (size_t i = 0; i < schedScratch.size(); ++i) {
        int slot = schedScratch[i];
        RobEntry &e = at(slot);
        if (!e.valid || e.finalized || e.inFlight)
            continue;
        if (!e.needsExec || !e.executedOnce)
            continue;

        bool ops_final = true;
        for (int k = 0; k < 2; ++k) {
            OperandView v = operandView(slot, k, curCycle);
            if (v.final)
                continue;
            ops_final = false;
            if (refAlive(e.srcRob[k])) {
                const RobEntry &p = at(e.srcRob[k].slot);
                if (!p.finalized) {
                    // Re-completion can put a still-parked entry back
                    // into the candidate set; the node is already on
                    // the right producer's list then.
                    if (finWaiters[slot * 2 + k].prodSlot < 0)
                        linkWaiter(finWaiters, slot, k,
                                   e.srcRob[k].slot);
                    finalCand.erase(slot);
                } else if (p.finalizeAt > curCycle) {
                    scheduleRefinal(slot, p.finalizeAt);
                    finalCand.erase(slot);
                }
                // else: a finalized-now producer publishes before it
                // finalizes, so a non-final view cannot happen — keep
                // the entry polling defensively.
            }
            break;
        }
        if (!ops_final)
            continue;

        // The last execution must have consumed the final (oracle)
        // operand values; otherwise a re-execution is still due: the
        // publication that changes the operands re-wakes the entry on
        // the issue side, and its completion re-arms the candidate.
        if (e.usedVals[0] != e.oracleSrc[0] ||
            e.usedVals[1] != e.oracleSrc[1]) {
            finalCand.erase(slot);
            continue;
        }

        // A load whose last access used a mispredicted address read
        // the wrong location even if the (stale) operand values
        // happened to match the oracle ones; hold it for the
        // addr-stale re-issue instead of finalizing wrong data.
        if (e.si->isLd && e.curMemAddr != e.oracleAddr) {
            finalCand.erase(slot);
            continue;
        }

        e.finalized = true;
        e.finalizeAt = curCycle + (e.predicted ? params.vpVerifyLatency
                                               : 0);
        const RobCold &c = coldAt(slot);
        if (e.predicted && c.predValue != c.exec.out.result)
            ++st.valueMispredictEvents;
        readySet.erase(slot);
        finalCand.erase(slot);
        // Finalized entries never re-execute, so the operand links
        // have no wakes left to deliver.
        unlinkWaiter(waiters, slot, 0);
        unlinkWaiter(waiters, slot, 1);
        cycleHadWork = true;

        // Wake parked consumers. With a verification delay the value
        // is final only at finalizeAt: recheck then (timed event);
        // otherwise recheck this pass, in program order (consumers
        // are younger, so the splice point is always after i).
        int id = e.finWaiterHead;
        while (id >= 0) {
            int next = finWaiters[id].next;
            int cslot = id / 2;
            unlinkWaiter(finWaiters, cslot, id % 2);
            const RobEntry &c = at(cslot);
            if (e.finalizeAt > curCycle) {
                scheduleRefinal(cslot, e.finalizeAt);
            } else if (!c.inFlight && !c.finalized &&
                       !finalCand.test(cslot)) {
                finalCand.insert(cslot);
                auto it = std::upper_bound(
                    schedScratch.begin() +
                        static_cast<std::ptrdiff_t>(i) + 1,
                    schedScratch.end(), cslot, [this](int a, int b) {
                        return at(a).seq < at(b).seq;
                    });
                schedScratch.insert(it, cslot);
            }
            id = next;
        }
    }
}

// ---------------------------------------------------------- resolution

void
Core::doResolve(int slot, Addr computed_next, bool is_final)
{
    RobCold &c = coldAt(slot);
    cycleHadWork = true;
    noteResolvedForFetch(slot);
    if (is_final) {
        c.finalActionDone = true;
        ctrlSet.erase(slot);
    }
    if (computed_next == c.exec.out.nextPC &&
        c.correctResolveAt == UINT64_MAX) {
        c.correctResolveAt = curCycle;
    }
    if (computed_next != c.followedNextPC)
        squashAfter(slot, computed_next);
}

void
Core::resolveControl()
{
    // The unresolved-control set, oldest-first; a squash removes all
    // younger entries, so restart scanning is unnecessary (the
    // validity guard sees them gone).
    collectInOrder(ctrlSet, schedScratch);
    for (int slot : schedScratch) {
        const RobEntry &e = at(slot);
        if (!e.valid || !e.si->resolvable)
            continue;
        RobCold &c = coldAt(slot);
        bool nsb = vptResult &&
                   params.branchRes == BranchResolution::NonSpeculative;
        if (nsb) {
            if (e.finalized && e.finalizeAt <= curCycle &&
                !c.finalActionDone) {
                doResolve(slot, c.curNextPC, true);
            } else if (e.finalized && !c.finalActionDone &&
                       e.finalizeAt > curCycle) {
                noteWake(e.finalizeAt); // idle-skip bound
            }
        } else if (c.pendingResolve) {
            c.pendingResolve = false;
            cycleHadWork = true;
            bool fin = e.finalized && e.finalizeAt <= curCycle;
            doResolve(slot, c.curNextPC, fin);
        }
    }
}

// -------------------------------------------------------------- squash

void
Core::rebuildRename()
{
    for (auto &r : regProducer)
        r = RobRef{};
    forEachInOrder([&](int slot) {
        const RobEntry &e = at(slot);
        for (RegId r : e.si->dst) {
            if (r != REG_INVALID)
                regProducer[r] = RobRef{slot, e.seq};
        }
        return true;
    });
}

void
Core::squashAfter(int slot, Addr redirect)
{
    const RobEntry &e = at(slot);
    RobCold &c = coldAt(slot);

    cycleHadWork = true;
    ++st.branchSquashes;
    bool legit = redirect == c.exec.out.nextPC &&
                 c.predNextPC != c.exec.out.nextPC &&
                 !c.legitSquashCounted;
    if (legit)
        c.legitSquashCounted = true;
    else
        ++st.spuriousSquashes;

    // Drop everything younger than the squashing instruction.
    while (robUsed > 0) {
        int last = prevSlot(robTail);
        RobEntry &y = at(last);
        if (y.seq <= e.seq)
            break;
        if (y.execCount > 0) { // includes executions still in flight
            ++st.squashedExecuted;
            const RobCold &yc = coldAt(last);
            if (rb && yc.rbInserted)
                rb->markSquashed(yc.rbEntry);
        }
        y.valid = false;
        robTail = last;
        --robUsed;
        lsqUsed -= y.si->isLd || y.si->isSt;
        ++auditSquashed;
        // Scheduler teardown. Waiter unlinks are eager: this slot
        // will be reused, and a dangling node would corrupt a live
        // producer's list. Youngest-first order means y's own waiters
        // (younger still) already unlinked themselves, and y's
        // producers (older) are still walkable.
        readySet.erase(last);
        ctrlSet.erase(last);
        finalCand.erase(last);
        if (y.si->resolvable && !coldAt(last).resolvedForFetch) {
            VPIR_ASSERT(robUnresolvedCtrl > 0,
                        "unresolved-control counter underflow");
            --robUnresolvedCtrl;
        }
        for (int k = 0; k < 2; ++k) {
            unlinkWaiter(waiters, last, k);
            unlinkWaiter(finWaiters, last, k);
        }
        // Stale wheel events for y are discarded on pop by the
        // (slot, seq) validity check.
    }
    while (!storeQ.empty() &&
           (!refAlive(storeQ.back()) || storeQ.back().seq > e.seq)) {
        storeQ.pop_back();
    }
    // Surviving entries keep their readiness, so the prefix only needs
    // clamping to the shortened queue.
    if (storeAddrPrefix > storeQ.size())
        storeAddrPrefix = storeQ.size();
    rebuildRename();

    state.rollback(c.postMark);

    // Repair the speculative predictor state: restore the snapshot
    // taken before this instruction predicted, then re-apply its own
    // effect with the outcome just used for the redirect.
    const StaticInst &si = *e.si;
    VPIR_ASSERT(si.isCtrl, "squash by a non-control instruction");
    bpred.restore(bpCps[slot]);
    if (si.di.cls == InstClass::Branch)
        bpred.forceHistoryBit(c.curTaken);
    if (si.isCall)
        bpred.redoCall(c.exec.pc + 4);
    if (si.isReturn)
        bpred.redoReturn();

    c.followedNextPC = redirect;
    fetchQueue.clear();
    fetchCps.clear();
    fqResolvable = 0;
    fetchPC = redirect;
    fetchResumeCycle = curCycle + 1;
    fetchHalted = false;
    icacheStallUntil = 0;
}

// ------------------------------------------------------------ RB fill

void
Core::insertIntoRb(int slot)
{
    const RobEntry &e = at(slot);
    RobCold &c = coldAt(slot);
    const StaticInst &si = *e.si;
    if (si.di.cls == InstClass::Nop || si.isHalt)
        return;

    const ExecResult &er = c.exec;
    RbInsertInfo info;
    info.pc = er.pc;
    info.inst = si.inst;
    for (int k = 0; k < 2; ++k) {
        info.srcReg[k] = e.srcReg[k];
        info.srcVal[k] = er.srcVals[k];
    }
    info.result = er.out.result;
    info.result2 = er.out.result2;
    info.taken = er.out.taken;
    info.nextPC = er.out.nextPC;
    info.memAddr = er.out.memAddr;
    info.memValue = si.isLd ? er.out.result : 0;

    // Injected RB faults. A corrupt result is handed straight to
    // dependants by any later matching probe (the reuse test validates
    // operands, not results). A corrupt operand value mis-fires more
    // rarely — only when a future probe's live operand equals the
    // corrupted value, which a single flipped low bit makes realistic
    // for counters — and then delivers a result from the wrong operand
    // context. Control outcomes are left intact so corruption surfaces
    // as a wrong committed value, not a wrong-path walk.
    if (injector.fireRbOperand()) {
        int k = static_cast<int>(injector.pick(2));
        if (info.srcReg[k] != REG_INVALID)
            info.srcVal[k] = injector.corrupt(info.srcVal[k]);
    }
    if (injector.fireRbResult()) {
        info.result = injector.corrupt(info.result);
        if (si.isLd)
            info.memValue = injector.corrupt(info.memValue);
    }

    RbRef ref = rb->insert(info);

    // Dependence pointers: exact program-order producers resolved
    // through the ROB (still-alive producers carry their RB entry).
    RbRef links[2];
    for (int k = 0; k < 2; ++k) {
        const RobRef &p = e.srcRob[k];
        if (refAlive(p)) {
            const RbRef &pe = coldAt(p.slot).rbEntry;
            if (pe.valid())
                links[k] = pe;
        }
    }
    // Injected fault: a corrupt dependence pointer. Dropping the link
    // severs the chain, which can only reduce S_{n+d} reuse — the
    // safe failure mode early validation is supposed to guarantee.
    if (injector.fireRbLink())
        links[injector.pick(2)] = RbRef{};
    rb->linkSources(ref, links);

    c.rbEntry = ref;
    c.rbInserted = true;
}

// -------------------------------------------------------------- commit

void
Core::trainPredictors(int slot)
{
    const RobEntry &e = at(slot);
    const RobCold &c = coldAt(slot);
    const StaticInst &si = *e.si;
    const ExecResult &er = c.exec;
    if (si.isCtrl) {
        bpred.update(er.pc, si.inst, er.out.taken, er.out.nextPC,
                     c.ghrUsed);
        if (si.di.cls == InstClass::Branch) {
            ++st.condBranches;
            if (c.predTaken != er.out.taken)
                ++st.condMispredicted;
        }
        if (si.isReturn) {
            ++st.returns;
            if (c.predNextPC != er.out.nextPC)
                ++st.returnMispredicted;
        }
        if (si.resolvable && c.correctResolveAt != UINT64_MAX) {
            st.branchResLatSum += c.correctResolveAt - e.dispatchCycle;
            ++st.branchResCount;
        }
    }

    if (vptResult) {
        if (producesResult(si.inst) && !si.isSt &&
            si.inst.rd != REG_INVALID) {
            vptResult->update(er.pc, er.out.result, c.madePred);
            if (e.predicted) {
                ++st.vpResultPredicted;
                if (c.predValue == er.out.result)
                    ++st.vpResultCorrect;
                else
                    ++st.vpResultWrong;
            }
        }
        if (si.isLd || si.isSt) {
            vptAddr->update(er.pc, er.out.memAddr, c.madeAddrPred);
            if (e.addrPredicted) {
                ++st.vpAddrPredicted;
                if (c.addrPredValue == er.out.memAddr)
                    ++st.vpAddrCorrect;
                else
                    ++st.vpAddrWrong;
            }
        }
    }
}

void
Core::recordCommitStats(int slot)
{
    const RobEntry &e = at(slot);
    const StaticInst &si = *e.si;
    bool is_mem = si.isLd || si.isSt;
    ++st.committedInsts;
    if (is_mem) {
        ++st.committedMemOps;
        if (si.isLd)
            ++st.committedLoads;
        else
            ++st.committedStores;
    }
    if (e.reused || e.reusedLate)
        ++st.reusedResults;
    if (si.resolvable) {
        ++st.resolvableControl;
        if (e.reused)
            ++st.reusedControl;
    }
    if (e.addrReused || ((e.reused || e.reusedLate) && is_mem))
        ++st.reusedAddrs;
    if (e.execCount > 0) {
        unsigned b = static_cast<unsigned>(
            std::min(e.execCount, 4)) - 1;
        ++st.execCountHist[b];
    }
    trainPredictors(slot);
}

void
Core::commitStage()
{
    unsigned commits = 0;
    while (commits < params.commitWidth && robUsed > 0 && !done) {
        RobEntry &e = at(robHead);
        if (!(e.finalized && e.finalizeAt <= curCycle) || e.inFlight) {
            // Head finalized but verification pending: the only
            // purely time-gated commit stall (idle-skip bound).
            if (e.finalized && !e.inFlight && e.finalizeAt > curCycle)
                noteWake(e.finalizeAt);
            break;
        }
        const StaticInst &si = *e.si;
        RobCold &c = coldAt(robHead);
        if (si.resolvable && !c.finalActionDone) {
            // SB resolutions mark final action lazily; the final
            // publication necessarily happened, so take it now.
            if (c.curNextPC != c.followedNextPC)
                break; // resolution pending; cannot commit yet
            doResolve(robHead, c.curNextPC, true);
        }
        if (params.irOracleCheck) {
            VPIR_ASSERT(!si.isCtrl ||
                            c.followedNextPC == c.exec.out.nextPC,
                        "committing a control instruction on a wrong path");
        }

        if (si.isHalt) {
            cycleHadWork = true;
            if (checker)
                checkRetired(robHead);
            done = true;
            st.haltedCleanly = true;
            ++st.committedInsts;
            // Discard still-buffered wrong-path/young writes so the
            // emulator state is exactly the architectural state at
            // the halt (end-state equivalence with pure emulation).
            state.rollback(c.postMark);
            break;
        }

        if (si.isSt) {
            if (dcachePortsUsed >= params.dcachePorts) {
                ++st.resourceRequests;
                ++st.resourceDenied;
                cycleHadWork = true;
                break;
            }
            ++dcachePortsUsed;
            dcache.access(e.curMemAddr);
        }

        if (params.auditInvariants)
            auditCommit(robHead);
        if (checker)
            checkRetired(robHead);
        recordCommitStats(robHead);
        state.retire(c.postMark);

        lsqUsed -= si.isLd || si.isSt;
        if (si.isSt && !storeQ.empty() && storeQ.front().seq == e.seq) {
            storeQ.pop_front();
            if (storeAddrPrefix > 0) // committing store was ready
                --storeAddrPrefix;
        }

        for (RegId r : si.dst) {
            if (r != REG_INVALID && regProducer[r].slot == robHead &&
                regProducer[r].seq == e.seq) {
                regProducer[r] = RobRef{};
            }
        }

        // Committed entries are finalized and resolved, so they left
        // the scheduling sets already; the erases are idempotent
        // belt-and-braces before the slot is reused.
        readySet.erase(robHead);
        ctrlSet.erase(robHead);
        finalCand.erase(robHead);
        // Consumers still linked for re-publication wakes see the
        // committed value as architectural (and final) once the ref
        // dies, so the links dissolve. A never-woken operand counts
        // this as its publication. The finalize-waiter list drained
        // when this entry finalized; the walk is defensive.
        while (e.waiterHead >= 0) {
            int id = e.waiterHead;
            int cs = id / 2;
            bool seen = waiters[id].availSeen;
            unlinkWaiter(waiters, cs, id % 2);
            if (!seen && --at(cs).pendingOps == 0)
                readySet.insert(cs);
        }
        while (e.finWaiterHead >= 0) {
            int cs = e.finWaiterHead / 2;
            unlinkWaiter(finWaiters, cs, e.finWaiterHead % 2);
            finalCand.insert(cs); // re-arm rather than strand
        }
        e.valid = false;
        robHead = nextSlot(robHead);
        --robUsed;
        ++commits;
        cycleHadWork = true;

        if (st.committedInsts >= params.maxInsts)
            done = true;
    }
}

// --------------------------------------------------------- hardening

void
Core::checkRetired(int slot)
{
    const RobEntry &e = at(slot);
    const RobCold &c = coldAt(slot);
    Retired r;
    r.seq = e.seq;
    r.cycle = curCycle;
    r.pc = c.exec.pc;
    r.inst = e.si->inst;
    r.result = e.curResult;
    r.result2 = e.curResult2;
    r.nextPC = e.si->isCtrl ? c.curNextPC : c.exec.pc + 4;
    r.memAddr = e.curMemAddr;
    // The timing model carries no separate store-data value; pass the
    // dispatch-time one so the checker still validates the replayed
    // store semantics against the original functional execution.
    r.storeValue = c.exec.out.storeValue;
    checker->onRetire(r);
}

void
Core::watchdogDump()
{
    std::ostringstream os;
    os << "watchdog: no instruction committed for "
       << (curCycle - lastCommitCycle) << " cycles (limit "
       << params.watchdogCycles << ")\n"
       << "  cycle " << curCycle << ", committed " << st.committedInsts
       << ", fetchPC 0x" << std::hex << fetchPC << std::dec
       << (fetchHalted ? " (fetch halted)" : "") << ", fetchQueue "
       << fetchQueue.size() << ", rob " << robUsed << "/"
       << params.robEntries << ", lsq " << lsqUsed << "\n";
    forEachInOrder([&](int slot) {
        const RobEntry &e = at(slot);
        const RobCold &c = coldAt(slot);
        os << "  [" << slot << "] seq " << e.seq << " pc 0x" << std::hex
           << c.exec.pc << std::dec << " " << disassemble(e.si->inst)
           << (e.finalized ? " finalized" : "")
           << (e.inFlight ? " in-flight" : "")
           << (e.executedOnce ? "" : " never-executed")
           << (e.needsExec ? "" : " no-exec")
           << (e.hasValue ? "" : " no-value");
        if (e.si->isCtrl) {
            os << (c.finalActionDone ? " resolved" : " unresolved");
        }
        if (e.executedOnce) {
            os << " exec=" << e.execCount;
            os << std::hex << " used=[0x" << e.usedVals[0] << ",0x"
               << e.usedVals[1] << "] oracle=[0x" << e.oracleSrc[0]
               << ",0x" << e.oracleSrc[1] << "]";
            if (e.si->isLd || e.si->isSt) {
                os << " addr=0x" << e.curMemAddr << "/0x"
                   << e.oracleAddr
                   << (e.addrPredicted ? " addr-pred" : "")
                   << (e.addrReused ? " addr-reused" : "");
            }
            os << std::dec;
        }
        os << "\n";
        return true;
    });
    panic(os.str());
}

// ------------------------------------------------------------- audits

void
Core::auditFail(const std::string &what) const
{
    panic("audit: " + what + " (cycle " + std::to_string(curCycle) +
          ", committed " + std::to_string(st.committedInsts) + ")");
}

void
Core::auditCommit(int slot) const
{
    const RobEntry &e = at(slot);
    const StaticInst &si = *e.si;
    const SemOut &oracle = coldAt(slot).exec.out;
    if (si.isHalt || si.di.cls == InstClass::Nop)
        return;
    // Late validation must have run its course: whatever value this
    // instruction is retiring with — predicted, reused, or computed —
    // has to equal its oracle execution along the fetched path. A
    // difference here is a wrong value escaping to architectural
    // state, the exact failure class VPIR_AUDIT exists to pin to a
    // cycle.
    if (producesResult(si.inst) && !si.isSt &&
        e.curResult != oracle.result) {
        auditFail("committing seq " + std::to_string(e.seq) +
                  " with an unvalidated " +
                  (e.predicted ? std::string("predicted")
                   : (e.reused || e.reusedLate)
                       ? std::string("reused")
                       : std::string("computed")) +
                  " value (pc " + std::to_string(coldAt(slot).exec.pc) +
                  ", " + disassemble(si.inst) + ")");
    }
    if (producesResult(si.inst) && !si.isSt && e.curResult2Valid &&
        si.inst.rd2 != REG_INVALID &&
        e.curResult2 != oracle.result2) {
        auditFail("committing seq " + std::to_string(e.seq) +
                  " with an unvalidated secondary value");
    }
    if (!e.finalized || e.finalizeAt > curCycle || e.inFlight)
        auditFail("committing seq " + std::to_string(e.seq) +
                  " before it finalized");
}

void
Core::auditCycle() const
{
    // Occupancy bounds.
    if (robUsed > params.robEntries)
        auditFail("ROB occupancy above capacity");
    if (lsqUsed > params.lsqEntries)
        auditFail("LSQ occupancy above capacity");
    if (fetchQueue.size() > params.fetchQueueSize)
        auditFail("fetch queue above capacity");
    if (storeQ.size() > lsqUsed)
        auditFail("store queue larger than the LSQ");
    if (storeAddrPrefix > storeQ.size())
        auditFail("store-address watermark beyond the store queue");

    // Instruction conservation: every sequence number dispatch handed
    // out is committed, squashed, or still live in the ROB.
    uint64_t dispatched = nextSeq - 1;
    if (dispatched != st.committedInsts + auditSquashed + robUsed) {
        auditFail("conservation: dispatched " +
                  std::to_string(dispatched) + " != committed " +
                  std::to_string(st.committedInsts) + " + squashed " +
                  std::to_string(auditSquashed) + " + in-flight " +
                  std::to_string(robUsed));
    }

    // ROB walk: the ring's live window must be valid entries with
    // strictly increasing sequence numbers and coherent flags. It also
    // recounts the LSQ (the window's loads and stores) and finds the
    // oldest store whose address is still unknown.
    uint64_t prev_seq = 0;
    const char *rob_bad = nullptr;
    unsigned mem_ops = 0;
    uint64_t unknown_store = UINT64_MAX;
    forEachInOrder([&](int slot) {
        const RobEntry &e = at(slot);
        if (!e.valid)
            rob_bad = "invalid entry inside the ROB's live window";
        else if (e.seq <= prev_seq)
            rob_bad = "ROB sequence numbers not strictly increasing";
        else if (e.finalized && e.inFlight)
            rob_bad = "entry both finalized and in flight";
        else if (e.seq >= nextSeq)
            rob_bad = "ROB entry with an unissued sequence number";
        else if (e.inFlight && e.completeAt <= curCycle)
            rob_bad = "in-flight entry outlived its completion cycle";
        prev_seq = e.seq;
        if (rob_bad)
            return false;
        mem_ops += e.si->isLd || e.si->isSt;
        if (e.si->isSt && !e.storeAddrReady && unknown_store == UINT64_MAX)
            unknown_store = e.seq;
        return true;
    });
    if (rob_bad)
        auditFail(rob_bad);
    if (mem_ops != lsqUsed)
        auditFail("LSQ count " + std::to_string(lsqUsed) +
                  " != recount " + std::to_string(mem_ops));

    // Every storeQ reference must point at a live ROB entry (commit
    // pops the head, squash pops the dead suffix).
    for (size_t i = 0; i < storeQ.size(); ++i) {
        if (!refAlive(storeQ[i]))
            auditFail("store queue references a dead ROB slot");
        if (i < storeAddrPrefix && !at(storeQ[i].slot).storeAddrReady)
            auditFail("address-unready store inside the watermark "
                      "prefix");
    }
    // The watermark must name what the ROB walk found: the oldest
    // live store whose address is still unknown.
    if (oldestUnknownStoreSeq() != unknown_store)
        auditFail("store-address watermark diverged from the ROB scan");

    // Periodic structure sweeps (O(entries), too hot for every cycle).
    if ((curCycle & 0xfff) == 0) {
        std::string w = rb ? rb->audit() : "";
        if (w.empty() && vptResult)
            w = vptResult->audit();
        if (w.empty() && vptAddr)
            w = vptAddr->audit();
        if (!w.empty())
            auditFail(w);
    }

    auditSched();
}

void
Core::auditSched() const
{
    // Incremental counters against a full recount.
    unsigned unresolved = 0;
    forEachInOrder([&](int slot) {
        if (at(slot).si->resolvable && !coldAt(slot).resolvedForFetch)
            ++unresolved;
        return true;
    });
    if (unresolved != robUnresolvedCtrl)
        auditFail("unresolved-control counter " +
                  std::to_string(robUnresolvedCtrl) + " != recount " +
                  std::to_string(unresolved));
    unsigned fq_res = 0;
    for (const FetchedInst &f : fetchQueue)
        fq_res += f.si->resolvable ? 1 : 0;
    if (fq_res != fqResolvable)
        auditFail("fetch-queue resolvable counter " +
                  std::to_string(fqResolvable) + " != recount " +
                  std::to_string(fq_res));

    // Ready-set completeness: any entry whose full issue evaluation
    // would currently want execution — or that is polling toward a
    // wake-less transition (an NME entry waiting only on operand
    // finality) — must be a member (the set may hold a conservative
    // superset; the scan re-filters). Control-set membership is
    // exact: unresolved resolvable control, both ways.
    const char *bad = nullptr;
    forEachInOrder([&](int slot) {
        const RobEntry &e = at(slot);
        if (e.needsExec && !e.inFlight && !e.finalized) {
            bool all_avail = true;
            OperandView v[2];
            for (int k = 0; k < 2; ++k) {
                v[k] = operandView(slot, k, curCycle);
                all_avail = all_avail && v[k].avail;
            }
            bool arl = e.si->isLd && e.memAddrKnown &&
                       (e.addrReused || e.addrPredicted);
            if (all_avail || arl) {
                bool need;
                if (!e.executedOnce) {
                    need = true;
                } else {
                    bool changed = v[0].value != e.usedVals[0] ||
                                   v[1].value != e.usedVals[1];
                    bool addr_stale = e.si->isLd && all_avail &&
                                      e.curMemAddr != e.oracleAddr;
                    if (!changed && !addr_stale)
                        need = false;
                    else if (params.reexec == ReexecPolicy::Multiple ||
                             addr_stale)
                        need = true;
                    else // NME: membership persists until the single
                         // final re-execution happens (the finality
                         // flip that enables it has no wake)
                        need = e.execCount < 2;
                }
                if (need && !readySet.test(slot))
                    bad = "actionable entry missing from the ready set";
            }
        }
        bool unres = e.si->resolvable && !coldAt(slot).finalActionDone;
        if (unres != ctrlSet.test(slot))
            bad = unres ? "unresolved control missing from the "
                          "control set"
                        : "resolved control left in the control set";
        return bad == nullptr;
    });
    if (bad)
        auditFail(bad);

    // Finalize-candidate completeness: anything a full-window finalize
    // walk would finalize right now must be a candidate.
    forEachInOrder([&](int slot) {
        const RobEntry &e = at(slot);
        if (!e.needsExec || !e.executedOnce || e.inFlight ||
            e.finalized || finalCand.test(slot)) {
            return true;
        }
        bool ops_final = true;
        for (int k = 0; k < 2; ++k)
            ops_final = ops_final &&
                        operandView(slot, k, curCycle).final;
        if (ops_final && e.usedVals[0] == e.oracleSrc[0] &&
            e.usedVals[1] == e.oracleSrc[1] &&
            !(e.si->isLd && e.curMemAddr != e.oracleAddr)) {
            bad = "finalizable entry missing from the "
                  "finalize-candidate set";
        }
        return bad == nullptr;
    });
    if (bad)
        auditFail(bad);

    // Set members must be live entries still eligible for their set.
    // In-flight members are allowed: a wake landing mid-flight leaves
    // the entry in the set so the post-completion scan re-evaluates
    // it (the scan filters in-flight entries without erasing).
    readySet.forEach([&](int slot) {
        const RobEntry &e = at(slot);
        if (!e.valid || !e.needsExec || e.finalized)
            bad = "stale ready-set member";
        return bad == nullptr;
    });
    if (bad)
        auditFail(bad);
    ctrlSet.forEach([&](int slot) {
        if (!at(slot).valid)
            bad = "control-set member references a dead slot";
        return bad == nullptr;
    });
    if (bad)
        auditFail(bad);
    finalCand.forEach([&](int slot) {
        const RobEntry &e = at(slot);
        if (!e.valid || !e.needsExec || !e.executedOnce ||
            e.inFlight || e.finalized) {
            bad = "stale finalize-candidate member";
        }
        return bad == nullptr;
    });
    if (bad)
        auditFail(bad);

    // Waiter discipline: operand links are persistent — every operand
    // with a live in-window producer is linked until the consumer
    // finalizes (or dies) or the producer commits; availSeen mirrors
    // the operand view's availability, and pendingOps counts exactly
    // the not-yet-seen links. Finalize-waiter nodes park on a live,
    // not-yet-finalized producer and agree with the source ref.
    size_t in_flight = 0;
    forEachInOrder([&](int slot) {
        const RobEntry &e = at(slot);
        if (e.inFlight)
            ++in_flight;
        int pend = 0;
        for (int k = 0; k < 2; ++k) {
            const OpWaiter &w = waiters[slot * 2 + k];
            bool should_link = e.needsExec && !e.finalized &&
                               e.srcReg[k] != REG_INVALID &&
                               refAlive(e.srcRob[k]);
            if (w.prodSlot < 0) {
                if (should_link)
                    bad = "unlinked operand with a live producer";
                continue;
            }
            if (!should_link) {
                bad = "waiter link outlived its producer or consumer";
            } else if (e.srcRob[k].slot != w.prodSlot) {
                bad = "waiter link disagrees with the source ref";
            } else if (w.availSeen !=
                       operandView(slot, k, curCycle).avail) {
                bad = "waiter availSeen disagrees with the operand "
                      "view";
            }
            if (!w.availSeen)
                ++pend;

            const OpWaiter &fw = finWaiters[slot * 2 + k];
            if (fw.prodSlot >= 0) {
                if (!at(fw.prodSlot).valid ||
                    at(fw.prodSlot).finalized) {
                    bad = "finalize waiter parked on a dead or "
                          "finalized producer";
                } else if (e.srcRob[k].slot != fw.prodSlot ||
                           !refAlive(e.srcRob[k])) {
                    bad = "finalize-waiter link disagrees with the "
                          "source ref";
                }
            }
        }
        if (!bad && e.needsExec && !e.finalized && pend != e.pendingOps)
            bad = "pendingOps disagrees with the unseen waiter count";
        return bad == nullptr;
    });
    if (bad)
        auditFail(bad);

    // Every in-flight entry scheduled a completion event (stale events
    // from squashed incarnations may pad the wheel; pop validates).
    if (wheel.size() < in_flight)
        auditFail("fewer wheel events than in-flight instructions");
}

// ---------------------------------------------------------------- run

bool
Core::cycle()
{
    if (done)
        return false;
    dcachePortsUsed = 0;
    // Per-cycle scheduler scratch: wake hints accumulate across the
    // stages below; cycleHadWork latches any observable activity and
    // vetoes the idle skip.
    schedWake = UINT64_MAX;
    cycleHadWork = false;
    // Stage profile: time one run cycle in samplePeriod and count
    // each lap samplePeriod times (sched_profile.hh).
    constexpr uint64_t period = SchedProfile::samplePeriod;
    const bool timed = ++prof.cyclesRun % period == 0;
    namespace chr = std::chrono;
    chr::steady_clock::time_point t0;
    auto lap = [&](uint64_t &acc) {
        if (!timed)
            return;
        chr::steady_clock::time_point t1 = chr::steady_clock::now();
        acc += period * static_cast<uint64_t>(
                            chr::duration_cast<chr::nanoseconds>(t1 - t0)
                                .count());
        t0 = t1;
    };
    if (timed)
        t0 = chr::steady_clock::now();
    processCompletions();
    finalizeScan();
    resolveControl();
    lap(prof.executeNs);
    commitStage();
    lap(prof.commitNs);
    if (!done) {
        issueStage();
        lap(prof.issueNs);
        dispatchStage();
        lap(prof.dispatchNs);
        fetchStage();
        lap(prof.fetchNs);
    }
    if (params.watchdogCycles && !done) {
        if (st.committedInsts != lastCommitInsts) {
            lastCommitInsts = st.committedInsts;
            lastCommitCycle = curCycle;
        } else if (curCycle - lastCommitCycle >= params.watchdogCycles) {
            watchdogDump();
        }
    }
    if (params.auditInvariants && !done) {
        if (curCycle == auditClobberCycle)
            ++st.committedInsts; // VPIR_TEST_AUDIT_CLOBBER: planted bug
        auditCycle();
    }
    // Idle-cycle skipping: when nothing observable happened this
    // cycle, jump to the cycle before the next possible action — the
    // earliest wheel event or wake hint — never past the watchdog
    // trip, the planted audit clobber, or the maxCycles budget.
    // Skipped cycles still count toward st.cycles, so every
    // cycle-derived observable is what stepping through them one by
    // one would give.
    if (!done && !cycleHadWork) {
        uint64_t target =
            std::min(schedWake, wheel.nextEventAt(curCycle));
        if (params.watchdogCycles)
            target = std::min(target,
                              lastCommitCycle + params.watchdogCycles);
        if (auditClobberCycle > curCycle)
            target = std::min(target, auditClobberCycle);
        uint64_t room = params.maxCycles - st.cycles; // >= 1 here
        uint64_t delta = 0;
        if (target == UINT64_MAX)
            delta = room - 1; // nothing pending: sprint to the budget
        else if (target > curCycle + 1)
            delta = std::min(target - curCycle - 1, room - 1);
        curCycle += delta;
        st.cycles += delta;
        prof.idleSkippedCycles += delta;
    }
    ++curCycle;
    ++st.cycles;
    if (st.cycles >= params.maxCycles)
        done = true;
    return !done;
}

const CoreStats &
Core::run()
{
    while (cycle()) {
    }
    // Derived counters: cache totals, checker and fault counts.
    st.icacheAccesses = icache.accesses();
    st.icacheMisses = icache.misses();
    st.dcacheAccesses = dcache.accesses();
    st.dcacheMisses = dcache.misses();
    if (checker)
        st.checkedInsts = checker->checkedInsts();
    const FaultCounts &fc = injector.counts();
    st.faultsVptValue = fc.vptValue;
    st.faultsVptConf = fc.vptConf;
    st.faultsRbOperand = fc.rbOperand;
    st.faultsRbResult = fc.rbResult;
    st.faultsRbLink = fc.rbLink;
    st.faultsRbDropInv = fc.rbDropInv;
    return st;
}

} // namespace vpir
