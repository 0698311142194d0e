#include "reuse/reuse_buffer.hh"

#include <algorithm>

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace vpir
{

ReuseBuffer::ReuseBuffer(const RbParams &p) : params(p)
{
    VPIR_ASSERT(p.ways >= 1 && p.entries % p.ways == 0,
                "entries must divide into ways");
    numSets = p.entries / p.ways;
    VPIR_ASSERT(isPowerOf2(numSets), "set count not a power of two");
    entries.assign(p.entries, Entry());
    lru.assign(numSets, LruSet(p.ways));
    // One bucket per entry is a comfortable upper bound on distinct
    // load words tracked at once; avoids steady-state rehashing.
    loadIndex.reserve(p.entries);
}

uint32_t
ReuseBuffer::setIndex(Addr pc) const
{
    return foldPC(pc, floorLog2(numSets));
}

bool
ReuseBuffer::operandOk(const Operand &op, const RbOperandQuery &q) const
{
    if (op.reg == REG_INVALID)
        return true; // no operand, trivially matches
    if (q.reg != op.reg)
        return false; // different static instruction in this slot

    if (q.ready)
        return q.value == op.value;

    // Operand not available at decode: only a dependence-pointer chain
    // to an entry the in-flight producer was reused from can rescue it
    // (S_{n+d}'s same-cycle chain collapse).
    if (q.producerReuse.valid() && op.src.valid() &&
        q.producerReuse.idx == op.src.idx &&
        q.producerReuse.serial == op.src.serial) {
        // Exact link match implies the producer delivers exactly the
        // operand value this entry was computed with.
        return q.value == op.value;
    }
    return false;
}

RbProbeResult
ReuseBuffer::probe(Addr pc, const Instr &inst,
                   const RbOperandQuery ops_q[2]) const
{
    RbProbeResult r;
    uint32_t si = setIndex(pc);
    const bool is_ld = isLoad(inst.op);
    const bool is_st = isStore(inst.op);

    for (unsigned w = 0; w < params.ways; ++w) {
        const Entry &e = entries[si * params.ways + w];
        if (!e.valid || e.pc != pc || e.op != inst.op)
            continue;

        bool op0 = operandOk(e.ops[0], ops_q[0]);
        bool op1 = operandOk(e.ops[1], ops_q[1]);

        if (is_ld) {
            // Address part depends only on the base register (op 0).
            if (!op0)
                continue;
            r.addrReused = true;
            r.resultReused = e.memValid;
        } else if (is_st) {
            // Stores have no result; a base-operand match reuses the
            // address computation.
            if (!op0)
                continue;
            r.addrReused = true;
            r.resultReused = false;
        } else {
            if (!op0 || !op1)
                continue;
            r.resultReused = true;
        }

        r.entry = RbRef{static_cast<int>(si * params.ways + w), e.serial};
        r.result = e.result;
        r.result2 = e.result2;
        r.taken = e.taken;
        r.nextPC = e.nextPC;
        r.memAddr = e.memAddr;
        r.memValue = e.memValue;
        r.recoveredSquashedWork = e.fromSquashed;

        // Prefer a full-result hit; keep scanning only if this way gave
        // just an address hit and a later way might do better.
        if (r.resultReused || is_st)
            return r;
    }
    return r;
}

void
ReuseBuffer::noteReused(const RbProbeResult &hit, const Instr &inst)
{
    (void)inst;
    VPIR_ASSERT(hit.entry.valid(), "noteReused without a hit");
    Entry &e = entries[hit.entry.idx];
    if (e.serial != hit.entry.serial)
        return; // overwritten between probe and use; nothing to note
    lru[hit.entry.idx / params.ways].touch(hit.entry.idx % params.ways);
    if (e.fromSquashed)
        e.fromSquashed = false; // recovery credit consumed once
}

void
ReuseBuffer::registerLoad(int idx)
{
    const Entry &e = entries[idx];
    for (Addr a = e.memAddr & ~3u; a < e.memAddr + e.memSz; a += 4)
        loadIndex[a].push_back(idx);
}

void
ReuseBuffer::unregisterLoad(int idx)
{
    const Entry &e = entries[idx];
    for (Addr a = e.memAddr & ~3u; a < e.memAddr + e.memSz; a += 4) {
        auto it = loadIndex.find(a);
        if (it == loadIndex.end())
            continue;
        auto &v = it->second;
        v.erase(std::remove(v.begin(), v.end(), idx), v.end());
        if (v.empty())
            loadIndex.erase(it);
    }
}

RbRef
ReuseBuffer::insert(const RbInsertInfo &info)
{
    uint32_t si = setIndex(info.pc);

    // Refresh an existing instance with identical operands.
    int way = -1;
    for (unsigned w = 0; w < params.ways; ++w) {
        Entry &e = entries[si * params.ways + w];
        if (e.valid && e.pc == info.pc && e.op == info.inst.op &&
            e.ops[0].reg == info.srcReg[0] &&
            e.ops[1].reg == info.srcReg[1] &&
            (e.ops[0].reg == REG_INVALID ||
             e.ops[0].value == info.srcVal[0]) &&
            (e.ops[1].reg == REG_INVALID ||
             e.ops[1].value == info.srcVal[1])) {
            way = static_cast<int>(w);
            break;
        }
    }

    bool fresh = way < 0;
    if (fresh) {
        for (unsigned w = 0; w < params.ways; ++w) {
            if (!entries[si * params.ways + w].valid) {
                way = static_cast<int>(w);
                break;
            }
        }
        if (way < 0)
            way = static_cast<int>(lru[si].victim());
    }

    int idx = static_cast<int>(si * params.ways + way);
    Entry &e = entries[idx];

    const bool new_ld = isLoad(info.inst.op);
    const unsigned new_sz = memSize(info.inst.op);
    // A refreshed load covering the same span keeps its loadIndex
    // registrations; only a changed span pays the map updates.
    const bool same_span = e.valid && e.isLd && new_ld &&
                           e.memAddr == info.memAddr && e.memSz == new_sz;
    if (e.valid && e.isLd && !same_span)
        unregisterLoad(idx);

    if (fresh)
        e.serial = nextSerial++;
    e.valid = true;
    e.pc = info.pc;
    e.op = info.inst.op;
    for (int k = 0; k < 2; ++k) {
        e.ops[k].reg = info.srcReg[k];
        e.ops[k].value = info.srcVal[k];
        e.ops[k].src = RbRef{};
    }
    e.result = info.result;
    e.result2 = info.result2;
    e.taken = info.taken;
    e.nextPC = info.nextPC;
    e.memAddr = info.memAddr;
    e.memValue = info.memValue;
    e.memValid = new_ld;
    e.fromSquashed = false;
    e.isLd = new_ld;
    e.memSz = new_sz;

    if (new_ld && !same_span)
        registerLoad(idx);

    lru[si].touch(static_cast<unsigned>(way));
    return RbRef{idx, e.serial};
}

void
ReuseBuffer::linkSources(const RbRef &ref, const RbRef src_links[2])
{
    if (!ref.valid())
        return;
    Entry &e = entries[ref.idx];
    if (e.serial != ref.serial)
        return;
    for (int k = 0; k < 2; ++k)
        e.ops[k].src = src_links[k];
}

void
ReuseBuffer::storeInvalidate(Addr addr, unsigned size)
{
    for (Addr a = addr & ~3u; a < addr + size; a += 4) {
        auto it = loadIndex.find(a);
        if (it == loadIndex.end())
            continue;
        for (int idx : it->second)
            entries[idx].memValid = false;
    }
}

void
ReuseBuffer::markSquashed(const RbRef &ref)
{
    if (!ref.valid())
        return;
    Entry &e = entries[ref.idx];
    if (e.valid && e.serial == ref.serial)
        e.fromSquashed = true;
}

void
ReuseBuffer::reset()
{
    for (Entry &e : entries)
        e.valid = false;
    loadIndex.clear();
}

unsigned
ReuseBuffer::instancesFor(Addr pc) const
{
    uint32_t si = setIndex(pc);
    unsigned n = 0;
    for (unsigned w = 0; w < params.ways; ++w) {
        const Entry &e = entries[si * params.ways + w];
        if (e.valid && e.pc == pc)
            ++n;
    }
    return n;
}

std::string
ReuseBuffer::audit() const
{
    size_t expect_regs = 0;
    for (size_t i = 0; i < entries.size(); ++i) {
        const Entry &e = entries[i];
        if (!e.valid)
            continue;
        std::string at = "RB entry " + std::to_string(i) + " (pc " +
                         std::to_string(e.pc) + "): ";
        if (e.isLd != isLoad(e.op))
            return at + "cached isLd disagrees with opcode";
        if (e.memSz != memSize(e.op))
            return at + "cached memSz disagrees with opcode";
        if (e.serial == 0 || e.serial >= nextSerial)
            return at + "serial outside the issued range";
        if (setIndex(e.pc) != static_cast<uint32_t>(i) / params.ways)
            return at + "entry outside its PC's set";
        if (e.isLd) {
            // Every covered word must index back to this entry,
            // exactly once.
            for (Addr a = e.memAddr & ~3u; a < e.memAddr + e.memSz;
                 a += 4) {
                ++expect_regs;
                auto it = loadIndex.find(a);
                unsigned hits = 0;
                if (it != loadIndex.end()) {
                    for (int idx : it->second) {
                        if (idx == static_cast<int>(i))
                            ++hits;
                    }
                }
                if (hits != 1) {
                    return at + "load registered " +
                           std::to_string(hits) +
                           " times for a covered word";
                }
            }
        }
    }
    // No stale registrations: the index holds exactly the valid load
    // entries' covered words, nothing else.
    size_t total_regs = 0;
    for (const auto &kv : loadIndex)
        total_regs += kv.second.size();
    if (total_regs != expect_regs) {
        return "RB load index holds " + std::to_string(total_regs) +
               " registrations, entries imply " +
               std::to_string(expect_regs);
    }
    return "";
}

} // namespace vpir
