#include "reuse/reuse_buffer.hh"

#include "common/logging.hh"

namespace vpir
{

namespace
{

/** Number of aligned words an access of @p size bytes at @p addr
 *  touches. Word i of the span is (addr & ~3) + 4 * i, wrapping past
 *  the top of the 32-bit space as EmuState's byte addressing does. */
unsigned
wordsSpanned(Addr addr, unsigned size)
{
    return ((addr & 3u) + size + 3u) / 4u;
}

} // anonymous namespace

ReuseBuffer::ReuseBuffer(const RbParams &p) : table(p.entries, p.ways)
{
    wordNodes.resize(1 + static_cast<size_t>(p.entries) * maxLoadWords);
    // About one bucket per entry; at least two, so the hash shift
    // stays below 32.
    bucketBits = 1;
    while ((1u << bucketBits) < p.entries)
        ++bucketBits;
    buckets.resize(size_t{1} << bucketBits);
}

uint32_t
ReuseBuffer::bucketOf(Addr word) const
{
    // Fibonacci hashing: strided load streams spread over buckets.
    return (word * 0x9e3779b1u) >> (32 - bucketBits);
}

void
ReuseBuffer::linkWord(uint32_t node, Addr word)
{
    WordNode &n = wordNodes[node];
    uint32_t &head = buckets[bucketOf(word)];
    n.word = word;
    n.prev = 0;
    n.next = head;
    if (head)
        wordNodes[head].prev = node;
    head = node;
}

void
ReuseBuffer::unlinkWord(uint32_t node)
{
    WordNode &n = wordNodes[node];
    uint32_t &head = buckets[bucketOf(n.word)];
    VPIR_ASSERT(n.prev || head == node,
                "unlinking an unregistered load word");
    if (n.prev)
        wordNodes[n.prev].next = n.next;
    else
        head = n.next;
    if (n.next)
        wordNodes[n.next].prev = n.prev;
    n.prev = 0;
    n.next = 0;
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
    const RbRef src = op.src();
    if (q.producerReuse.valid() && src.valid() &&
        q.producerReuse.idx == src.idx &&
        q.producerReuse.serial == src.serial) {
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
    uint32_t set = table.pcSet(pc);
    const bool is_ld = isLoad(inst.op);
    const bool is_st = isStore(inst.op);

    for (unsigned w = 0; w < table.ways(); ++w) {
        size_t i = table.index(set, w);
        const Entry &e = table[i];
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

        r.entry = RbRef{static_cast<int>(i), e.serial};
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
ReuseBuffer::noteReused(const RbProbeResult &hit, const Instr &)
{
    VPIR_ASSERT(hit.entry.valid(), "noteReused without a hit");
    Entry &e = table[hit.entry.idx];
    if (e.serial != hit.entry.serial)
        return; // overwritten between probe and use; nothing to note
    table.touch(e);
    if (e.fromSquashed)
        e.fromSquashed = false; // recovery credit consumed once
}

void
ReuseBuffer::registerLoad(int idx)
{
    const Entry &e = table[idx];
    unsigned n = wordsSpanned(e.memAddr, e.memSz);
    VPIR_ASSERT(n <= maxLoadWords, "load spans more words than its nodes");
    Addr a = e.memAddr & ~3u;
    for (unsigned k = 0; k < n; ++k, a += 4)
        linkWord(nodeId(idx, k), a);
}

void
ReuseBuffer::unregisterLoad(int idx)
{
    const Entry &e = table[idx];
    unsigned n = wordsSpanned(e.memAddr, e.memSz);
    for (unsigned k = 0; k < n; ++k)
        unlinkWord(nodeId(idx, k));
}

RbRef
ReuseBuffer::insert(const RbInsertInfo &info)
{
    // Refresh an existing instance with identical operands, else
    // fill the set's victim.
    uint32_t set = table.pcSet(info.pc);
    Entry *same = table.find(set, [&info](const Entry &e) {
        return e.valid && e.pc == info.pc && e.op == info.inst.op &&
               e.ops[0].reg == info.srcReg[0] &&
               e.ops[1].reg == info.srcReg[1] &&
               (e.ops[0].reg == REG_INVALID ||
                e.ops[0].value == info.srcVal[0]) &&
               (e.ops[1].reg == REG_INVALID ||
                e.ops[1].value == info.srcVal[1]);
    });
    bool fresh = !same;
    Entry &e = fresh ? table.victim(set) : *same;
    int idx = static_cast<int>(table.indexOf(e));

    const bool new_ld = isLoad(info.inst.op);
    const unsigned new_sz = memSize(info.inst.op);
    // A refreshed load covering the same span keeps its load-index
    // registrations; only a changed span relinks its words.
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
        e.ops[k].setSrc(RbRef{});
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

    table.touch(e);
    return RbRef{idx, e.serial};
}

void
ReuseBuffer::linkSources(const RbRef &ref, const RbRef src_links[2])
{
    if (!ref.valid())
        return;
    Entry &e = table[ref.idx];
    if (e.serial != ref.serial)
        return;
    for (int k = 0; k < 2; ++k)
        e.ops[k].setSrc(src_links[k]);
}

void
ReuseBuffer::storeInvalidate(Addr addr, unsigned size)
{
    unsigned n = wordsSpanned(addr, size);
    Addr a = addr & ~3u;
    for (unsigned k = 0; k < n; ++k, a += 4) {
        for (uint32_t id = buckets[bucketOf(a)]; id;
             id = wordNodes[id].next) {
            if (wordNodes[id].word == a)
                table[entryOfNode(id)].memValid = false;
        }
    }
}

void
ReuseBuffer::markSquashed(const RbRef &ref)
{
    if (!ref.valid())
        return;
    Entry &e = table[ref.idx];
    if (e.valid && e.serial == ref.serial)
        e.fromSquashed = true;
}

std::string
ReuseBuffer::audit() const
{
    // Bucket lists first: each is acyclic, doubly linked, and holds
    // only nodes whose word hashes to it. The walks below rely on it.
    size_t total_regs = 0;
    for (size_t b = 0; b < buckets.size(); ++b) {
        uint32_t prev = 0;
        for (uint32_t id = buckets[b]; id; id = wordNodes[id].next) {
            if (++total_regs > wordNodes.size())
                return "RB load index list is cyclic";
            const WordNode &n = wordNodes[id];
            if (n.prev != prev)
                return "RB load index back link broken";
            if (bucketOf(n.word) != b)
                return "RB load index node in the wrong bucket";
            prev = id;
        }
    }

    size_t expect_regs = 0;
    for (size_t i = 0; i < table.size(); ++i) {
        const Entry &e = table[i];
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
        if (table.pcSet(e.pc) != i / table.ways())
            return at + "entry outside its PC's set";
        if (e.isLd) {
            // Every covered word must index back to this entry,
            // exactly once.
            unsigned n = wordsSpanned(e.memAddr, e.memSz);
            Addr a = e.memAddr & ~3u;
            for (unsigned k = 0; k < n; ++k, a += 4) {
                ++expect_regs;
                unsigned hits = 0;
                for (uint32_t id = buckets[bucketOf(a)]; id;
                     id = wordNodes[id].next) {
                    if (wordNodes[id].word == a && entryOfNode(id) == i)
                        ++hits;
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
    if (total_regs != expect_regs) {
        return "RB load index holds " + std::to_string(total_regs) +
               " registrations, entries imply " +
               std::to_string(expect_regs);
    }
    return "";
}

} // namespace vpir
