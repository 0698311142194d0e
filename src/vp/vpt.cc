#include "vp/vpt.hh"

namespace vpir
{

namespace
{

/** Match for SetAssoc::find: the valid entry of @p pc. */
auto
holding(Addr pc)
{
    return [pc](const auto &e) { return e.valid && e.pc == pc; };
}

} // anonymous namespace

Vpt::Vpt(const VptParams &p) : params(p), table(p.entries, p.ways) {}

Vpt::Entry *
Vpt::findValue(uint32_t set, Addr pc, uint64_t value)
{
    return table.find(set, [pc, value](const Entry &e) {
        return e.valid && e.pc == pc && e.value == value;
    });
}

void
Vpt::insert(uint32_t set, Addr pc, uint64_t value)
{
    Entry &e = table.victim(set);
    e.valid = true;
    e.pc = pc;
    e.value = value;
    // New instances start unconfident: they must be observed again
    // before they are used for prediction. This is what keeps
    // VP_Magic's misprediction rate low on rotating value sequences.
    e.conf.reset(0);
    table.touch(e);
}

VptPrediction
Vpt::predict(Addr pc, uint64_t oracle)
{
    VptPrediction r;
    uint32_t set = table.pcSet(pc);

    if (params.scheme == VpScheme::Lvp) {
        // At most one instance per pc by construction of update().
        if (Entry *e = table.find(set, holding(pc))) {
            table.touch(*e);
            if (e->conf.atLeast(params.confidenceThreshold)) {
                r.valid = true;
                r.value = e->value;
            }
        }
        return r;
    }

    // Magic: an instance matching the oracle wins (the accurate
    // selector of Wang & Franklin would pick it) once it has been
    // observed at least twice; otherwise fall back to the most
    // confident instance, which needs full confidence.
    Entry *best = nullptr;
    for (unsigned w = 0; w < table.ways(); ++w) {
        Entry &e = table.way(set, w);
        if (!e.valid || e.pc != pc)
            continue;
        if (e.value == oracle && e.conf.atLeast(1)) {
            table.touch(e);
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
    uint32_t set = table.pcSet(pc);
    if (params.scheme == VpScheme::Lvp) {
        if (Entry *e = table.find(set, holding(pc))) {
            if (e->value == actual) {
                e->conf.increment();
            } else {
                e->conf.decrement();
                e->value = actual; // last value semantics
            }
            table.touch(*e);
        } else {
            insert(set, pc, actual);
        }
        return;
    }

    // Magic: strengthen the instance holding the actual value
    // (inserting if missing); silence a wrongly predicted instance
    // so stale values stop being offered.
    if (made.valid && made.value != actual) {
        if (Entry *e = findValue(set, pc, made.value))
            e->conf.reset(0);
    }
    if (Entry *e = findValue(set, pc, actual)) {
        e->conf.increment();
        table.touch(*e);
    } else {
        insert(set, pc, actual);
    }
}

std::string
Vpt::audit() const
{
    for (size_t i = 0; i < table.size(); ++i) {
        const Entry &e = table[i];
        if (!e.valid)
            continue;
        if (table.pcSet(e.pc) != i / table.ways()) {
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
