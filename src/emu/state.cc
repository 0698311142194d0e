#include "emu/state.hh"

#include <algorithm>
#include <bit>
#include <cstring>

#include "common/logging.hh"

namespace vpir
{

// Memory is little-endian, and the single-page accesses copy a value's
// low bytes straight to and from the page.
static_assert(std::endian::native == std::endian::little,
              "EmuState's memcpy accesses assume a little-endian host");

EmuState::EmuState()
{
    regs.fill(0);
}

void
EmuState::initReg(RegId r, uint64_t value)
{
    VPIR_ASSERT(r < NUM_ARCH_REGS, "register id out of range");
    if (r == REG_ZERO)
        return;
    regs[r] = value;
}

EmuState::Page &
EmuState::pageFor(Addr addr)
{
    uint16_t &leaf = root[addr >> (leafBits + pageBits)];
    if (!leaf) {
        leaves.emplace_back();
        leaf = static_cast<uint16_t>(leaves.size());
    }
    auto &p = leaves[leaf - 1][(addr >> pageBits) & (leafPages - 1)];
    if (!p) {
        p = std::make_shared<Page>();
        p->fill(0);
        ++resident;
    } else if (p.use_count() > 1) {
        // Write fault on a shared page: clone before mutating so every
        // other state sharing it keeps its snapshot intact. A stale
        // use_count read from a concurrent clone's release can only
        // cause a harmless extra copy, never a missed one: the count
        // cannot grow without this owner copying the state itself.
        p = std::make_shared<Page>(*p);
        ++cowFaults_;
    }
    return *p;
}

const EmuState::Page *
EmuState::pageForRead(Addr addr) const
{
    uint16_t leaf = root[addr >> (leafBits + pageBits)];
    if (!leaf)
        return nullptr;
    return leaves[leaf - 1][(addr >> pageBits) & (leafPages - 1)].get();
}

size_t
EmuState::sharedPages() const
{
    size_t n = 0;
    for (const Leaf &leaf : leaves)
        for (const auto &p : leaf)
            if (p.use_count() > 1)
                ++n;
    return n;
}

uint64_t
EmuState::readMemRaw(Addr addr, unsigned size) const
{
    uint32_t off = addr & (pageSize - 1);
    if (off + size <= pageSize) {
        // Single-page access (the overwhelming case): one table walk
        // instead of one per byte.
        const Page *p = pageForRead(addr);
        if (!p)
            return 0;
        uint64_t v = 0;
        std::memcpy(&v, p->data() + off, size);
        return v;
    }
    uint64_t v = 0;
    for (unsigned b = 0; b < size; ++b) {
        Addr a = addr + b;
        const Page *p = pageForRead(a);
        uint8_t byte = p ? (*p)[a & (pageSize - 1)] : 0;
        v |= static_cast<uint64_t>(byte) << (8 * b);
    }
    return v;
}

void
EmuState::writeMemRaw(Addr addr, unsigned size, uint64_t value)
{
    uint32_t off = addr & (pageSize - 1);
    if (off + size <= pageSize) {
        Page &p = pageFor(addr); // one lookup + at most one COW fault
        std::memcpy(p.data() + off, &value, size);
        return;
    }
    for (unsigned b = 0; b < size; ++b) {
        Addr a = addr + b;
        pageFor(a)[a & (pageSize - 1)] =
            static_cast<uint8_t>(value >> (8 * b));
    }
}

uint64_t
EmuState::readMem(Addr addr, unsigned size) const
{
    VPIR_ASSERT(size == 1 || size == 2 || size == 4 || size == 8,
                "bad memory access size");
    return readMemRaw(addr, size);
}

void
EmuState::writeMem(Addr addr, unsigned size, uint64_t value)
{
    VPIR_ASSERT(size == 1 || size == 2 || size == 4 || size == 8,
                "bad memory access size");
    journal.emplace_back(false, RegId{0}, static_cast<uint8_t>(size), addr,
                         readMemRaw(addr, size));
    writeMemRaw(addr, size, value);
}

void
EmuState::initMem(Addr addr, unsigned size, uint64_t value)
{
    VPIR_ASSERT(size == 1 || size == 2 || size == 4 || size == 8,
                "bad memory access size");
    writeMemRaw(addr, size, value);
}

void
EmuState::initBytes(Addr addr, const uint8_t *data, size_t len)
{
    // Page-at-a-time: image loading is on the snapshot-build path.
    size_t i = 0;
    while (i < len) {
        Addr a = addr + static_cast<Addr>(i);
        uint32_t off = a & (pageSize - 1);
        size_t chunk = std::min<size_t>(len - i, pageSize - off);
        std::memcpy(pageFor(a).data() + off, data + i, chunk);
        i += chunk;
    }
}

void
EmuState::rollback(JournalMark m)
{
    VPIR_ASSERT(m >= journalBase, "rollback past retired state");
    while (mark() > m) {
        const UndoRec &u = journal.back();
        if (u.isReg)
            regs[u.reg] = u.oldValue;
        else
            writeMemRaw(u.addr, u.size, u.oldValue);
        journal.pop_back();
    }
}

void
EmuState::retirePrefix(JournalMark m)
{
    VPIR_ASSERT(m <= mark(), "retire beyond journal head");
    if (m <= journalBase)
        return;
    journalHead += m - journalBase;
    journalBase = m;
    // retire() took the everything-retired case, so records remain.
    size_t live = journal.size() - journalHead;
    if (journalHead >= live) {
        // Compact: this moves no more live records than it drops
        // retired ones, so retire stays amortised O(1).
        journal.erase(journal.begin(),
                      journal.begin() +
                          static_cast<std::ptrdiff_t>(journalHead));
        journalHead = 0;
    }
}

} // namespace vpir
