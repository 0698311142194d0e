/**
 * @file
 * One set-associative table with LRU replacement.
 *
 * Paper Table 1 gives the caches, the VPT and the reuse buffer one
 * organisation: set associative, LRU replacement. SetAssoc is that
 * organisation, once. It owns the geometry (a power-of-two number of
 * sets of `ways` entries, stored flat: entry i lives in set i / ways),
 * the entries, and one LRU clock for the whole table. Each way keeps
 * the clock value of its last touch, so within a set stamp order is
 * touch order, and a way never touched has stamp 0. A set's victim is
 * its least recently touched way, the lowest way on ties: empty ways
 * fill first, lowest first. The owning table decides how an address
 * maps to a set and what a match is; nothing else.
 */

#ifndef VPIR_COMMON_SET_ASSOC_HH
#define VPIR_COMMON_SET_ASSOC_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitutils.hh"
#include "common/logging.hh"

namespace vpir
{

template <typename Entry>
class SetAssoc
{
  public:
    /** @p entries ways in all, @p ways to a set. Panics unless the
     *  entries divide into a power-of-two number of sets. */
    SetAssoc(uint64_t entries, unsigned ways) : nWays(ways)
    {
        VPIR_ASSERT(ways >= 1 && entries % ways == 0,
                    "entries must divide into ways");
        nSets = static_cast<uint32_t>(entries / ways);
        VPIR_ASSERT(isPowerOf2(entries / ways),
                    "set count not a power of two");
        bits = floorLog2(nSets);
        // Copy one fresh way into every slot: default-constructing
        // each way takes a 16K-entry VPT twice as long.
        slots.assign(entries, Way{});
    }

    uint32_t sets() const { return nSets; }
    unsigned ways() const { return nWays; }
    /** log2(sets()). */
    unsigned setBits() const { return bits; }
    size_t size() const { return slots.size(); }

    /** Set of an instruction address: its word index folded into
     *  setBits() bits (the VPT and the RB index by PC). */
    uint32_t pcSet(uint32_t pc) const { return foldPC(pc, bits); }

    /** Flat index of way @p w of set @p s. */
    size_t
    index(uint32_t s, unsigned w) const
    {
        return static_cast<size_t>(s) * nWays + w;
    }
    /** Flat index of @p e, an entry of this table. */
    size_t
    indexOf(const Entry &e) const
    {
        return static_cast<size_t>(static_cast<const Way *>(&e) -
                                   slots.data());
    }
    Entry &operator[](size_t i) { return slots[i]; }
    const Entry &operator[](size_t i) const { return slots[i]; }
    Entry &way(uint32_t s, unsigned w) { return slots[index(s, w)]; }

    /** The first way of set @p s, in way order, that @p match
     *  accepts; nullptr when none does. Touches nothing. */
    template <typename Match>
    Entry *
    find(uint32_t s, Match &&match)
    {
        for (size_t i = index(s, 0), end = i + nWays; i < end; ++i) {
            if (match(static_cast<const Entry &>(slots[i])))
                return &slots[i];
        }
        return nullptr;
    }
    template <typename Match>
    const Entry *
    find(uint32_t s, Match &&match) const
    {
        return const_cast<SetAssoc *>(this)->find(s, match);
    }

    /** Valid entries holding @p pc, in a PC-indexed table whose
     *  entries have `valid` and `pc` fields (test hook). */
    unsigned
    instancesFor(uint32_t pc) const
    {
        unsigned n = 0;
        for (size_t i = index(pcSet(pc), 0), end = i + nWays; i < end;
             ++i) {
            n += slots[i].valid && slots[i].pc == pc;
        }
        return n;
    }

    /** Make @p e, an entry of this table, its set's most recently
     *  used way. */
    void touch(Entry &e) { static_cast<Way &>(e).stamp = ++clock; }

    /** The way a fill of set @p s replaces: the least recently
     *  touched, the lowest way on ties. The caller fills and touches
     *  it. */
    Entry &
    victim(uint32_t s)
    {
        Way *v = &slots[index(s, 0)];
        for (Way *w = v + 1, *end = v + nWays; w < end; ++w) {
            if (w->stamp < v->stamp)
                v = w;
        }
        return *v;
    }

  private:
    struct Way : Entry
    {
        uint64_t stamp = 0; //!< clock at last touch; 0 = never touched
    };

    std::vector<Way> slots;
    uint32_t nSets;
    unsigned nWays;
    unsigned bits;
    uint64_t clock = 0;
};

} // namespace vpir

#endif // VPIR_COMMON_SET_ASSOC_HH
