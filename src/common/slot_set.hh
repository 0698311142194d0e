/**
 * @file
 * Fixed-capacity bitmask over small integer slot indices.
 *
 * The core's scheduling sets (ready set, unresolved-control set) are
 * subsets of ROB slots — at most a few hundred — and are consulted
 * every cycle. SlotSet packs membership into machine words: test,
 * insert, and erase are one masked word op, and iteration walks set
 * bits with ctz so an almost-empty set costs almost nothing.
 * Iteration reads membership live, so a walk's visitor may change the
 * set as it goes.
 */

#ifndef VPIR_COMMON_SLOT_SET_HH
#define VPIR_COMMON_SLOT_SET_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/logging.hh"

namespace vpir
{

/** Bounded set of slot indices [0, capacity). Capacity is fixed by
 *  reset(); membership ops are O(1), iteration O(words + popcount). */
class SlotSet
{
  public:
    SlotSet() = default;
    explicit SlotSet(size_t capacity) { reset(capacity); }

    /** (Re)size for @p capacity slots and clear. */
    void
    reset(size_t capacity)
    {
        cap = capacity;
        words.assign((capacity + 63) / 64, 0);
        n = 0;
    }

    size_t capacity() const { return cap; }
    size_t count() const { return n; }
    bool empty() const { return n == 0; }

    bool
    test(int slot) const
    {
        VPIR_ASSERT(inRange(slot), "slot-set index out of range");
        return (words[word(slot)] >> bit(slot)) & 1;
    }

    /** Idempotent: inserting a member is a no-op. */
    void
    insert(int slot)
    {
        VPIR_ASSERT(inRange(slot), "slot-set index out of range");
        uint64_t m = uint64_t{1} << bit(slot);
        uint64_t &w = words[word(slot)];
        n += !(w & m);
        w |= m;
    }

    /** Idempotent: erasing a non-member is a no-op. */
    void
    erase(int slot)
    {
        VPIR_ASSERT(inRange(slot), "slot-set index out of range");
        uint64_t m = uint64_t{1} << bit(slot);
        uint64_t &w = words[word(slot)];
        n -= !!(w & m);
        w &= ~m;
    }

    void
    clear()
    {
        for (uint64_t &w : words)
            w = 0;
        n = 0;
    }

    /** Visit members in ascending slot order; @p f returns false to
     *  stop early. */
    template <typename F>
    void
    forEach(F f) const
    {
        forEachFrom(0, f);
    }

    /** Visit members in ring order: ascending from @p start, wrapping
     *  at capacity. With ROB slots this is program order when @p start
     *  is the ROB head. Membership is read live: @p f may insert and
     *  erase members, and the walk visits a member inserted ahead of
     *  it (in ring order), but not one inserted behind it or erased
     *  ahead of it. The core walks its sets this way several times a
     *  cycle, mostly nearly empty, so the walk returns as soon as the
     *  set is empty. */
    template <typename F>
    void
    forEachFrom(size_t start, F f) const
    {
        VPIR_ASSERT(start <= cap, "ring start beyond capacity");
        if (start == cap)
            start = 0;
        // Word w0 is visited twice: its bits from start on first, its
        // bits below start last. Bits at or above cap are never set.
        const size_t nw = words.size();
        const size_t w0 = start / 64;
        const uint64_t below = (uint64_t{1} << (start % 64)) - 1;
        for (size_t k = 0; k <= nw && n != 0; ++k) {
            size_t wi = w0 + k < nw ? w0 + k : w0 + k - nw;
            // Bits of this word still ahead of the walk.
            uint64_t ahead = k == 0 ? ~below : k == nw ? below : ~uint64_t{0};
            for (uint64_t w; (w = words[wi] & ahead) != 0;) {
                unsigned b = static_cast<unsigned>(__builtin_ctzll(w));
                ahead &= ~((uint64_t{2} << b) - 1); // 2 << 63 wraps to 0
                if (!f(static_cast<int>(wi * 64 + b)))
                    return;
            }
        }
    }

  private:
    bool
    inRange(int slot) const
    {
        return slot >= 0 && static_cast<size_t>(slot) < cap;
    }

    static size_t word(int slot) { return static_cast<size_t>(slot) / 64; }
    static unsigned bit(int slot) { return static_cast<unsigned>(slot) % 64; }

    std::vector<uint64_t> words;
    size_t cap = 0;
    size_t n = 0;
};

} // namespace vpir

#endif // VPIR_COMMON_SLOT_SET_HH
