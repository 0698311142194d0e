/**
 * @file
 * Fixed-capacity circular buffer.
 *
 * The core's per-cycle queues (LSQ, fetch queue, store queue) have
 * hard architectural bounds. Ring allocates its full capacity once at
 * reset() and never touches the allocator again, even as the queues
 * fill and drain every cycle; push/pop are an index increment.
 */

#ifndef VPIR_COMMON_RING_HH
#define VPIR_COMMON_RING_HH

#include <cstddef>
#include <vector>

#include "common/logging.hh"

namespace vpir
{

/** Bounded FIFO/deque over preallocated storage. Capacity is fixed by
 *  reset(); exceeding it is a simulator bug (the callers all check
 *  their architectural limits before pushing). */
template <typename T>
class Ring
{
  public:
    Ring() = default;
    explicit Ring(size_t capacity) { reset(capacity); }

    /** (Re)allocate for @p capacity elements and clear. */
    void
    reset(size_t capacity)
    {
        buf.assign(capacity, T{});
        head = 0;
        count = 0;
    }

    size_t capacity() const { return buf.size(); }
    size_t size() const { return count; }
    bool empty() const { return count == 0; }

    /** Element @p i positions from the front (0 = oldest). */
    T &operator[](size_t i) { return buf[wrap(head + i)]; }
    const T &operator[](size_t i) const { return buf[wrap(head + i)]; }

    T &
    front()
    {
        VPIR_ASSERT(count > 0, "front() on empty ring");
        return buf[head];
    }

    const T &
    front() const
    {
        VPIR_ASSERT(count > 0, "front() on empty ring");
        return buf[head];
    }

    T &
    back()
    {
        VPIR_ASSERT(count > 0, "back() on empty ring");
        return buf[wrap(head + count - 1)];
    }

    const T &
    back() const
    {
        VPIR_ASSERT(count > 0, "back() on empty ring");
        return buf[wrap(head + count - 1)];
    }

    void
    push_back(const T &v)
    {
        VPIR_ASSERT(count < buf.size(), "ring overflow");
        buf[wrap(head + count)] = v;
        ++count;
    }

    /** Pops leave the slot's payload in place; a later push_back
     *  copy-assigns over it. */
    void
    pop_front()
    {
        VPIR_ASSERT(count > 0, "pop_front() on empty ring");
        head = wrap(head + 1);
        --count;
    }

    void
    pop_back()
    {
        VPIR_ASSERT(count > 0, "pop_back() on empty ring");
        --count;
    }

    void
    clear()
    {
        head = 0;
        count = 0;
    }

    /** Forward const iteration (front to back), for range-for. */
    class const_iterator
    {
      public:
        const_iterator(const Ring *r, size_t i) : ring(r), idx(i) {}
        const T &operator*() const { return (*ring)[idx]; }
        const T *operator->() const { return &(*ring)[idx]; }
        const_iterator &
        operator++()
        {
            ++idx;
            return *this;
        }
        bool
        operator!=(const const_iterator &o) const
        {
            return idx != o.idx;
        }

      private:
        const Ring *ring;
        size_t idx;
    };

    const_iterator begin() const { return const_iterator(this, 0); }
    const_iterator end() const { return const_iterator(this, count); }

  private:
    size_t
    wrap(size_t i) const
    {
        return i >= buf.size() ? i - buf.size() : i;
    }

    std::vector<T> buf;
    size_t head = 0;
    size_t count = 0;
};

} // namespace vpir

#endif // VPIR_COMMON_RING_HH
