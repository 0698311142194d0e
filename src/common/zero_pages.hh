/**
 * @file
 * Table storage that costs only the pages a run touches.
 *
 * The VPT, the RB and the caches are flat arrays of several hundred
 * KiB, of which one cell touches a few pages: a program's text folds
 * into a few hundred consecutive sets. ZeroPageAllocator takes their
 * storage from the kernel as an anonymous private mapping, whose
 * pages read as zero until first touched and are returned to the
 * kernel when the table is destroyed, and its value-construct writes
 * nothing. Building a table is then one mapping, and a cell faults in
 * only the pages it touches.
 *
 * That is sound only for entries whose fresh value is all-zero bytes
 * (the zero-fresh rule): stored types must be trivially copyable and
 * trivially destructible, which is checked at compile time, and a
 * value-initialized one must be all-zero bytes, which the language
 * cannot check at compile time for types with default member
 * initializers or padding, so allocate() checks it once per type and
 * panics on a type that breaks it.
 *
 * A std::vector over this allocator keeps the vector's indexing, and
 * with it the index check of a -D_GLIBCXX_ASSERTIONS build. Size it
 * once, while empty: value-construction writes nothing, so elements
 * appended after a shrink would keep the bytes they held before.
 */

#ifndef VPIR_COMMON_ZERO_PAGES_HH
#define VPIR_COMMON_ZERO_PAGES_HH

#include <sys/mman.h>

#include <cstddef>
#include <new>
#include <type_traits>
#include <vector>

#include "common/logging.hh"

namespace vpir
{

/** True when a value-initialized T is all-zero bytes, padding
 *  included: the form a fresh zero page holds. */
template <typename T>
bool
freshIsZero()
{
    alignas(T) unsigned char bytes[sizeof(T)] = {};
    ::new (static_cast<void *>(bytes)) T();
    for (unsigned char b : bytes) {
        if (b != 0)
            return false;
    }
    return true;
}

template <typename T>
class ZeroPageAllocator
{
    static_assert(std::is_trivially_copyable_v<T> &&
                      std::is_trivially_destructible_v<T>,
                  "zero-page storage holds plain entries only");

  public:
    using value_type = T;

    ZeroPageAllocator() = default;
    template <typename U>
    ZeroPageAllocator(const ZeroPageAllocator<U> &)
    {
    }

    T *
    allocate(size_t n)
    {
        static const bool zero_fresh = freshIsZero<T>();
        VPIR_ASSERT(zero_fresh,
                    "zero-page storage needs entries whose fresh value "
                    "is all-zero bytes");
        void *p = mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
        if (p == MAP_FAILED)
            throw std::bad_alloc();
        return static_cast<T *>(p);
    }

    void deallocate(T *p, size_t n) noexcept { munmap(p, n * sizeof(T)); }

    /** Value-construction writes nothing: the page already holds the
     *  fresh entry. Every other construct is the default one. */
    template <typename U>
    void
    construct(U *) noexcept
    {
    }

    template <typename U>
    bool
    operator==(const ZeroPageAllocator<U> &) const
    {
        return true;
    }
};

/** A vector whose value-constructed elements cost nothing until
 *  touched. */
template <typename T>
using ZeroPageVector = std::vector<T, ZeroPageAllocator<T>>;

} // namespace vpir

#endif // VPIR_COMMON_ZERO_PAGES_HH
