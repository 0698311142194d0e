/**
 * @file
 * Architectural state with an undo journal.
 *
 * The simulator executes instructions functionally in dispatch order,
 * including down mispredicted paths (needed to model IR's recovery of
 * squashed work and VP's spurious branch redirects). Every register
 * and memory write is journaled; a squash rolls the journal back to
 * the offending branch's position, restoring the exact architectural
 * state the correct path must see.
 *
 * Memory is a two-level page table of 4 KiB pages: a 1,024-entry root
 * indexed by the top 10 address bits selects a leaf of 1,024 page
 * pointers indexed by the next 10. A read of an absent leaf or page
 * returns 0 and allocates nothing. Pages are held behind shared_ptr
 * and cloned copy-on-write: copying an EmuState copies its leaves,
 * O(leaves) pointer copies (every workload lives in two: text and
 * data below 0x400000, the stack below 0x7ff000), and the first write
 * to a shared page clones just that page. This is what makes
 * post-warmup snapshots (sim/warm_cache.hh) cheap enough to hand
 * every sweep cell — and every lockstep checker — a private state
 * without re-executing the warmup. shared_ptr's atomic
 * refcounts make concurrent clones of one immutable snapshot safe:
 * writers clone before touching a page whose count exceeds one, and
 * a count of one means this state is the sole owner.
 */

#ifndef VPIR_EMU_STATE_HH
#define VPIR_EMU_STATE_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/logging.hh"
#include "isa/instr.hh"
#include "isa/regs.hh"

namespace vpir
{

/** Position in the undo journal (monotonically increasing). */
using JournalMark = uint64_t;

/** Registers + two-level paged memory + undo journal. */
class EmuState
{
  public:
    EmuState();

    // --- registers ---------------------------------------------------
    /** Read a register (r0 reads as zero). */
    uint64_t
    readReg(RegId r) const
    {
        VPIR_ASSERT(r < NUM_ARCH_REGS, "register id out of range");
        if (r == REG_ZERO)
            return 0;
        return regs[r];
    }

    /** Journaled register write (writes to r0 are dropped). */
    void
    writeReg(RegId r, uint64_t value)
    {
        VPIR_ASSERT(r < NUM_ARCH_REGS, "register id out of range");
        if (r == REG_ZERO)
            return;
        journal.emplace_back(true, r, uint8_t{0}, Addr{0}, regs[r]);
        regs[r] = value;
    }

    /** Non-journaled write, for initialisation only. */
    void initReg(RegId r, uint64_t value);

    // --- memory --------------------------------------------------------
    /** Read size bytes little-endian (size 1, 2, 4 or 8). */
    uint64_t readMem(Addr addr, unsigned size) const;

    /** Journaled memory write. */
    void writeMem(Addr addr, unsigned size, uint64_t value);

    /** Non-journaled write, for loading the initial image. */
    void initMem(Addr addr, unsigned size, uint64_t value);

    /** Bulk non-journaled initialisation. */
    void initBytes(Addr addr, const uint8_t *data, size_t len);

    // --- journal -------------------------------------------------------
    /** Current journal position; instructions record this before
     *  executing so squashes can restore the state exactly. */
    JournalMark
    mark() const
    {
        return journalBase + (journal.size() - journalHead);
    }

    /** Undo all writes made at or after @p m. */
    void rollback(JournalMark m);

    /** Discard journal entries older than @p m (commit). */
    void
    retire(JournalMark m)
    {
        if (m == mark()) {
            // Everything retired (every step of a functional-only
            // loop): no live record is left to keep.
            journalBase = m;
            journal.clear();
            journalHead = 0;
            return;
        }
        retirePrefix(m);
    }

    /** Number of live journal records (test/diagnostic hook). */
    size_t journalDepth() const { return journal.size() - journalHead; }

    // --- copy-on-write observability ---------------------------------
    /** Pages resident in this state's page table. */
    size_t residentPages() const { return resident; }

    /** Pages currently shared with at least one other state. */
    size_t sharedPages() const;

    /** Write faults that cloned a shared page since construction
     *  (copies inherit the source's count; compare deltas). */
    uint64_t cowFaults() const { return cowFaults_; }

  private:
    struct UndoRec
    {
        bool isReg;
        RegId reg;
        uint8_t size;   //!< bytes, memory records only
        Addr addr;
        uint64_t oldValue;
    };

    static constexpr unsigned pageBits = 12;
    static constexpr uint32_t pageSize = 1u << pageBits;
    static constexpr unsigned leafBits = 10;
    static constexpr uint32_t leafPages = 1u << leafBits;
    static constexpr unsigned rootBits = 32 - leafBits - pageBits;
    using Page = std::array<uint8_t, pageSize>;
    /** shared_ptr, not unique_ptr: the default copy operations then
     *  implement the COW clone (pages shared until written). */
    using Leaf = std::array<std::shared_ptr<Page>, leafPages>;

    /** retire() when live records remain after @p m. */
    void retirePrefix(JournalMark m);

    Page &pageFor(Addr addr);
    const Page *pageForRead(Addr addr) const;

    uint64_t readMemRaw(Addr addr, unsigned size) const;
    void writeMemRaw(Addr addr, unsigned size, uint64_t value);

    std::array<uint64_t, NUM_ARCH_REGS> regs;
    /** 1 + the index in leaves of each 4 MiB region's leaf; 0 while
     *  the region has never been written. */
    std::array<uint16_t, 1u << rootBits> root{};
    std::vector<Leaf> leaves;
    size_t resident = 0; //!< non-null page pointers over all leaves
    /** Live records are journal[journalHead, size()): rollback pops
     *  the back, retire advances journalHead, and the retired prefix
     *  is dropped once it outgrows the live part, so the storage
     *  stops growing once the window's high-water mark is reached. */
    std::vector<UndoRec> journal;
    size_t journalHead = 0;
    JournalMark journalBase = 0; //!< mark of journal[journalHead]
    uint64_t cowFaults_ = 0;
};

} // namespace vpir

#endif // VPIR_EMU_STATE_HH
