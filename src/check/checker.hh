/**
 * @file
 * Lockstep architectural checker.
 *
 * The OoO core executes functionally along the *fetched* path with an
 * undo journal, so a simulator bug (or an injected reuse-buffer fault
 * that slips past early validation) can silently commit a wrong value
 * into architectural state. The checker closes that hole: it owns a
 * completely independent EmuState + Emulator pair and replays every
 * instruction the core RETIRES, in retirement order, comparing
 *
 *   - path continuity (the retired PC must be where the independent
 *     machine's PC points),
 *   - register results (rd and rd2),
 *   - the next PC of control transfers,
 *   - effective address and stored value of memory operations,
 *
 * against what the core committed. On the first mismatch it emits a
 * structured divergence report — cycle, sequence number, PC,
 * disassembly, expected vs actual values, and the last 32 retired
 * instructions — and calls panic(), which a PanicThrowScope turns
 * into a catchable SimError.
 *
 * The checker shares no mutable state with the core: it starts from
 * a copy-on-write clone of the core's start snapshot and otherwise
 * only reads the same immutable Program. That independence is the
 * point.
 */

#ifndef VPIR_CHECK_CHECKER_HH
#define VPIR_CHECK_CHECKER_HH

#include <array>
#include <cstdint>
#include <string>

#include "emu/executor.hh"
#include "emu/state.hh"
#include "isa/instr.hh"

namespace vpir
{

/** Everything the core knows about one retiring instruction. */
struct Retired
{
    uint64_t seq = 0;        //!< dynamic sequence number
    uint64_t cycle = 0;      //!< commit cycle
    Addr pc = 0;
    Instr inst;
    uint64_t result = 0;     //!< value committed to rd
    uint64_t result2 = 0;    //!< value committed to rd2
    Addr nextPC = 0;         //!< PC the core followed after this instr
    Addr memAddr = 0;        //!< effective address (memory ops)
    uint64_t storeValue = 0; //!< value stored (stores)
};

class LockstepChecker
{
  public:
    /**
     * @param program  The (immutable) program image, shared with the
     *                 core by reference.
     * @param start    The core's start state (see makeWarmSnapshot()):
     *                 cloned copy-on-write, so both machines begin the
     *                 checked region at the same PC in the same
     *                 architectural state. The checker still shares no
     *                 *mutable* state with the core — both write-fault
     *                 private pages.
     */
    LockstepChecker(const Program &program, const EmuSnapshot &start);
    /** The checker keeps a reference: a temporary would dangle. */
    LockstepChecker(const Program &&, const EmuSnapshot &) = delete;

    /** Cross-validate one retired instruction; panics on divergence. */
    void onRetire(const Retired &r);

    uint64_t checkedInsts() const { return checked; }

  private:
    [[noreturn]] void diverge(const Retired &r, const std::string &what);
    std::string history() const;

    EmuState state;
    Emulator emu;
    uint64_t checked = 0;

    static constexpr size_t histSize = 32;
    std::array<Retired, histSize> ring{};
    size_t ringCount = 0;
};

} // namespace vpir

#endif // VPIR_CHECK_CHECKER_HH
