#include "redundancy/redundancy.hh"

#include <utility>
#include <vector>

#include "common/logging.hh"
#include "emu/executor.hh"
#include "emu/state.hh"
#include "isa/decode.hh"

namespace vpir
{

namespace
{

/** Mix two operand values into one lookup key. */
uint64_t
operandKey(uint64_t a, uint64_t b)
{
    uint64_t h = a * 0x9e3779b97f4a7c15ull;
    h ^= (b + 0x517cc1b727220a95ull) + (h << 6) + (h >> 2);
    return h;
}

/** A results-buffer slot: one result value. */
struct ResultSlot
{
    uint64_t key;
};

/** An operand-buffer slot: operand tuple -> last result from it. */
struct OperandSlot
{
    uint64_t key;
    uint64_t value;
};

/**
 * One history buffer: an open-addressing table of Slots keyed by a
 * 64-bit key. Power-of-two slots, linear probing, load at most 5/8
 * and a multiplicative hash. Key 0 marks an empty slot, so that key
 * is kept out of line. A program's tables outgrow the L2, and the
 * analysis runs faster the smaller they are: 5/8 is the lowest load
 * that holds the paper's 10K-instance cap in 16K slots (1/2 took
 * 32K); a higher one only lengthens the probes.
 */
template <typename Slot>
class HistTable
{
  public:
    /** A key's slot (null when absent and not inserted), and whether
     *  the key was present before. */
    struct Lookup
    {
        Slot *slot;
        bool found;
    };

    size_t size() const { return used + hasZero; }

    /** Find @p key, inserting it when absent and @p mayInsert. The
     *  caller sets the rest of an inserted slot. */
    Lookup
    findOrInsert(uint64_t key, bool mayInsert)
    {
        if (key == 0) {
            bool found = hasZero;
            hasZero |= mayInsert;
            return {hasZero ? &zero : nullptr, found};
        }
        size_t i = slots.empty() ? 0 : probe(key);
        if (!slots.empty() && slots[i].key == key)
            return {&slots[i], true};
        if (!mayInsert)
            return {nullptr, false};
        if (8 * (used + 1) > 5 * slots.size()) {
            grow();
            i = probe(key);
        }
        ++used;
        slots[i].key = key;
        return {&slots[i], false};
    }

  private:
    static constexpr unsigned initialBits = 3;

    /** The slot holding @p key, or the empty slot its probe ends at. */
    size_t
    probe(uint64_t key) const
    {
        size_t mask = slots.size() - 1;
        size_t i = static_cast<size_t>((key * 0x9e3779b97f4a7c15ull) >> shift);
        while (slots[i].key != key && slots[i].key != 0)
            i = (i + 1) & mask;
        return i;
    }

    void
    grow()
    {
        unsigned bits = slots.empty() ? initialBits : 65 - shift;
        std::vector<Slot> old =
            std::exchange(slots, std::vector<Slot>(size_t{1} << bits));
        shift = 64 - bits;
        for (const Slot &s : old)
            if (s.key != 0)
                slots[probe(s.key)] = s;
    }

    std::vector<Slot> slots;
    unsigned shift = 64;
    size_t used = 0;      //!< nonzero keys in slots
    bool hasZero = false; //!< key 0, held in zero
    Slot zero{};
};

/**
 * Per-static-instruction history buffers. Each holds at most
 * maxInstances keys; once full it stops changing, including the
 * values already stored.
 */
struct StaticHistory
{
    HistTable<ResultSlot> results;
    HistTable<OperandSlot> byOperands;
    uint64_t lastResult = 0;
    uint64_t prevResult = 0;
    unsigned seen = 0;
};

/** Last writer of each architectural register. */
struct WriterInfo
{
    uint64_t index = 0;     //!< dynamic instruction number
    bool reused = false;    //!< that instance was itself reused
                            //!< (repeated with matching operands)
    bool valid = false;
};

} // anonymous namespace

RedundancyStats
analyzeRedundancy(const Program &program, const RedundancyParams &params)
{
    RedundancyStats out;
    EmuState state;
    Emulator emu(program, state);
    Emulator::loadProgram(program, state);

    // One history per text word, beside the emulator's static decode
    // of that word: Emulator::step halts off the text, so every
    // analysed PC has a slot.
    const std::vector<StaticInst> &statics = emu.staticTable();
    std::vector<StaticHistory> hist(statics.size());
    WriterInfo writers[NUM_ARCH_REGS] = {};

    ExecResult er;
    uint64_t idx = 0;
    while (!emu.halted() && idx < params.maxInsts) {
        emu.step(er);
        if (er.halted)
            break;
        ++idx;
        ++out.totalDynamic;
        state.retire(state.mark()); // keep the journal bounded

        size_t slot = (er.pc - program.textBase) / 4;
        VPIR_ASSERT(slot < hist.size(), "analysed PC outside the text");
        const StaticInst &si = statics[slot];
        bool produces = si.inst.rd != REG_INVALID &&
                        si.di.cls != InstClass::Nop;

        bool this_reused = false;
        if (produces) {
            ++out.resultProducing;
            StaticHistory &h = hist[slot];
            uint64_t result = er.out.result;

            // Both buffers are classified by their contents before
            // this instance's inserts, and insert only while below
            // the cap; a full operand buffer keeps its stored results.
            // An instance is reused when it repeats a result that
            // was computed from the same operand values before
            // (paper §4.3: the operand-based reuse test succeeds).
            bool operands_open = h.byOperands.size() < params.maxInstances;
            auto [op, operands_known] = h.byOperands.findOrInsert(
                operandKey(er.srcVals[0], er.srcVals[1]), operands_open);
            bool operands_seen = operands_known && op->value == result;
            if (operands_open)
                op->value = result;

            // Operand buffer first: when it already proves the result
            // repeated and the results buffer has never been full,
            // the results probe is skipped. This is exact. The stored
            // value is an earlier instance's result, and a results
            // buffer below its cap now was below it then, so it took
            // that result: the probe could only find the key and
            // insert nothing. Once the results buffer is full, a
            // stored result may be newer than the cap and absent from
            // it, so the probe stays.
            bool results_open = h.results.size() < params.maxInstances;
            bool is_repeated =
                (operands_seen && results_open) ||
                h.results.findOrInsert(result, results_open).found;
            bool is_derivable = false;
            if (!is_repeated && h.seen >= 2) {
                uint64_t stride = h.lastResult - h.prevResult;
                is_derivable = result == h.lastResult + stride;
            }
            this_reused = is_repeated && operands_seen;

            if (is_repeated) {
                ++out.repeated;

                // Figure 9: producer readiness for this instance.
                // Inputs are ready when every producer is either
                // reused itself or at least `producerDistance`
                // instructions ahead (paper §4.3).
                bool any_near = false;
                bool any_far = false;
                for (RegId r : si.src) {
                    if (r == REG_INVALID)
                        continue;
                    const WriterInfo &w = writers[r];
                    if (!w.valid)
                        continue; // architectural: long ago
                    if (w.reused)
                        continue;
                    if (idx - w.index < params.producerDistance)
                        any_near = true;
                    else
                        any_far = true;
                }
                if (any_near)
                    ++out.prodNear;
                else if (any_far)
                    ++out.prodFar;
                else
                    ++out.prodReused;

                if (!operands_seen)
                    ++out.inputsDifferent;
                if (operands_seen && !any_near)
                    ++out.reusable;
            } else if (is_derivable) {
                ++out.derivable;
            } else if (!results_open) {
                ++out.unaccounted;
            } else {
                ++out.unique;
            }

            h.prevResult = h.lastResult;
            h.lastResult = result;
            ++h.seen;
        }

        // Track register writers for the readiness model.
        for (RegId r : si.dst) {
            if (r != REG_INVALID)
                writers[r] = WriterInfo{idx, this_reused, true};
        }
    }

    return out;
}

} // namespace vpir
