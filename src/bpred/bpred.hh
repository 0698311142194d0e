/**
 * @file
 * Branch prediction unit: gshare direction predictor (McFarling),
 * branch target buffer for indirect jumps, and a return address stack.
 *
 * Table 1: gshare with a 10-bit global history register and a 16K
 * entry 2-bit counter table. History is updated speculatively at fetch
 * and repaired on squash via per-branch checkpoints; the RAS is
 * checkpointed the same way, which is how the paper's near-100% return
 * prediction rates (Table 2) are achievable in the presence of wrong
 * path fetch.
 */

#ifndef VPIR_BPRED_BPRED_HH
#define VPIR_BPRED_BPRED_HH

#include <array>
#include <cstdint>
#include <vector>

#include "isa/decode.hh"
#include "isa/instr.hh"

namespace vpir
{

/** Gshare configuration. */
struct BpredParams
{
    unsigned historyBits = 10;
    unsigned tableEntries = 16 * 1024;
    unsigned btbEntries = 2048;
    unsigned rasEntries = 16;
};

/** Deepest return stack a checkpoint can hold. Table 1's RAS is 16
 *  deep; a fixed bound keeps checkpoints off the heap, and
 *  BranchPredUnit refuses a deeper rasEntries at construction. */
constexpr unsigned maxRasEntries = 16;

/** Snapshot of the speculative predictor state taken at each fetched
 *  control instruction; restored when that instruction squashes. */
struct BpredCheckpoint
{
    uint32_t ghr = 0;
    unsigned rasTop = 0;
    std::array<Addr, maxRasEntries> ras{};
};

/** What fetch learns about a control instruction. */
struct BpredLookup
{
    bool predTaken = false;   //!< predicted direction
    Addr predTarget = 0;      //!< predicted next PC when taken
    uint32_t ghrUsed = 0;     //!< history value the counters were read with
    bool fromRas = false;     //!< target came from the return stack
};

/** The full branch prediction unit. */
class BranchPredUnit
{
  public:
    explicit BranchPredUnit(const BpredParams &params = BpredParams());

    /**
     * Predict a fetched control instruction and speculatively update
     * history/RAS. Non-control instructions must not be passed here.
     */
    BpredLookup predict(Addr pc, const Instr &inst);

    /** Snapshot speculative state (call before predict()). */
    BpredCheckpoint checkpoint() const;

    /** Restore speculative state after a squash. */
    void restore(const BpredCheckpoint &cp);

    /**
     * Train the direction counters and BTB with the resolved outcome.
     * @param ghr_used History value recorded by the earlier predict().
     */
    void update(Addr pc, const Instr &inst, bool taken, Addr target,
                uint32_t ghr_used);

    /** Direction-table index for a pc/history pair (exposed for tests). */
    uint32_t tableIndex(Addr pc, uint32_t ghr) const;

    /**
     * Squash repair: after restore(), re-apply the squashing branch's
     * own effect on the speculative state with its (re)computed
     * outcome.
     */
    void forceHistoryBit(bool taken);
    /** Squash repair for a surviving call: redo its RAS push. */
    void redoCall(Addr ret) { rasPush(ret); }
    /** Squash repair for a surviving return: redo its RAS pop. */
    void redoReturn() { rasPop(); }

  private:
    BpredParams params;
    /** Two-bit direction counters, a byte each. */
    static constexpr unsigned ctrMax = 3;
    std::vector<uint8_t> table;
    uint32_t ghr;

    struct BtbEntry
    {
        bool valid = false;
        Addr pc = 0;
        Addr target = 0;
    };
    std::vector<BtbEntry> btb;

    std::array<Addr, maxRasEntries> ras{}; //!< first rasEntries used
    unsigned rasTop; //!< index of next push slot

    void rasPush(Addr ret);
    Addr rasPop();
    uint32_t btbIndex(Addr pc) const;
};

} // namespace vpir

#endif // VPIR_BPRED_BPRED_HH
