/**
 * @file
 * Value Prediction Table (paper §4.1.1).
 *
 * The table is 16K entries, 4-way set associative with LRU, so up to
 * four value instances can be stored per static instruction. Each
 * entry carries a saturating confidence count, confidenceBits wide
 * (2 bits at Table 1). Two selection schemes are provided:
 *
 *  - VP_Magic: the paper's comparable-to-IR scheme. Among the stored
 *    instances, if the *correct* result is present it is selected
 *    (oracle selection, standing in for the accurate hybrid selectors
 *    of Wang & Franklin); otherwise the most confident instance is
 *    selected. Only confident instances produce predictions.
 *
 *  - VP_LVP: classic last value predictor; one instance per
 *    instruction, value replaced on every misprediction.
 *
 * The same structure is instantiated separately for result values and
 * for effective addresses of memory operations.
 */

#ifndef VPIR_VP_VPT_HH
#define VPIR_VP_VPT_HH

#include <cstdint>
#include <string>

#include "common/set_assoc.hh"
#include "isa/instr.hh"

namespace vpir
{

/** Value selection policy. */
enum class VpScheme : uint8_t
{
    Magic, //!< n unique values + oracle selection (VP_Magic)
    Lvp,   //!< last value predictor (VP_LVP)
};

/** VPT configuration. */
struct VptParams
{
    unsigned entries = 16 * 1024;
    unsigned ways = 4;
    VpScheme scheme = VpScheme::Magic;
    unsigned confidenceBits = 2;      //!< counter width, 1-15 bits
    unsigned confidenceThreshold = 2; //!< LVP's use threshold, <= max
};

/** A prediction returned by the table. */
struct VptPrediction
{
    bool valid = false;    //!< a confident prediction was made
    uint64_t value = 0;
};

/** The value prediction table. */
class Vpt
{
  public:
    /** Panics unless confidenceBits is 1-15 and confidenceThreshold
     *  at most the counter's maximum. */
    explicit Vpt(const VptParams &params = VptParams());

    /**
     * Look up a prediction for the instruction at @p pc.
     *
     * @param oracle The correct value, used only by the Magic scheme's
     *               oracle instance selection (never leaks into LVP).
     */
    VptPrediction predict(Addr pc, uint64_t oracle);

    /**
     * Train the table with the actual value, adjusting confidence of
     * the predicted instance and inserting/replacing instances.
     */
    void update(Addr pc, uint64_t actual, const VptPrediction &made);

    /** Number of valid entries holding @p pc (test hook). */
    unsigned instancesFor(Addr pc) const { return table.instancesFor(pc); }

    /** Structural sanity sweep for VPIR_AUDIT: every valid entry
     *  sits in the set its PC indexes to and its confidence is
     *  within the counter's range. @return "" when clean. */
    std::string audit() const;

    /** The entry storage (test hook: residency checks). */
    const auto &storage() const { return table; }

  private:
    /** Zero-fresh (common/zero_pages.hh), packed into 16 bytes. */
    struct Entry
    {
        uint64_t value = 0;
        Addr pc = 0;
        uint16_t conf = 0; //!< saturating confidence, 0..maxConf
        bool valid = false;
    };

    Entry *findValue(uint32_t set, Addr pc, uint64_t value);
    void insert(uint32_t set, Addr pc, uint64_t value);

    VptParams params;
    unsigned maxConf; //!< saturation of a confidenceBits-wide count
    SetAssoc<Entry> table;
};

} // namespace vpir

#endif // VPIR_VP_VPT_HH
