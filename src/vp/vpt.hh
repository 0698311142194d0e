/**
 * @file
 * Value Prediction Table (paper §4.1.1).
 *
 * The table is 16K entries, 4-way set associative with LRU, so up to
 * four value instances can be stored per static instruction. Each
 * entry carries a 2-bit confidence counter. Two selection schemes are
 * provided:
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
#include <vector>

#include "common/sat_counter.hh"
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
    unsigned confidenceBits = 2;
    unsigned confidenceThreshold = 2;
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

    /** Clear all entries. */
    void reset();

    /** Number of valid entries holding @p pc (test hook). */
    unsigned instancesFor(Addr pc) const;

    /** Structural sanity sweep for VPIR_AUDIT: every valid entry
     *  sits in the set its PC indexes to and its confidence is
     *  within the counter's range. @return "" when clean. */
    std::string audit() const;

  private:
    struct Entry
    {
        bool valid = false;
        Addr pc = 0;
        SatCounter conf{2, 0};
        uint64_t value = 0;
        uint64_t lru = 0; //!< clock at last touch; 0 = never touched
    };

    uint32_t setIndex(Addr pc) const;
    /** First way of @p pc's set in the flat entry array. */
    Entry *setOf(Addr pc) { return &entries[setIndex(pc) * params.ways]; }
    Entry *findValue(Addr pc, uint64_t value);
    void insert(Addr pc, uint64_t value);
    void touch(Entry &e) { e.lru = ++clock; }

    VptParams params;
    uint32_t numSets;
    unsigned setBits;
    std::vector<Entry> entries; //!< [set * ways + way]
    /** One LRU clock for the whole table: within a set, stamp order
     *  is touch order, and never-touched ways tie at 0. */
    uint64_t clock = 0;
};

} // namespace vpir

#endif // VPIR_VP_VPT_HH
