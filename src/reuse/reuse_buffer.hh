/**
 * @file
 * Reuse Buffer implementing scheme S_{n+d} (Sodani & Sohi, ISCA'97)
 * with the two augmentations of the MICRO'98 paper (§4.1.2):
 * operand values are stored with each entry, entries survive operand
 * overwrites with equal values, and entries whose operand values
 * become current again are revalidated. With those augmentations the
 * start-entry reuse test reduces to comparing stored operand values
 * against the current architectural register values — *when those are
 * available at decode*; unavailable operands fail the test unless a
 * dependence pointer links the entry to one reused in the same window
 * (the chain-collapse case).
 *
 * Geometry per the paper: 4K entries, 4-way set associative by PC,
 * LRU replacement; load entries keep separate address/result validity,
 * and stores invalidate the result (not address) part of matching
 * loads. Entries inserted by instructions that are later squashed stay
 * in the buffer: reusing one recovers squashed work (paper Table 5).
 */

#ifndef VPIR_REUSE_REUSE_BUFFER_HH
#define VPIR_REUSE_REUSE_BUFFER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/set_assoc.hh"
#include "isa/decode.hh"
#include "isa/instr.hh"

namespace vpir
{

/** Reuse buffer configuration. */
struct RbParams
{
    unsigned entries = 4 * 1024;
    unsigned ways = 4;
};

/** Reference to a specific version of an RB entry. */
struct RbRef
{
    int idx = -1;        //!< flat entry index, -1 = none
    uint64_t serial = 0; //!< version stamp at link/insert time

    bool valid() const { return idx >= 0; }
};

/** Per-operand inputs to the reuse test, provided by the core. */
struct RbOperandQuery
{
    RegId reg = REG_INVALID;
    bool ready = false;      //!< value available at decode time
    uint64_t value = 0;      //!< current architectural value (if ready)
    RbRef producerReuse;     //!< RB entry the in-flight producer of
                             //!< this register was reused from (if any)
};

/** Outcome of a reuse probe. */
struct RbProbeResult
{
    bool resultReused = false; //!< full result (or branch outcome) reuse
    bool addrReused = false;   //!< memory ops: address part reused
    RbRef entry;               //!< entry that hit
    uint64_t result = 0;
    uint64_t result2 = 0;
    bool taken = false;        //!< branches: stored outcome
    Addr nextPC = 0;
    Addr memAddr = 0;          //!< memory ops: stored effective address
    uint64_t memValue = 0;     //!< loads: stored loaded value
    bool recoveredSquashedWork = false;
};

/** Everything insert() needs about an executed instruction. */
struct RbInsertInfo
{
    Addr pc = 0;
    Instr inst;
    RegId srcReg[2] = {REG_INVALID, REG_INVALID};
    uint64_t srcVal[2] = {0, 0};
    uint64_t result = 0;
    uint64_t result2 = 0;
    bool taken = false;
    Addr nextPC = 0;
    Addr memAddr = 0;
    uint64_t memValue = 0;
};

/** The reuse buffer. */
class ReuseBuffer
{
  public:
    explicit ReuseBuffer(const RbParams &params = RbParams());

    /**
     * Reuse test for the instruction at @p pc. Pure lookup: no state
     * is modified. All instances of pc in the set are tested and the
     * first passing instance is returned (paper footnote 1).
     */
    RbProbeResult probe(Addr pc, const Instr &inst,
                        const RbOperandQuery ops[2]) const;

    /**
     * Commit to a probe hit: touches LRU, updates the register link
     * table so younger entries chain to this one, and consumes the
     * squashed-work-recovery credit.
     */
    void noteReused(const RbProbeResult &hit, const Instr &inst);

    /**
     * Insert (or refresh) an entry for an executed instruction.
     * Called at writeback, including for wrong-path instructions.
     * @return reference to the entry written.
     */
    RbRef insert(const RbInsertInfo &info);

    /**
     * Attach dependence pointers ('d') to an entry written by
     * insert(). The core resolves the links through the ROB (exact
     * program-order producers) and calls this right after insert().
     */
    void linkSources(const RbRef &ref, const RbRef src_links[2]);

    /** A store executed: clear result validity of overlapping loads. */
    void storeInvalidate(Addr addr, unsigned size);

    /** The instruction that wrote this entry was squashed after
     *  executing; reusing the entry later counts as recovered work. */
    void markSquashed(const RbRef &ref);

    /** Number of valid entries holding @p pc (test hook). */
    unsigned instancesFor(Addr pc) const { return table.instancesFor(pc); }

    /**
     * Structural sanity sweep for VPIR_AUDIT: cached decode bits
     * match the opcode, serials are in range, entries sit in the set
     * their PC indexes to, and the load index and the entry array
     * agree bidirectionally. @return "" when clean, else a
     * description of the first violation. Does not inspect values:
     * injected value faults must stay invisible to the audit.
     */
    std::string audit() const;

  private:
    struct Operand
    {
        RegId reg = REG_INVALID;
        uint64_t value = 0;
        RbRef src;       //!< dependence pointer (S_{n+d}'s 'd')
    };

    struct Entry
    {
        bool valid = false;
        Addr pc = 0;
        Op op = Op::NOP;
        Operand ops[2];
        uint64_t result = 0;
        uint64_t result2 = 0;
        bool taken = false;
        Addr nextPC = 0;
        Addr memAddr = 0;
        uint64_t memValue = 0;
        bool memValid = false;     //!< loads: result not killed by store
        bool fromSquashed = false; //!< inserted by squashed instruction
        bool isLd = false;         //!< cached isLoad(op)
        unsigned memSz = 0;        //!< cached memSize(op), 0 if not mem
        uint64_t serial = 0;
    };

    /** One word of a load entry's registration in the load index. */
    struct WordNode
    {
        Addr word = 0;
        int prev = -1; //!< node ids in the bucket's list, -1 = none
        int next = -1;
    };
    /** An 8-byte load at a misaligned address covers three words. */
    static constexpr unsigned maxLoadWords = 3;

    bool operandOk(const Operand &op, const RbOperandQuery &q) const;
    void unregisterLoad(int idx);
    void registerLoad(int idx);
    uint32_t bucketOf(Addr word) const;
    void linkWord(int node, Addr word);
    void unlinkWord(int node);

    SetAssoc<Entry> table; //!< an RbRef's idx is the flat index
    uint64_t nextSerial = 1;

    /** Last RB entry whose instruction wrote each register ('n'+'d'
     *  link formation). */
    RbRef regLink[NUM_ARCH_REGS];

    /** Load index, word address -> load entries covering it, as
     *  intrusive lists over a fixed node pool: node k of entry i is
     *  wordNodes[i * maxLoadWords + k], linked into the bucket of
     *  the k-th word entry i covers while it is a valid load. */
    std::vector<WordNode> wordNodes;
    std::vector<int> buckets; //!< list heads by word hash, -1 = empty
    unsigned bucketBits;
};

} // namespace vpir

#endif // VPIR_REUSE_REUSE_BUFFER_HH
