/**
 * @file
 * The 4-way dynamically scheduled superscalar core (paper Table 1),
 * with pluggable Value Prediction and Instruction Reuse.
 *
 * Modelling approach (see DESIGN.md §5): the functional emulator runs
 * in dispatch order along the *fetched* path — wrong paths included —
 * via the undo journal, giving each dynamic instruction its
 * correct-for-that-path ("oracle") results at dispatch. Timing is
 * modelled on top: when values become available, which of them are
 * value-speculative, when predictions verify, and when branches
 * resolve. Executions with speculative inputs re-evaluate the
 * instruction semantics with the speculative values, so branches fed
 * by wrong predictions compute genuinely wrong outcomes and trigger
 * the paper's spurious squashes under SB resolution.
 */

#ifndef VPIR_CORE_CORE_HH
#define VPIR_CORE_CORE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <type_traits>
#include <vector>

#include "bpred/bpred.hh"
#include "check/checker.hh"
#include "check/fault.hh"
#include "common/event_wheel.hh"
#include "common/ring.hh"
#include "common/slot_set.hh"
#include "core/core_stats.hh"
#include "core/sched_profile.hh"
#include "core/fu_pool.hh"
#include "core/params.hh"
#include "emu/executor.hh"
#include "emu/state.hh"
#include "isa/decode.hh"
#include "mem/cache.hh"
#include "reuse/reuse_buffer.hh"
#include "vp/vpt.hh"

namespace vpir
{

/** Reference to a ROB slot guarded by a sequence number. */
struct RobRef
{
    int slot = -1;
    uint64_t seq = 0;

    bool valid() const { return slot >= 0; }
};

/**
 * The scheduling half of an in-flight instruction (reorder buffer /
 * RUU entry): only what the scheduler reads across entries every
 * cycle — a producer's value and timing for its consumers' operand
 * views, a consumer's operands for wakeups, the issue and finalize
 * tests, the store queue's addresses. Everything else lives in the
 * slot's RobCold. A new field goes in RobCold unless the scheduler
 * reads it for another entry. Plain data: dispatch resets a slot by
 * copying one constant fresh image over it.
 */
struct RobEntry
{
    uint64_t seq = 0;           //!< dynamic sequence number
    const StaticInst *si = nullptr; //!< the emulator's static decode

    // Current (possibly speculative) values, as consumers see them.
    uint64_t curResult = 0;
    uint64_t curResult2 = 0;
    uint64_t readyTime = 0;     //!< cycle the current value is usable
    uint64_t finalizeAt = UINT64_MAX;

    bool valid = false;
    bool needsExec = true;      //!< occupies an FU when issued
    bool inFlight = false;      //!< execution outstanding
    bool executedOnce = false;
    bool hasValue = false;      //!< some value (pred/reuse/computed)
    bool finalized = false;     //!< value verified non-speculative
    bool curResult2Valid = false;
    bool memAddrKnown = false;  //!< address computed (or reused/pred)
    bool storeAddrReady = false; //!< AGEN done (for disambiguation)
    bool predicted = false;     //!< result value predicted
    bool addrPredicted = false;
    bool reused = false;        //!< full result reuse
    bool reusedLate = false;    //!< Figure 3 late-validation reuse hit
    bool addrReused = false;

    // Renamed sources.
    RegId srcReg[2] = {REG_INVALID, REG_INVALID};
    RobRef srcRob[2];           //!< in-flight producers (invalid = arch)
    uint64_t usedVals[2] = {0, 0};  //!< operand values of last issue
    /** Copies of the oracle operand values and address (exec.srcVals
     *  and exec.out.memAddr), which the issue and finalize tests
     *  compare against. */
    uint64_t oracleSrc[2] = {0, 0};
    Addr oracleAddr = 0;
    Addr curMemAddr = 0;

    uint64_t completeAt = 0;    //!< cycle the completion is delivered
    uint64_t dispatchCycle = 0;
    int execCount = 0;

    // Incremental-scheduler state (see DESIGN.md §12).
    /** Operands still waiting on a live producer's first publication;
     *  reaching zero moves the entry into the ready set. */
    int pendingOps = 0;
    /** Head of this entry's value-waiter list (consumers linked for
     *  publication wakeups), as an index into Core::waiters; -1 when
     *  empty. */
    int waiterHead = -1;
    /** Head of this entry's finalize-waiter list (consumers parked
     *  until this entry finalizes), indexing Core::finWaiters. */
    int finWaiterHead = -1;
};

/** The rest of an in-flight instruction, in an array parallel to the
 *  ROB (same slot index). Plain data like RobEntry: dispatch resets it
 *  from a fresh image too, then the emulator writes exec in place. */
struct RobCold
{
    ExecResult exec;            //!< oracle outcome along this path
    JournalMark postMark = 0;   //!< journal position after emu step

    // Value prediction training state.
    uint64_t predValue = 0;
    VptPrediction madePred;
    uint64_t addrPredValue = 0;
    VptPrediction madeAddrPred;

    // Instruction reuse state.
    RbRef rbEntry;              //!< entry inserted to / reused from
    bool rbInserted = false;

    // Control state.
    bool curTaken = false;
    bool predTaken = false;     //!< fetch's predicted direction
    bool fromRas = false;
    bool pendingResolve = false;   //!< a publication needs SB action
    bool finalActionDone = false;  //!< final-outcome action happened
    bool resolvedForFetch = false; //!< counts against the 8-branch cap
    bool legitSquashCounted = false;
    Addr curNextPC = 0;
    Addr predNextPC = 0;        //!< fetch's original prediction
    Addr followedNextPC = 0;    //!< path fetch currently follows
    uint32_t ghrUsed = 0;
    uint64_t correctResolveAt = UINT64_MAX; //!< first oracle-consistent
                                            //!< resolution (Figure 4)

    // Pending execution outputs (published at completion).
    uint64_t pendResult = 0;
    uint64_t pendResult2 = 0;
    bool pendTaken = false;
    Addr pendNextPC = 0;
    Addr pendMemAddr = 0;
};

/** Everything fetch hands to dispatch for one instruction. A control
 *  instruction's predictor checkpoint travels beside it, in
 *  Core::fetchCps. */
struct FetchedInst
{
    const StaticInst *si = nullptr;
    Addr pc = 0;
    Addr predNextPC = 0;
    uint32_t ghrUsed = 0;
    bool predTaken = false;
    bool fromRas = false;
};

// Tripwires: 256 hot entries (the window of perfbench's stall machine)
// fit in 48 KiB, a common L1d size, and a fetch record stays within 32
// bytes. Dispatch resets both ROB records with memcpy.
static_assert(sizeof(RobEntry) <= 192, "RobEntry outgrew its budget");
static_assert(sizeof(FetchedInst) <= 32, "FetchedInst outgrew 32 bytes");
static_assert(std::is_trivially_copyable_v<RobEntry>);
static_assert(std::is_trivially_copyable_v<RobCold>);
static_assert(std::is_trivially_copyable_v<FetchedInst>);

/** The out-of-order core. */
class Core
{
  public:
    /**
     * @param warm  Optional start state shared with other cores:
     *              makeWarmSnapshot() on the same program with the
     *              same warmup length. Without one the core builds a
     *              private snapshot the same way. Either is cloned
     *              copy-on-write (O(leaves)) into the core and, when
     *              checkRetire is set, into its lockstep checker, so
     *              the warmup runs at most once per core and the
     *              resulting machine is the same either way.
     */
    Core(const CoreParams &params, const Program &program,
         const EmuSnapshot *warm = nullptr);

    /** Run until halt or the configured limits; returns final stats. */
    const CoreStats &run();

    /** Advance one cycle. @return false when the run is over. */
    bool cycle();

    const CoreStats &stats() const { return st; }
    /** Per-stage cycle profile, sampled one run cycle in
     *  SchedProfile::samplePeriod. Host-dependent — never part of
     *  CoreStats. */
    const SchedProfile &schedProfile() const { return prof; }
    uint64_t now() const { return curCycle; }
    /** Highest dynamic sequence number handed out so far. */
    uint64_t seqAllocated() const { return nextSeq - 1; }
    EmuState &emuState() { return state; }

  private:
    // --- pipeline stages (called in this order each cycle) ----------
    void processCompletions();
    void finalizeScan();
    void resolveControl();
    void commitStage();
    void issueStage();
    void dispatchStage();
    void fetchStage();

    // --- helpers -------------------------------------------------------
    RobEntry &at(int slot) { return rob[slot]; }
    const RobEntry &at(int slot) const { return rob[slot]; }
    RobCold &coldAt(int slot) { return robCold[slot]; }
    const RobCold &coldAt(int slot) const { return robCold[slot]; }
    bool refAlive(const RobRef &r) const;
    int allocRob();
    /** Ring successor and predecessor of a ROB slot. */
    int
    nextSlot(int slot) const
    {
        return slot + 1 == static_cast<int>(params.robEntries) ? 0
                                                               : slot + 1;
    }
    int
    prevSlot(int slot) const
    {
        return (slot == 0 ? static_cast<int>(params.robEntries) : slot) -
               1;
    }

    /** Visit live ROB slots oldest-first until @p fn returns false.
     *  A template (not std::function) — this runs every cycle and
     *  must not allocate. */
    template <typename Fn>
    void
    forEachInOrder(Fn &&fn) const
    {
        int slot = robHead;
        for (unsigned i = 0; i < robUsed; ++i) {
            if (!fn(slot))
                return;
            slot = nextSlot(slot);
        }
    }

    /** Value of register @p reg as produced by entry @p e. */
    uint64_t entryValueFor(const RobEntry &e, RegId reg) const;
    /** Is @p reg's value from producer @p e available at @p t? */
    bool entryValueAvail(const RobEntry &e, RegId reg, uint64_t t) const;

    struct OperandView
    {
        bool avail = false;
        bool final = false;
        uint64_t value = 0;
    };
    /** Current dataflow view of operand @p k of entry @p slot. */
    OperandView operandView(int slot, int k, uint64_t t) const;

    /** Advance the store-address-ready watermark past every ready
     *  store; call after any store's storeAddrReady flips true. */
    void noteStoreAddrReady();
    /** Sequence of the oldest in-flight store whose address is still
     *  unknown (UINT64_MAX if none): O(1) against the watermark, which
     *  auditCycle() checks against a full ROB scan. */
    uint64_t oldestUnknownStoreSeq() const;

    /** Issue @p slot with the operand views the issue scan computed
     *  for it this cycle. */
    void issueEntry(int slot, const OperandView &v0,
                    const OperandView &v1);
    void completeEntry(int slot);
    void doResolve(int slot, Addr computed_next, bool is_final);
    void squashAfter(int slot, Addr redirect);
    void rebuildRename();
    unsigned unresolvedBranches() const;
    void tryDispatchReuse(int slot);
    void tryDispatchPredict(int slot);
    bool loadMayAccess(int slot, bool &forward, RobRef &conflict) const;
    void insertIntoRb(int slot);

    // --- incremental scheduling (DESIGN.md §12) ---------------------
    /** Register the freshly dispatched entry with the scheduler:
     *  waiter links for unavailable operands, ready-set membership,
     *  control-set membership, unresolved-branch counter. */
    void schedOnDispatch(int slot);
    struct WaitList;
    /** Link consumer operand (@p cslot, @p k) into @p pslot's list in
     *  @p list (waiters or finWaiters). */
    void linkWaiter(WaitList &list, int cslot, int k, int pslot);
    /** Unlink consumer operand (@p cslot, @p k) from wherever it is
     *  linked in @p list; no-op when unlinked. */
    void unlinkWaiter(WaitList &list, int cslot, int k);
    /** Producer @p prodSlot just published: re-check its waiters and
     *  move newly unblocked consumers into the ready set. */
    void wakeWaiters(int prodSlot);
    /** Schedule a finalize-recheck event for @p slot at @p at. */
    void scheduleRefinal(int slot, uint64_t at);
    /** Mark @p slot resolved for the fetch-side branch cap, keeping
     *  the unresolved-control counter in step. */
    void noteResolvedForFetch(int slot);
    /** Members of @p s in program (sequence) order, into @p out. */
    void collectInOrder(const SlotSet &s, std::vector<int> &out) const;
    /** Record a cycle at which a time gate opens (idle-skip bound). */
    void
    noteWake(uint64_t at) const
    {
        if (at < schedWake)
            schedWake = at;
    }
    /** Scheduler-structure audit: ready/control/finalize sets,
     *  waiter links and counters against a from-scratch recomputation
     *  over the whole window. */
    void auditSched() const;

    void recordCommitStats(int slot);
    void trainPredictors(int slot);
    void checkRetired(int slot);
    [[noreturn]] void watchdogDump();

    // --- invariant audits (params.auditInvariants / VPIR_AUDIT) -----
    /** End-of-cycle structural audit: instruction conservation,
     *  occupancy bounds, ROB ordering, no in-flight entry past its
     *  completion cycle, the LSQ count and the store-address
     *  watermark against a ROB scan, storeQ liveness, (periodically)
     *  RB/VPT entry sanity, and auditSched(). Panics at the cycle of
     *  first corruption. */
    void auditCycle() const;
    /** Commit-side audit: no instruction may retire carrying an
     *  unvalidated (wrong) predicted or reused value. */
    void auditCommit(int slot) const;
    [[noreturn]] void auditFail(const std::string &what) const;

    // --- configuration / substrate ----------------------------------
    CoreParams params;
    const Program &prog;
    EmuState state;
    Emulator emu;
    Cache icache;
    Cache dcache;
    BranchPredUnit bpred;
    /** Built only when the technique uses them (VP and hybrid: the
     *  VPTs; IR and hybrid: the RB), so a cell never pays for
     *  writing out megabytes of table it does not read. */
    std::optional<Vpt> vptResult;
    std::optional<Vpt> vptAddr;
    std::optional<ReuseBuffer> rb;
    FuPool fus;
    FaultInjector injector;
    std::unique_ptr<LockstepChecker> checker;

    // --- incremental scheduler (DESIGN.md §12) ----------------------
    // Issue, completion, finalize and resolve visit only these
    // candidate sets and wheel events; auditSched() re-derives every
    // membership obligation from a full-window walk.
    /** Slots that might issue: operands plausibly ready, or an
     *  addr-reused/predicted load. Conservative superset of the
     *  entries a full-window issue evaluation would act on; entries
     *  the scan finds unactionable drop out and are re-inserted by
     *  the next relevant wakeup (operand publication). */
    SlotSet readySet;
    /** Unresolved resolvable control entries (resolution candidates);
     *  emptied per entry once its final action is done. */
    SlotSet ctrlSet;
    /** Finalize candidates: completed entries whose finalize check is
     *  worth running. A failed check parks the entry — on a
     *  producer's finalize-waiter list, or on a timed wheel recheck —
     *  instead of polling. */
    SlotSet finalCand;
    /** Completion + finalize-recheck events keyed by due cycle, over
     *  a span longer than any delay this machine schedules. */
    EventWheel wheel;
    /** Waiter node per (consumer slot, operand): doubly linked into
     *  the producer's RobEntry::waiterHead list. Node id is
     *  slot * 2 + k; prodSlot < 0 means unlinked. Links persist from
     *  dispatch until the consumer finalizes (or dies) or the
     *  producer commits: every publication by the producer re-wakes
     *  the consumer into the ready set, which is what lets the issue
     *  scan drop quiescent entries without missing a re-execution. */
    struct OpWaiter
    {
        int prev = -1;
        int next = -1;
        int prodSlot = -1;
        /** The operand has been seen available (pendingOps was
         *  decremented for it); availability is monotone per ROB
         *  incarnation. */
        bool availSeen = false;
    };
    /** The nodes of one kind of waiter list, and the RobEntry field
     *  holding each producer's list head. */
    struct WaitList
    {
        std::vector<OpWaiter> nodes;
        int RobEntry::*head = nullptr;
        OpWaiter &operator[](int id) { return nodes[id]; }
        const OpWaiter &operator[](int id) const { return nodes[id]; }
    };
    WaitList waiters{{}, &RobEntry::waiterHead};
    /** Finalize-waiter nodes, same shape and id scheme as waiters
     *  (availSeen unused): consumer (slot, k) parked on the
     *  producer's RobEntry::finWaiterHead until it finalizes. */
    WaitList finWaiters{{}, &RobEntry::finWaiterHead};
    /** Live counts replacing unresolvedBranches()'s full walks. */
    unsigned robUnresolvedCtrl = 0;
    unsigned fqResolvable = 0;
    /** Earliest cycle any time gate evaluated this cycle could open
     *  (producer finalizeAt, fetch stall end, commit-head wait);
     *  bounds the idle skip. Reset each cycle; mutable because const
     *  evaluation paths (operandView) record hints. */
    mutable uint64_t schedWake = UINT64_MAX;
    /** Any state mutation this cycle? Idle skipping requires none. */
    bool cycleHadWork = false;
    /** Scratch for candidate collection (no per-cycle allocation). */
    std::vector<int> schedScratch;
    std::vector<WheelEvent> dueScratch;
    SchedProfile prof;

    // --- machine state ----------------------------------------------
    std::vector<RobEntry> rob;
    std::vector<RobCold> robCold;
    /** Predictor checkpoint per ROB slot, written at dispatch only for
     *  control instructions (the only ones that squash), so the
     *  entries themselves stay small and heap-free. */
    std::vector<BpredCheckpoint> bpCps;
    int robHead = 0;
    int robTail = 0; //!< next free slot
    unsigned robUsed = 0;
    /** In-flight loads and stores: the LSQ's occupancy, which is all
     *  of the LSQ that dispatch reads. */
    unsigned lsqUsed = 0;
    Ring<FetchedInst> fetchQueue;
    /** Predictor checkpoints of the control instructions in
     *  fetchQueue, in order: fetch takes one per control instruction,
     *  dispatch moves it into bpCps, a squash clears both rings. */
    Ring<BpredCheckpoint> fetchCps;
    /** The in-flight stores in program order: the disambiguation
     *  scans only ever look at stores, so they walk this. */
    Ring<RobRef> storeQ;
    /** storeQ[0, storeAddrPrefix) all have storeAddrReady; the entry
     *  at storeAddrPrefix (when present) does not. Monotone within a
     *  store's lifetime; commit shifts it down, squash clamps it. */
    size_t storeAddrPrefix = 0;
    RobRef regProducer[NUM_ARCH_REGS];

    Addr fetchPC;
    uint64_t fetchResumeCycle = 0;
    uint64_t icacheStallUntil = 0;
    bool fetchHalted = false; //!< stopped at HALT or invalid PC

    uint64_t curCycle = 0;
    uint64_t nextSeq = 1;
    unsigned dcachePortsUsed = 0; //!< this cycle
    bool done = false;

    // Watchdog progress tracking.
    uint64_t lastCommitCycle = 0;
    uint64_t lastCommitInsts = 0;

    /** Dispatched entries dropped by squashes, for the conservation
     *  audit (dispatched == committed + squashed + in-ROB). */
    uint64_t auditSquashed = 0;
    /** VPIR_TEST_AUDIT_CLOBBER: cycle at which to deliberately break
     *  a conservation law, proving the audit catches corruption. */
    uint64_t auditClobberCycle = UINT64_MAX;

    CoreStats st;
};

} // namespace vpir

#endif // VPIR_CORE_CORE_HH
