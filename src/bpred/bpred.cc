#include "bpred/bpred.hh"

#include "common/bitutils.hh"
#include "common/logging.hh"
#include "common/sat_counter.hh"

namespace vpir
{

BranchPredUnit::BranchPredUnit(const BpredParams &p)
    : params(p),
      table(p.tableEntries, 1), // weakly not-taken
      ghr(0),
      btb(p.btbEntries),
      rasTop(0)
{
    VPIR_ASSERT(isPowerOf2(p.tableEntries), "table size not power of 2");
    VPIR_ASSERT(isPowerOf2(p.btbEntries), "btb size not power of 2");
    VPIR_ASSERT(p.rasEntries >= 1 && p.rasEntries <= maxRasEntries,
                "rasEntries must be 1..16 (BpredCheckpoint's fixed RAS)");
}

uint32_t
BranchPredUnit::tableIndex(Addr pc, uint32_t hist) const
{
    unsigned bits = floorLog2(params.tableEntries);
    uint32_t pc_part = foldPC(pc, bits);
    // XOR the history into the high end of the index (gshare).
    uint32_t h = hist & ((1u << params.historyBits) - 1);
    return (pc_part ^ (h << (bits - params.historyBits))) &
           (params.tableEntries - 1);
}

uint32_t
BranchPredUnit::btbIndex(Addr pc) const
{
    return foldPC(pc, floorLog2(params.btbEntries));
}

void
BranchPredUnit::rasPush(Addr ret)
{
    ras[rasTop] = ret;
    rasTop = (rasTop + 1) % params.rasEntries;
}

Addr
BranchPredUnit::rasPop()
{
    rasTop = (rasTop + params.rasEntries - 1) % params.rasEntries;
    return ras[rasTop];
}

BpredCheckpoint
BranchPredUnit::checkpoint() const
{
    BpredCheckpoint cp;
    cp.ghr = ghr;
    cp.rasTop = rasTop;
    cp.ras = ras;
    return cp;
}

void
BranchPredUnit::restore(const BpredCheckpoint &cp)
{
    ghr = cp.ghr;
    rasTop = cp.rasTop;
    ras = cp.ras;
}

BpredLookup
BranchPredUnit::predict(Addr pc, const Instr &inst)
{
    VPIR_ASSERT(isControl(inst.op), "predict() on non-control op");
    BpredLookup r;
    r.ghrUsed = ghr;

    if (isCondBranch(inst.op)) {
        uint32_t idx = tableIndex(pc, ghr);
        r.predTaken = satUpperHalf(table[idx], ctrMax);
        r.predTarget = inst.target;
        // Speculative history update with the predicted direction.
        ghr = ((ghr << 1) | (r.predTaken ? 1u : 0u)) &
              ((1u << params.historyBits) - 1);
        return r;
    }

    // Unconditional control.
    r.predTaken = true;
    if (isCall(inst.op))
        rasPush(pc + 4);

    if (isReturn(inst)) {
        r.predTarget = rasPop();
        r.fromRas = true;
    } else if (isIndirectJump(inst.op)) {
        const BtbEntry &e = btb[btbIndex(pc)];
        r.predTarget = (e.valid && e.pc == pc) ? e.target : pc + 4;
    } else {
        r.predTarget = inst.target; // direct J/JAL: decoded target
    }
    return r;
}

void
BranchPredUnit::forceHistoryBit(bool taken)
{
    ghr = ((ghr << 1) | (taken ? 1u : 0u)) &
          ((1u << params.historyBits) - 1);
}

void
BranchPredUnit::update(Addr pc, const Instr &inst, bool taken, Addr target,
                       uint32_t ghr_used)
{
    if (isCondBranch(inst.op)) {
        uint32_t idx = tableIndex(pc, ghr_used);
        if (taken)
            satIncrement(table[idx], ctrMax);
        else
            satDecrement(table[idx]);
        return;
    }
    if (isIndirectJump(inst.op) && !isReturn(inst)) {
        BtbEntry &e = btb[btbIndex(pc)];
        e.valid = true;
        e.pc = pc;
        e.target = target;
    }
}

} // namespace vpir
