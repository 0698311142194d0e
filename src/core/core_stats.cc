#include "core/core_stats.hh"

#include "common/fnv.hh"

namespace vpir
{

uint64_t
statsSchemaFingerprint()
{
    static const uint64_t fp = [] {
        Fnv64 f;
        CoreStats tmp;
        forEachStatField(tmp,
                         [&f](const char *name, uint64_t &) { f.name(name); });
        return f.h;
    }();
    return fp;
}

void
CoreStats::exportTo(StatSet &out) const
{
    out.set("cycles", static_cast<double>(cycles));
    out.set("committed_insts", static_cast<double>(committedInsts));
    out.set("committed_mem_ops", static_cast<double>(committedMemOps));
    out.set("committed_loads", static_cast<double>(committedLoads));
    out.set("committed_stores", static_cast<double>(committedStores));
    out.set("ipc", ipc());
    out.set("executed_insts", static_cast<double>(executedInsts));
    out.set("squashed_executed", static_cast<double>(squashedExecuted));
    out.set("squashed_recovered",
            static_cast<double>(squashedRecovered));
    out.set("branch_squashes", static_cast<double>(branchSquashes));
    out.set("spurious_squashes", static_cast<double>(spuriousSquashes));
    out.set("cond_branches", static_cast<double>(condBranches));
    out.set("cond_mispredicted", static_cast<double>(condMispredicted));
    out.set("returns", static_cast<double>(returns));
    out.set("return_mispredicted",
            static_cast<double>(returnMispredicted));
    out.set("branch_res_lat_sum",
            static_cast<double>(branchResLatSum));
    out.set("branch_res_count", static_cast<double>(branchResCount));
    out.set("branch_res_lat_avg",
            ratio(static_cast<double>(branchResLatSum),
                  static_cast<double>(branchResCount)));
    out.set("resource_requests",
            static_cast<double>(resourceRequests));
    out.set("resource_denied", static_cast<double>(resourceDenied));
    out.set("resource_contention",
            ratio(static_cast<double>(resourceDenied),
                  static_cast<double>(resourceRequests)));
    for (int i = 0; i < 4; ++i) {
        out.set("exec_count_" + std::to_string(i + 1),
                static_cast<double>(execCountHist[i]));
    }
    out.set("reused_results", static_cast<double>(reusedResults));
    out.set("reused_control", static_cast<double>(reusedControl));
    out.set("resolvable_control",
            static_cast<double>(resolvableControl));
    out.set("reused_addrs", static_cast<double>(reusedAddrs));
    out.set("vp_result_predicted",
            static_cast<double>(vpResultPredicted));
    out.set("vp_result_correct", static_cast<double>(vpResultCorrect));
    out.set("vp_result_wrong", static_cast<double>(vpResultWrong));
    out.set("vp_addr_predicted",
            static_cast<double>(vpAddrPredicted));
    out.set("vp_addr_correct", static_cast<double>(vpAddrCorrect));
    out.set("vp_addr_wrong", static_cast<double>(vpAddrWrong));
    out.set("value_mispredict_events",
            static_cast<double>(valueMispredictEvents));
    out.set("icache_accesses", static_cast<double>(icacheAccesses));
    out.set("icache_misses", static_cast<double>(icacheMisses));
    out.set("dcache_accesses", static_cast<double>(dcacheAccesses));
    out.set("dcache_misses", static_cast<double>(dcacheMisses));
    out.set("checked_insts", static_cast<double>(checkedInsts));
    out.set("faults_vpt_value", static_cast<double>(faultsVptValue));
    out.set("faults_vpt_conf", static_cast<double>(faultsVptConf));
    out.set("faults_rb_operand", static_cast<double>(faultsRbOperand));
    out.set("faults_rb_result", static_cast<double>(faultsRbResult));
    out.set("faults_rb_link", static_cast<double>(faultsRbLink));
    out.set("faults_rb_dropinv", static_cast<double>(faultsRbDropInv));
    out.set("halted_cleanly", haltedCleanly ? 1.0 : 0.0);
}

} // namespace vpir
