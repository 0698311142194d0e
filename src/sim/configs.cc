#include "sim/configs.hh"

#include "check/fault.hh"
#include "common/env.hh"

namespace vpir
{

CoreParams
baseConfig()
{
    CoreParams p;
    // Everything defaults to Table 1 already; be explicit about the
    // memories.
    p.icache = CacheParams{64 * 1024, 2, 32, 1, 6};
    p.dcache = CacheParams{64 * 1024, 2, 32, 1, 6};
    p.technique = Technique::None;
    return p;
}

CoreParams
irConfig(IrValidation validation)
{
    CoreParams p = baseConfig();
    p.technique = Technique::IR;
    p.rb = RbParams{4 * 1024, 4};
    p.irValidation = validation;
    return p;
}

CoreParams
vpConfig(VpScheme scheme, ReexecPolicy reexec,
         BranchResolution branch_res, unsigned verify_latency)
{
    CoreParams p = baseConfig();
    p.technique = Technique::VP;
    p.vpt = VptParams{16 * 1024, 4, scheme, 2, 2};
    p.reexec = reexec;
    p.branchRes = branch_res;
    p.vpVerifyLatency = verify_latency;
    return p;
}

CoreParams
hybridConfig(VpScheme scheme, BranchResolution branch_res,
             unsigned verify_latency)
{
    CoreParams p = baseConfig();
    p.technique = Technique::Hybrid;
    p.vpt = VptParams{16 * 1024, 4, scheme, 2, 2};
    p.rb = RbParams{4 * 1024, 4};
    p.branchRes = branch_res;
    p.vpVerifyLatency = verify_latency;
    return p;
}

std::string
vpConfigLabel(ReexecPolicy reexec, BranchResolution branch_res)
{
    std::string s = reexec == ReexecPolicy::Multiple ? "ME" : "NME";
    s += branch_res == BranchResolution::Speculative ? "-SB" : "-NSB";
    return s;
}

CoreParams
withLimits(CoreParams p, uint64_t max_insts, uint64_t max_cycles)
{
    p.maxInsts = max_insts;
    p.maxCycles = max_cycles;
    return p;
}

void
applyHardeningEnv(CoreParams &p)
{
    p.checkRetire = parseEnvU64("VPIR_CHECK", p.checkRetire ? 1 : 0) != 0;
    p.auditInvariants =
        parseEnvU64("VPIR_AUDIT", p.auditInvariants ? 1 : 0) != 0;
    // Checked runs get a progress watchdog by default: a deadlocked
    // pipeline would otherwise spin to maxCycles silently.
    uint64_t wd_default = p.checkRetire ? 100000 : p.watchdogCycles;
    p.watchdogCycles = parseEnvU64("VPIR_WATCHDOG_CYCLES", wd_default);
    p.faults = faultPlanFromEnv(p.faults);
}

} // namespace vpir
