#include "check/fault.hh"

#include "common/env.hh"

namespace vpir
{

FaultInjector::FaultInjector(const FaultPlan &p) : plan(p), rng(p.seed) {}

bool
FaultInjector::draw(double rate, uint64_t &counter)
{
    if (rng.uniform() >= rate)
        return false;
    ++counter;
    return true;
}

uint64_t
FaultInjector::corrupt(uint64_t v)
{
    // Flip one bit in the low 32: guaranteed to change the value and
    // low bits matter for address and ALU flows alike.
    return v ^ (1ull << rng.below(32));
}

FaultPlan
faultPlanFromEnv(const FaultPlan &defaults)
{
    FaultPlan p = defaults;
    p.seed = parseEnvU64("VPIR_FAULT_SEED", p.seed);
    p.vptValueRate = parseEnvF64("VPIR_FAULT_VPT_VALUE", p.vptValueRate);
    p.vptConfRate = parseEnvF64("VPIR_FAULT_VPT_CONF", p.vptConfRate);
    p.rbOperandRate = parseEnvF64("VPIR_FAULT_RB_OPERAND", p.rbOperandRate);
    p.rbResultRate = parseEnvF64("VPIR_FAULT_RB_RESULT", p.rbResultRate);
    p.rbLinkRate = parseEnvF64("VPIR_FAULT_RB_LINK", p.rbLinkRate);
    p.rbDropInvRate = parseEnvF64("VPIR_FAULT_RB_DROPINV", p.rbDropInvRate);
    return p;
}

} // namespace vpir
