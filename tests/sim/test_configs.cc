/** @file Unit tests for the named machine configurations. */

#include <gtest/gtest.h>

#include <cstdlib>
#include <initializer_list>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/configs.hh"

using namespace vpir;

namespace
{

/** Unsets every hardening variable, and puts back on scope exit what
 *  the process had. */
class ClearHardeningEnv
{
  public:
    ClearHardeningEnv()
    {
        for (const char *name : hardeningEnvVars) {
            const char *v = std::getenv(name);
            saved.emplace_back(name, v ? std::optional<std::string>(v)
                                       : std::nullopt);
            ::unsetenv(name);
        }
    }

    ~ClearHardeningEnv()
    {
        for (const auto &[name, v] : saved) {
            if (v)
                ::setenv(name, v->c_str(), 1);
            else
                ::unsetenv(name);
        }
    }

  private:
    std::vector<std::pair<const char *, std::optional<std::string>>>
        saved;
};

/** A base machine after applyHardeningEnv() with @p vars set, and the
 *  names of the params fields that moved. */
struct Hardened
{
    CoreParams p;
    std::set<std::string> changed;
};

Hardened
harden(std::initializer_list<std::pair<const char *, const char *>> vars)
{
    for (const auto &[name, value] : vars)
        ::setenv(name, value, 1);
    Hardened h{baseConfig(), {}};
    applyHardeningEnv(h.p);
    for (const auto &[name, value] : vars)
        ::unsetenv(name);

    CoreParams base = baseConfig();
    std::map<std::string, uint64_t> was;
    forEachParamField(base,
                      [&](const char *n, uint64_t &v) { was[n] = v; });
    forEachParamField(h.p, [&](const char *n, uint64_t &v) {
        if (was[n] != v)
            h.changed.insert(n);
    });
    return h;
}

} // anonymous namespace

TEST(Configs, BaseMatchesTable1)
{
    CoreParams p = baseConfig();
    EXPECT_EQ(p.technique, Technique::None);
    EXPECT_EQ(p.fetchWidth, 4u);
    EXPECT_EQ(p.issueWidth, 4u);
    EXPECT_EQ(p.commitWidth, 4u);
    EXPECT_EQ(p.robEntries, 32u);
    EXPECT_EQ(p.lsqEntries, 32u);
    EXPECT_EQ(p.maxUnresolvedBranches, 8u);
    EXPECT_EQ(p.dcachePorts, 2u);
    EXPECT_EQ(p.icache.sizeBytes, 64u * 1024);
    EXPECT_EQ(p.icache.ways, 2u);
    EXPECT_EQ(p.icache.lineBytes, 32u);
    EXPECT_EQ(p.icache.missLatency, 6u);
    EXPECT_EQ(p.dcache.sizeBytes, 64u * 1024);
    EXPECT_EQ(p.bpred.historyBits, 10u);
    EXPECT_EQ(p.bpred.tableEntries, 16u * 1024);
}

TEST(Configs, IrCarriesPaperSizedRb)
{
    CoreParams p = irConfig();
    EXPECT_EQ(p.technique, Technique::IR);
    EXPECT_EQ(p.rb.entries, 4u * 1024);
    EXPECT_EQ(p.rb.ways, 4u);
    EXPECT_EQ(p.irValidation, IrValidation::Early);
    EXPECT_EQ(irConfig(IrValidation::Late).irValidation,
              IrValidation::Late);
}

TEST(Configs, VpCarriesPaperSizedVpt)
{
    CoreParams p = vpConfig(VpScheme::Magic, ReexecPolicy::Single,
                            BranchResolution::NonSpeculative, 1);
    EXPECT_EQ(p.technique, Technique::VP);
    EXPECT_EQ(p.vpt.entries, 16u * 1024);
    EXPECT_EQ(p.vpt.ways, 4u);
    EXPECT_EQ(p.vpt.scheme, VpScheme::Magic);
    EXPECT_EQ(p.reexec, ReexecPolicy::Single);
    EXPECT_EQ(p.branchRes, BranchResolution::NonSpeculative);
    EXPECT_EQ(p.vpVerifyLatency, 1u);
}

TEST(Configs, HybridCarriesBothStructures)
{
    CoreParams p = hybridConfig();
    EXPECT_EQ(p.technique, Technique::Hybrid);
    EXPECT_EQ(p.vpt.entries, 16u * 1024);
    EXPECT_EQ(p.rb.entries, 4u * 1024);
}

TEST(Configs, WithLimitsAppliesCaps)
{
    CoreParams p = withLimits(baseConfig(), 123, 456);
    EXPECT_EQ(p.maxInsts, 123u);
    EXPECT_EQ(p.maxCycles, 456u);
    // Other fields untouched.
    EXPECT_EQ(p.robEntries, 32u);
}

// applyHardeningEnv is how every harness and vpirsim arm the checker,
// the audits, the watchdog and fault injection: each variable must
// move its own field and nothing else.
TEST(Configs, HardeningEnvArmsEveryKnob)
{
    ClearHardeningEnv clear;
    using Fields = std::set<std::string>;

    EXPECT_EQ(harden({}).changed, Fields{});

    Hardened check = harden({{"VPIR_CHECK", "1"}});
    EXPECT_EQ(check.changed, (Fields{"checkRetire", "watchdogCycles"}));
    EXPECT_TRUE(check.p.checkRetire);
    EXPECT_EQ(check.p.watchdogCycles, 100000u);
    EXPECT_EQ(harden({{"VPIR_CHECK", "1"}, {"VPIR_WATCHDOG_CYCLES", "5"}})
                  .p.watchdogCycles,
              5u);

    Hardened audit = harden({{"VPIR_AUDIT", "1"}});
    EXPECT_EQ(audit.changed, Fields{"auditInvariants"});
    EXPECT_TRUE(audit.p.auditInvariants);

    Hardened seed = harden({{"VPIR_FAULT_SEED", "7"}});
    EXPECT_EQ(seed.changed, Fields{"faults.seed"});
    EXPECT_EQ(seed.p.faults.seed, 7u);

    const struct
    {
        const char *var;
        double FaultPlan::*rate;
        const char *field;
    } rates[] = {
        {"VPIR_FAULT_VPT_VALUE", &FaultPlan::vptValueRate,
         "faults.vptValueRate"},
        {"VPIR_FAULT_VPT_CONF", &FaultPlan::vptConfRate,
         "faults.vptConfRate"},
        {"VPIR_FAULT_RB_OPERAND", &FaultPlan::rbOperandRate,
         "faults.rbOperandRate"},
        {"VPIR_FAULT_RB_RESULT", &FaultPlan::rbResultRate,
         "faults.rbResultRate"},
        {"VPIR_FAULT_RB_LINK", &FaultPlan::rbLinkRate,
         "faults.rbLinkRate"},
        {"VPIR_FAULT_RB_DROPINV", &FaultPlan::rbDropInvRate,
         "faults.rbDropInvRate"},
    };
    for (const auto &r : rates) {
        Hardened h = harden({{r.var, "0.25"}});
        EXPECT_EQ(h.changed, Fields{r.field}) << r.var;
        EXPECT_EQ(h.p.faults.*r.rate, 0.25) << r.var;
    }
}
