#include "fuzz/differential.hh"

#include "common/fnv.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "core/core.hh"
#include "emu/executor.hh"
#include "emu/state.hh"
#include "sim/configs.hh"

namespace vpir
{
namespace fuzz
{

namespace
{

/** First line of a (possibly multi-line) panic message. */
std::string
firstLine(const std::string &s)
{
    size_t nl = s.find('\n');
    return nl == std::string::npos ? s : s.substr(0, nl);
}

/** Map a SimError message onto a stable failure class. */
std::string
classifyPanic(const std::string &msg)
{
    if (msg.find("lockstep divergence") != std::string::npos)
        return "checker";
    if (msg.find("audit:") != std::string::npos)
        return "audit";
    if (msg.find("watchdog:") != std::string::npos)
        return "watchdog";
    return "panic";
}

/** FNV-1a over the architectural registers and the program's
 *  statically initialised data spans. Generated programs only ever
 *  store inside their own data section, so this covers the full
 *  observable end state. */
uint64_t
archChecksum(const EmuState &st, const Program &program)
{
    Fnv64 f;
    for (unsigned r = 1; r < NUM_ARCH_REGS; ++r)
        f.u64(st.readReg(static_cast<RegId>(r)));
    for (const auto &seg : program.dataInit) {
        Addr base = seg.first & ~3u;
        Addr end = seg.first + static_cast<Addr>(seg.second.size());
        for (Addr a = base; a < end; a += 4)
            f.u64(st.readMem(a, 4));
    }
    return f.h;
}

} // namespace

std::string
divergenceSignature(const DiffOutcome &d)
{
    return d.kind + "|" + d.detail;
}

std::string
checkStatsConservation(const CoreStats &st, const CoreParams &params)
{
    auto eq = [](const char *law, uint64_t a, uint64_t b) {
        return std::string(law) + " (" + std::to_string(a) +
               " != " + std::to_string(b) + ")";
    };
    auto le = [](const char *law, uint64_t a, uint64_t b) {
        return std::string(law) + " (" + std::to_string(a) + " > " +
               std::to_string(b) + ")";
    };

    if (st.committedMemOps != st.committedLoads + st.committedStores)
        return eq("memOps == loads + stores", st.committedMemOps,
                  st.committedLoads + st.committedStores);
    if (st.committedMemOps > st.committedInsts)
        return le("memOps <= committed", st.committedMemOps,
                  st.committedInsts);
    if (st.vpResultPredicted != st.vpResultCorrect + st.vpResultWrong)
        return eq("vpResultPredicted == correct + wrong",
                  st.vpResultPredicted,
                  st.vpResultCorrect + st.vpResultWrong);
    if (st.vpAddrPredicted != st.vpAddrCorrect + st.vpAddrWrong)
        return eq("vpAddrPredicted == correct + wrong",
                  st.vpAddrPredicted, st.vpAddrCorrect + st.vpAddrWrong);
    if (st.condMispredicted > st.condBranches)
        return le("condMispredicted <= condBranches",
                  st.condMispredicted, st.condBranches);
    if (st.returnMispredicted > st.returns)
        return le("returnMispredicted <= returns", st.returnMispredicted,
                  st.returns);
    if (st.reusedControl > st.resolvableControl)
        return le("reusedControl <= resolvableControl", st.reusedControl,
                  st.resolvableControl);
    if (st.resolvableControl > st.committedInsts)
        return le("resolvableControl <= committed", st.resolvableControl,
                  st.committedInsts);
    if (st.spuriousSquashes > st.branchSquashes)
        return le("spuriousSquashes <= branchSquashes",
                  st.spuriousSquashes, st.branchSquashes);
    if (st.squashedExecuted > st.executedInsts)
        return le("squashedExecuted <= executed", st.squashedExecuted,
                  st.executedInsts);
    uint64_t hist = 0;
    for (uint64_t b : st.execCountHist)
        hist += b;
    if (hist > st.committedInsts)
        return le("sum(execCountHist) <= committed", hist,
                  st.committedInsts);
    if (hist > st.executedInsts)
        return le("sum(execCountHist) <= executed", hist,
                  st.executedInsts);
    if (st.resourceDenied > st.resourceRequests)
        return le("resourceDenied <= resourceRequests", st.resourceDenied,
                  st.resourceRequests);
    if (st.icacheMisses > st.icacheAccesses)
        return le("icacheMisses <= accesses", st.icacheMisses,
                  st.icacheAccesses);
    if (st.dcacheMisses > st.dcacheAccesses)
        return le("dcacheMisses <= accesses", st.dcacheMisses,
                  st.dcacheAccesses);
    if (st.branchResCount > st.resolvableControl)
        return le("branchResCount <= resolvableControl",
                  st.branchResCount, st.resolvableControl);
    if (st.cycles > params.maxCycles)
        return le("cycles <= maxCycles", st.cycles, params.maxCycles);
    if (st.committedInsts > params.maxInsts)
        return le("committed <= maxInsts", st.committedInsts,
                  params.maxInsts);

    // The checker validates every retirement when armed.
    if (params.checkRetire && st.checkedInsts != st.committedInsts)
        return eq("checkRetire: checked == committed", st.checkedInsts,
                  st.committedInsts);

    // Technique gating: counters for absent structures must be zero.
    uint64_t reuse_ct = st.reusedResults + st.reusedAddrs +
                        st.reusedControl + st.squashedRecovered;
    uint64_t vp_ct = st.vpResultPredicted + st.vpAddrPredicted;
    if (params.technique == Technique::None && reuse_ct + vp_ct != 0)
        return eq("technique None has no reuse/VP events",
                  reuse_ct + vp_ct, 0);
    if (params.technique == Technique::IR && vp_ct != 0)
        return eq("technique IR has no VP events", vp_ct, 0);
    if (params.technique == Technique::VP && reuse_ct != 0)
        return eq("technique VP has no reuse events", reuse_ct, 0);

    // Fault counters only fire where a rate is armed.
    if (params.faults.vptValueRate <= 0.0 && st.faultsVptValue != 0)
        return eq("no VPT value faults armed", st.faultsVptValue, 0);
    if (params.faults.vptConfRate <= 0.0 && st.faultsVptConf != 0)
        return eq("no VPT conf faults armed", st.faultsVptConf, 0);
    if (!params.faults.anyRb() &&
        st.faultsRbOperand + st.faultsRbResult + st.faultsRbLink +
                st.faultsRbDropInv !=
            0) {
        return eq("no RB faults armed",
                  st.faultsRbOperand + st.faultsRbResult +
                      st.faultsRbLink + st.faultsRbDropInv,
                  0);
    }
    return "";
}

DiffOutcome
runDifferential(const Program &program, const CoreParams &params)
{
    DiffOutcome out;
    PanicThrowScope throws;
    try {
        Core core(params, program);
        out.stats = core.run();

        std::string law = checkStatsConservation(out.stats, params);
        if (!law.empty()) {
            out.diverged = true;
            out.kind = "conservation";
            out.detail = law;
            return out;
        }

        if (!out.stats.haltedCleanly) {
            // A capped run (insts or cycles) is a legitimate clean
            // outcome; anything else means the program lost its way.
            if (out.stats.committedInsts < params.maxInsts &&
                out.stats.cycles < params.maxCycles) {
                out.diverged = true;
                out.kind = "no-halt";
                out.detail = "run stopped uncapped and unhalted after " +
                             std::to_string(out.stats.committedInsts) +
                             " insts";
            }
            return out;
        }

        // End-state cross-check: replay the program on a fresh
        // functional reference and compare the architectural result.
        EmuState ref;
        Emulator::loadProgram(program, ref);
        Emulator emu(program, ref);
        uint64_t steps = 0;
        const uint64_t cap = out.stats.committedInsts + 16;
        while (!emu.halted() && steps < cap) {
            emu.step();
            ref.retire(ref.mark()); // keep the undo journal empty
            ++steps;
        }
        if (!emu.halted()) {
            out.diverged = true;
            out.kind = "end-state";
            out.detail = "reference did not halt within " +
                         std::to_string(cap) + " steps (core committed " +
                         std::to_string(out.stats.committedInsts) + ")";
            return out;
        }
        if (steps != out.stats.committedInsts) {
            out.diverged = true;
            out.kind = "end-state";
            out.detail = "instruction count: core committed " +
                         std::to_string(out.stats.committedInsts) +
                         ", reference retired " + std::to_string(steps);
            return out;
        }
        uint64_t want = archChecksum(ref, program);
        uint64_t got = archChecksum(core.emuState(), program);
        if (want != got) {
            out.diverged = true;
            out.kind = "end-state";
            out.detail = "architectural checksum 0x" + hex16(got) +
                         ", reference 0x" + hex16(want);
        }
        return out;
    } catch (const SimError &e) {
        out.diverged = true;
        out.kind = classifyPanic(e.what());
        out.detail = firstLine(e.what());
        return out;
    }
}

CoreParams
fuzzParamsForSeed(uint64_t seed)
{
    Rng r(seed, /*stream=*/0xc0f1);

    CoreParams p;
    switch (r.below(8)) {
      case 0:
        p = baseConfig();
        break;
      case 1:
        p = irConfig(IrValidation::Early);
        break;
      case 2:
        p = irConfig(IrValidation::Late);
        break;
      case 3:
      case 4: {
        VpScheme scheme =
            r.below(2) ? VpScheme::Magic : VpScheme::Lvp;
        ReexecPolicy reexec =
            r.below(2) ? ReexecPolicy::Multiple : ReexecPolicy::Single;
        BranchResolution br = r.below(2)
                                  ? BranchResolution::Speculative
                                  : BranchResolution::NonSpeculative;
        p = vpConfig(scheme, reexec, br,
                     static_cast<unsigned>(r.below(2)));
        break;
      }
      default: {
        VpScheme scheme =
            r.below(2) ? VpScheme::Magic : VpScheme::Lvp;
        BranchResolution br = r.below(2)
                                  ? BranchResolution::Speculative
                                  : BranchResolution::NonSpeculative;
        p = hybridConfig(scheme, br, static_cast<unsigned>(r.below(2)));
        break;
      }
    }

    // Occasional geometry jitter: small structures reach the squash /
    // occupancy corner cases a Table 1 machine never sees.
    if (r.below(4) == 0) {
        static const unsigned robs[] = {16, 32, 64};
        p.robEntries = robs[r.below(3)];
        p.lsqEntries = r.below(2) ? 16 : 32;
        p.fetchQueueSize = r.below(2) ? 4 : 8;
        p.maxUnresolvedBranches = r.below(2) ? 4 : 8;
    }

    // Absorbable fault cocktail on ~1/3 of VPT-bearing cells: value
    // and confidence corruption are speculation-safe (the machine must
    // recover, never diverge), so they stress-test recovery paths.
    if (p.technique == Technique::VP ||
        p.technique == Technique::Hybrid) {
        if (r.below(3) == 0) {
            p.faults.seed = Rng::split(seed, 0xbead);
            p.faults.vptValueRate = 0.002 * (1 + r.below(5));
            if (r.below(2))
                p.faults.vptConfRate = 0.002 * (1 + r.below(5));
        }
    }

    // Every fuzz cell runs fully armed.
    p.checkRetire = true;
    p.auditInvariants = true;
    p.watchdogCycles = 100000;
    p.maxInsts = 400000;
    p.maxCycles = 20000000;
    return p;
}

} // namespace fuzz
} // namespace vpir
