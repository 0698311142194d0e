/**
 * @file
 * vpirbench: the in-process half of the vpir benchmark (see
 * perfbench/README.md). It times calls into the simulator's public
 * API and prints one JSON object of raw measurements on stdout;
 * perfbench/run.py turns those into metrics and checks them against
 * the committed reference.
 *
 *   vpirbench table1|stall|limit --seed N --passes P --insts N
 *             [--trace SPANS.json]
 *   vpirbench layers --seed N --trace SPANS.json
 *
 * table1  7 programs x {base, 8 VP_Magic variants, IR} at Table 1,
 *         through a one-thread SweepEngine.
 * stall   7 programs x {base, IR-early, IR-late}, caches disabled,
 *         50-cycle misses, 256-entry ROB/LSQ, one-thread SweepEngine.
 * limit   analyzeRedundancy over the 7 programs on one thread.
 * layers  no workload passes: only the layer replay and the probe
 *         below, for workloads whose own work runs outside this
 *         process (the harness suite).
 *
 * Every pass redoes the workload's whole fixed work from a cleared
 * warm-start cache, in a cell order shuffled by --seed. --insts is the
 * per-cell committed-instruction budget (limit: analysed instructions
 * per program).
 *
 * With --trace, untraced and traced passes alternate (P of each). A
 * traced pass drives the same cells through direct calls wrapped in
 * spans (WarmStartCache::workload/snapshot, Simulator construction,
 * Simulator::run, makeWorkload, analyzeRedundancy) with VPIR_PROFILE=1
 * armed; the spans go to SPANS.json when the run ends. A traced run
 * also replays each program's functional stream through Vpt,
 * ReuseBuffer, Cache and BranchPredUnit, and (for limit and layers)
 * runs a small Table 1 probe so that every layer has a figure.
 */

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench/paper_ref.hh"
#include "bpred/bpred.hh"
#include "common/logging.hh"
#include "emu/executor.hh"
#include "isa/decode.hh"
#include "mem/cache.hh"
#include "redundancy/redundancy.hh"
#include "reuse/reuse_buffer.hh"
#include "sim/configs.hh"
#include "sim/simulator.hh"
#include "sim/warm_cache.hh"
#include "sweep/sweep.hh"
#include "vp/vpt.hh"

using namespace vpir;

namespace
{

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
           1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                      ru.ru_stime.tv_usec);
}

/** splitmix64: the seeded shuffle must not depend on the C++ library. */
uint64_t
mix(uint64_t &s)
{
    uint64_t z = (s += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

template <typename T>
void
shuffle(std::vector<T> &v, uint64_t seed)
{
    uint64_t s = seed;
    for (size_t i = v.size(); i > 1; --i)
        std::swap(v[i - 1], v[mix(s) % i]);
}

/** FNV-1a over a list of counters, as 16 hex digits. */
std::string
digest(const std::vector<uint64_t> &fields)
{
    uint64_t h = 0xcbf29ce484222325ULL;
    for (uint64_t f : fields) {
        for (int b = 0; b < 8; ++b) {
            h ^= (f >> (8 * b)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    }
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
    return buf;
}

/** The CoreStats fields the reference pins, in a fixed order. Listed
 *  by name so that adding a counter later leaves the digest alone. */
std::string
statsDigest(const CoreStats &s)
{
    return digest({s.cycles, s.committedInsts, s.committedMemOps,
                   s.committedLoads, s.committedStores, s.executedInsts,
                   s.squashedExecuted, s.squashedRecovered,
                   s.branchSquashes, s.spuriousSquashes, s.condBranches,
                   s.condMispredicted, s.returns, s.returnMispredicted,
                   s.branchResLatSum, s.branchResCount,
                   s.resourceRequests, s.resourceDenied,
                   s.execCountHist[0], s.execCountHist[1],
                   s.execCountHist[2], s.execCountHist[3],
                   s.reusedResults, s.reusedAddrs, s.reusedControl,
                   s.resolvableControl, s.vpResultPredicted,
                   s.vpResultCorrect, s.vpResultWrong, s.vpAddrPredicted,
                   s.vpAddrCorrect, s.vpAddrWrong,
                   s.valueMispredictEvents, s.icacheAccesses,
                   s.icacheMisses, s.dcacheAccesses, s.dcacheMisses,
                   s.haltedCleanly ? 1u : 0u});
}

std::string
redundancyDigest(const RedundancyStats &r)
{
    return digest({r.totalDynamic, r.resultProducing, r.unique,
                   r.repeated, r.derivable, r.unaccounted, r.prodReused,
                   r.prodFar, r.prodNear, r.inputsDifferent,
                   r.reusable});
}

// ------------------------------------------------------------ cells

struct Cell
{
    std::string workload;
    std::string label;
    CoreParams params;

    std::string key() const { return workload + "/" + label; }
};

std::vector<Cell>
table1Cells(uint64_t insts)
{
    std::vector<Cell> out;
    for (const auto &name : workloadNames()) {
        out.push_back({name, "base", baseConfig()});
        for (unsigned lat = 0; lat <= 1; ++lat) {
            for (ReexecPolicy re :
                 {ReexecPolicy::Multiple, ReexecPolicy::Single}) {
                for (BranchResolution br :
                     {BranchResolution::Speculative,
                      BranchResolution::NonSpeculative}) {
                    std::string l = "magic-";
                    l += re == ReexecPolicy::Multiple ? "me" : "nme";
                    l += br == BranchResolution::Speculative ? "-sb-"
                                                             : "-nsb-";
                    l += std::to_string(lat);
                    out.push_back({name, l,
                                   vpConfig(VpScheme::Magic, re, br, lat)});
                }
            }
        }
        out.push_back({name, "ir", irConfig()});
    }
    for (Cell &c : out)
        c.params = withLimits(c.params, insts);
    return out;
}

/** The stall-heavy machine of the scheduler study: caches reduced to
 *  one direct-mapped line, 50-cycle misses, 256-entry ROB and LSQ. */
CoreParams
stallMachine(CoreParams p)
{
    p.robEntries = 256;
    p.lsqEntries = 256;
    for (CacheParams *c : {&p.icache, &p.dcache}) {
        c->ways = 1;
        c->sizeBytes = c->lineBytes;
        c->missLatency = 50;
    }
    return p;
}

std::vector<Cell>
stallCells(uint64_t insts)
{
    std::vector<Cell> out;
    for (const auto &name : workloadNames()) {
        out.push_back({name, "base", baseConfig()});
        out.push_back({name, "ir-early", irConfig(IrValidation::Early)});
        out.push_back({name, "ir-late", irConfig(IrValidation::Late)});
    }
    for (Cell &c : out)
        c.params = withLimits(stallMachine(c.params), insts);
    return out;
}

/** Base, VP_Magic ME-SB-0 and IR on every program: the Table 1 cells
 *  the model-side rates and the paper comparison need. */
std::vector<Cell>
probeCells(uint64_t insts)
{
    std::vector<Cell> out;
    for (Cell &c : table1Cells(insts)) {
        if (c.label == "base" || c.label == "magic-me-sb-0" ||
            c.label == "ir")
            out.push_back(std::move(c));
    }
    return out;
}

// ------------------------------------------------------------ spans

struct Span
{
    const char *name;
    std::string subject;
    int parent;    //!< index of the enclosing span, -1 at top level
    double t0, t1; //!< seconds since the run started
};

Clock::time_point runStart;
std::vector<Span> spans;
int openSpan = -1; //!< innermost running span

/** Time @p fn as one span, nested in the running one; returns its
 *  duration in seconds. */
template <typename Fn>
double
span(const char *name, const std::string &subject, Fn &&fn)
{
    const int id = static_cast<int>(spans.size());
    spans.push_back({name, subject, openSpan, 0, 0});
    struct Restore
    {
        int outer;
        ~Restore() { openSpan = outer; }
    } restore{openSpan};
    openSpan = id;
    auto t0 = Clock::now();
    fn();
    auto t1 = Clock::now();
    spans[id].t0 = std::chrono::duration<double>(t0 - runStart).count();
    spans[id].t1 = std::chrono::duration<double>(t1 - runStart).count();
    return std::chrono::duration<double>(t1 - t0).count();
}

// ------------------------------------------------------------ passes

struct CellResult
{
    std::string key;
    bool failed = false;
    std::string digest;
    double wallS = 0, setupS = 0, runS = 0;
    uint64_t insts = 0;
    CoreStats stats;
    SchedProfile prof;
};

struct Pass
{
    bool traced = false;
    double wallS = 0, cpuS = 0;
    uint64_t programBuilds = 0, snapshotBuilds = 0;
    std::vector<CellResult> cells;
};

/** Run one cell's @p body; a panic marks the cell failed instead of
 *  ending the run. */
template <typename Fn>
void
runContained(CellResult &r, Fn &&body)
{
    PanicThrowScope throw_scope;
    try {
        body();
    } catch (const SimError &e) {
        std::fprintf(stderr, "vpirbench: cell %s failed: %s\n",
                     r.key.c_str(), e.what());
        r.failed = true;
    }
}

/** The user-facing path: a one-thread SweepEngine without result
 *  cache, as a harness runs at VPIR_JOBS=1. */
Pass
sweepPass(const std::vector<Cell> &cells)
{
    Pass p;
    WarmStartCache::global().clear();
    double c0 = cpuSeconds();
    auto t0 = Clock::now();
    {
        sweep::SweepEngine eng(1, "");
        std::vector<sweep::SweepCell> sc;
        for (const Cell &c : cells) {
            sc.push_back({c.workload, c.label, c.params, WorkloadScale()});
            eng.prefetch(sc.back());
        }
        eng.drain();
        std::map<std::string, const sweep::CellTiming *> byKey;
        std::vector<sweep::CellTiming> tim = eng.timings();
        for (const auto &t : tim)
            byKey[t.workload + "/" + t.label] = &t;
        for (size_t i = 0; i < cells.size(); ++i) {
            CellResult r;
            r.key = cells[i].key();
            auto it = byKey.find(r.key);
            if (it == byKey.end()) {
                r.failed = true;
            } else {
                const sweep::CellTiming &t = *it->second;
                r.stats = eng.get(sc[i]);
                r.digest = statsDigest(r.stats);
                r.wallS = t.wallSeconds;
                r.setupS = t.setupSeconds;
                r.runS = t.runSeconds;
                r.insts = t.committedInsts;
                r.prof = t.profile;
            }
            p.cells.push_back(std::move(r));
        }
    }
    p.wallS = secondsSince(t0);
    p.cpuS = cpuSeconds() - c0;
    WarmStartCache::Counters k = WarmStartCache::global().counters();
    p.programBuilds = k.programBuilds;
    p.snapshotBuilds = k.snapshotBuilds;
    return p;
}

/** The same cells through direct, span-wrapped calls with the
 *  per-stage profiler armed. */
Pass
tracedPass(const std::vector<Cell> &cells)
{
    Pass p;
    p.traced = true;
    setenv("VPIR_PROFILE", "1", 1);
    WarmStartCache &cache = WarmStartCache::global();
    cache.clear();
    double c0 = cpuSeconds();
    auto t0 = Clock::now();
    for (const Cell &c : cells) {
        CellResult r;
        r.key = c.key();
        auto cell = [&] {
            std::shared_ptr<const Workload> w;
            std::shared_ptr<const EmuSnapshot> snap;
            std::unique_ptr<Simulator> sim;
            r.setupS += span("WarmStartCache::workload", r.key, [&] {
                w = cache.workload(c.workload, WorkloadScale());
            });
            r.setupS += span("WarmStartCache::snapshot", r.key, [&] {
                snap = cache.snapshot(c.workload, WorkloadScale(),
                                      c.params.warmupInsts);
            });
            r.setupS += span("Simulator::Simulator", r.key, [&] {
                sim = std::make_unique<Simulator>(c.params, w, snap);
            });
            r.runS = span("Simulator::run", r.key, [&] { sim->run(); });
            r.stats = sim->stats();
            r.digest = statsDigest(r.stats);
            r.insts = r.stats.committedInsts;
            r.prof = sim->core().schedProfile();
        };
        r.wallS = span("cell", r.key, [&] { runContained(r, cell); });
        p.cells.push_back(std::move(r));
    }
    p.wallS = secondsSince(t0);
    p.cpuS = cpuSeconds() - c0;
    unsetenv("VPIR_PROFILE");
    WarmStartCache::Counters k = cache.counters();
    p.programBuilds = k.programBuilds;
    p.snapshotBuilds = k.snapshotBuilds;
    return p;
}

Pass
limitPass(const std::vector<std::string> &names, uint64_t insts,
          bool traced)
{
    Pass p;
    p.traced = traced;
    double c0 = cpuSeconds();
    auto t0 = Clock::now();
    for (const std::string &name : names) {
        CellResult r;
        r.key = name;
        auto cell = [&] {
            Workload w;
            RedundancyStats rs;
            RedundancyParams rp;
            rp.maxInsts = insts;
            auto build = [&] { w = makeWorkload(name); };
            auto analyze = [&] { rs = analyzeRedundancy(w.program, rp); };
            if (traced) {
                r.setupS = span("makeWorkload", name, build);
                r.runS = span("analyzeRedundancy", name, analyze);
            } else {
                auto ts = Clock::now();
                build();
                r.setupS = secondsSince(ts);
                auto tr = Clock::now();
                analyze();
                r.runS = secondsSince(tr);
            }
            r.digest = redundancyDigest(rs);
            r.insts = rs.totalDynamic;
        };
        if (traced) {
            r.wallS = span("cell", name, [&] { runContained(r, cell); });
        } else {
            auto tc = Clock::now();
            runContained(r, cell);
            r.wallS = secondsSince(tc);
        }
        p.cells.push_back(std::move(r));
    }
    p.wallS = secondsSince(t0);
    p.cpuS = cpuSeconds() - c0;
    p.programBuilds = names.size();
    return p;
}

// ------------------------------------------------ model-side rates

double
ratio(double a, double b)
{
    return b > 0 ? a / b : 0.0;
}

/** Rates derived from one pass's CoreStats; deterministic, so they
 *  change only when the simulated machine does. */
std::map<std::string, double>
modelRates(const std::vector<Cell> &cells, const Pass &p)
{
    double insts = 0, cycles = 0, exec = 0, sqExec = 0, icA = 0, icM = 0,
           dcA = 0, dcM = 0, br = 0, brM = 0, skipped = 0;
    double vpInsts = 0, vpPred = 0, vpOk = 0;
    double irInsts = 0, irMem = 0, irRes = 0, irAddr = 0;
    for (size_t i = 0; i < cells.size(); ++i) {
        const CoreStats &s = p.cells[i].stats;
        insts += s.committedInsts;
        cycles += s.cycles;
        exec += s.executedInsts;
        sqExec += s.squashedExecuted;
        icA += s.icacheAccesses;
        icM += s.icacheMisses;
        dcA += s.dcacheAccesses;
        dcM += s.dcacheMisses;
        br += s.condBranches;
        brM += s.condMispredicted;
        skipped += p.cells[i].prof.idleSkippedCycles;
        if (cells[i].params.technique == Technique::VP) {
            vpInsts += s.committedInsts;
            vpPred += s.vpResultPredicted;
            vpOk += s.vpResultCorrect;
        }
        if (cells[i].params.technique == Technique::IR) {
            irInsts += s.committedInsts;
            irMem += s.committedMemOps;
            irRes += s.reusedResults;
            irAddr += s.reusedAddrs;
        }
    }
    std::map<std::string, double> m;
    m["core.idle_skip_frac"] = ratio(skipped, cycles);
    m["core.exec_per_commit"] = ratio(exec, insts);
    m["core.squash_exec_frac"] = ratio(sqExec, exec);
    m["vp.pred_frac"] = ratio(vpPred, vpInsts);
    m["vp.correct_frac"] = ratio(vpOk, vpPred);
    m["reuse.hit_frac"] = ratio(irRes, irInsts);
    m["reuse.addr_hit_frac"] = ratio(irAddr, irMem);
    m["mem.icache_miss_frac"] = ratio(icM, icA);
    m["mem.dcache_miss_frac"] = ratio(dcM, dcA);
    m["bpred.mispred_frac"] = ratio(brM, br);

    // Mean absolute gap (percentage points) between the simulated
    // Table 2/3 rates and the paper's, over the programs whose base,
    // IR and VP_Magic ME-SB-0 cells are present.
    std::map<std::string, const CoreStats *> by;
    for (size_t i = 0; i < cells.size(); ++i)
        by[cells[i].key()] = &p.cells[i].stats;
    double gap = 0;
    int n = 0;
    for (const auto &name : workloadNames()) {
        auto b = by.find(name + "/base"), ir = by.find(name + "/ir"),
             vp = by.find(name + "/magic-me-sb-0");
        if (b == by.end() || ir == by.end() || vp == by.end())
            continue;
        const auto &t2 = paper::table2.at(name);
        const auto &t3 = paper::table3.at(name);
        const CoreStats &B = *b->second, &I = *ir->second,
                        &V = *vp->second;
        double rates[5][2] = {
            {100.0 * (1.0 - ratio(B.condMispredicted, B.condBranches)),
             t2.brPredRate},
            {100.0 * ratio(I.reusedResults, I.committedInsts),
             t3.irResult},
            {100.0 * ratio(I.reusedAddrs, I.committedMemOps), t3.irAddr},
            {100.0 * ratio(V.vpResultCorrect, V.committedInsts),
             t3.magicPred},
            {100.0 * ratio(V.vpResultWrong, V.committedInsts),
             t3.magicMispred},
        };
        for (auto &r : rates) {
            gap += std::abs(r[0] - r[1]);
            ++n;
        }
    }
    if (n)
        m["model.paper_err_pp"] = gap / n;
    return m;
}

// ------------------------------------------------------ layer replay

/** One retired instruction of a program's functional stream. */
struct Rec
{
    Addr pc;
    Instr inst;
    uint64_t result, result2;
    uint64_t src[2];
    Addr memAddr;
    Addr nextPC;
    bool taken;
};

constexpr uint64_t replayInsts = 60000; //!< per program
constexpr int replayReps = 5;
constexpr uint64_t warmupInsts = 20000; //!< emu.warmup_ms snapshot
constexpr uint64_t probeInsts = 30000;  //!< per probe cell

std::vector<Rec>
captureStream(const Program &prog)
{
    std::vector<Rec> out;
    out.reserve(replayInsts);
    EmuState st;
    Emulator emu(prog, st);
    Emulator::loadProgram(prog, st);
    while (out.size() < replayInsts && !emu.halted()) {
        ExecResult r = emu.step();
        st.retire(st.mark());
        out.push_back({r.pc, r.inst, r.out.result, r.out.result2,
                       {r.srcVals[0], r.srcVals[1]}, r.out.memAddr,
                       r.out.nextPC, r.out.taken});
    }
    return out;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/** Median over replayReps of ns per operation for @p body, which
 *  replays every stream once and returns (operations, seconds inside
 *  its replay spans). */
template <typename Fn>
double
nsPerOp(Fn &&body)
{
    std::vector<double> per;
    for (int rep = 0; rep < replayReps; ++rep) {
        auto [ops, secs] = body();
        per.push_back(1e9 * secs / std::max<uint64_t>(ops, 1));
    }
    return median(per);
}

volatile uint64_t sink;

std::map<std::string, double>
layerReplay()
{
    std::map<std::string, double> m;
    std::vector<std::vector<Rec>> streams;
    std::vector<double> buildMs, warmMs, setupMs, emuNs, redNs;
    for (const auto &name : workloadNames()) {
        Workload w;
        for (int rep = 0; rep < replayReps; ++rep) {
            buildMs.push_back(1e3 * span("makeWorkload", name, [&] {
                w = makeWorkload(name);
            }));
        }
        streams.push_back(captureStream(w.program));

        for (int rep = 0; rep < replayReps; ++rep) {
            EmuState st;
            Emulator emu(w.program, st);
            Emulator::loadProgram(w.program, st);
            uint64_t n = 0;
            double s = span("Emulator::step", name, [&] {
                while (n < replayInsts && !emu.halted()) {
                    emu.step();
                    st.retire(st.mark());
                    ++n;
                }
            });
            emuNs.push_back(1e9 * s / std::max<uint64_t>(n, 1));
        }

        std::shared_ptr<const EmuSnapshot> snap;
        for (int rep = 0; rep < replayReps; ++rep) {
            warmMs.push_back(1e3 * span("makeWarmSnapshot", name, [&] {
                snap = std::make_shared<EmuSnapshot>(
                    makeWarmSnapshot(w.program, warmupInsts));
            }));
        }
        auto shared = std::make_shared<const Workload>(w);
        CoreParams cp = withLimits(baseConfig(), 1);
        cp.warmupInsts = warmupInsts;
        for (int rep = 0; rep < replayReps; ++rep) {
            std::unique_ptr<Simulator> sim;
            setupMs.push_back(1e3 * span("Simulator::Simulator", name, [&] {
                sim = std::make_unique<Simulator>(cp, shared, snap);
            }));
        }

        RedundancyParams rp;
        rp.maxInsts = replayInsts;
        RedundancyStats rs;
        double s = span("analyzeRedundancy", name,
                        [&] { rs = analyzeRedundancy(w.program, rp); });
        redNs.push_back(1e9 * s / std::max<uint64_t>(rs.totalDynamic, 1));
    }
    m["workload.build_ms"] = median(buildMs);
    m["emu.warmup_ms"] = median(warmMs);
    m["sim.setup_ms"] = median(setupMs);
    m["emu.step_ns"] = median(emuNs);
    m["redundancy.ns_per_inst"] = median(redNs);

    // Structures are built outside the timed region; each replay
    // starts from empty tables, as a cell does.
    const CoreParams vpP = vpConfig(VpScheme::Magic, ReexecPolicy::Multiple,
                                    BranchResolution::Speculative, 0);
    m["vp.predict_update_ns"] = nsPerOp([&] {
        uint64_t ops = 0, acc = 0;
        double secs = 0;
        for (const auto &s : streams) {
            Vpt res(vpP.vpt), adr(vpP.vpt);
            secs += span("Vpt", "", [&] {
                for (const Rec &r : s) {
                    Op op = r.inst.op;
                    if (producesResult(r.inst) && !isStore(op) &&
                        r.inst.rd != REG_INVALID) {
                        VptPrediction p = res.predict(r.pc, r.result);
                        res.update(r.pc, r.result, p);
                        acc += p.value;
                        ++ops;
                    }
                    if (isMem(op)) {
                        VptPrediction p = adr.predict(r.pc, r.memAddr);
                        adr.update(r.pc, r.memAddr, p);
                        acc += p.value;
                        ++ops;
                    }
                }
            });
        }
        sink = acc;
        return std::make_pair(ops, secs);
    });

    const CoreParams irP = irConfig();
    m["reuse.probe_insert_ns"] = nsPerOp([&] {
        uint64_t ops = 0, acc = 0;
        double secs = 0;
        for (const auto &s : streams) {
            ReuseBuffer rb(irP.rb);
            secs += span("ReuseBuffer", "", [&] {
                for (const Rec &r : s) {
                    const Instr &in = r.inst;
                    if (decodeInfo(in.op).cls == InstClass::Nop ||
                        decodeInfo(in.op).cls == InstClass::Halt)
                        continue;
                    SrcRegs src = srcRegs(in);
                    RbOperandQuery q[2];
                    for (int k = 0; k < 2; ++k) {
                        q[k].reg = src.src[k];
                        q[k].ready = true;
                        q[k].value = r.src[k];
                    }
                    RbProbeResult hit = rb.probe(r.pc, in, q);
                    if (hit.resultReused) {
                        rb.noteReused(hit, in);
                        acc += hit.result;
                    } else {
                        RbInsertInfo info;
                        info.pc = r.pc;
                        info.inst = in;
                        for (int k = 0; k < 2; ++k) {
                            info.srcReg[k] = src.src[k];
                            info.srcVal[k] = r.src[k];
                        }
                        info.result = r.result;
                        info.result2 = r.result2;
                        info.taken = r.taken;
                        info.nextPC = r.nextPC;
                        info.memAddr = r.memAddr;
                        info.memValue = isLoad(in.op) ? r.result : 0;
                        acc += rb.insert(info).serial;
                    }
                    if (isStore(in.op))
                        rb.storeInvalidate(r.memAddr, memSize(in.op));
                    ++ops;
                }
            });
        }
        sink = acc;
        return std::make_pair(ops, secs);
    });

    const CoreParams baseP = baseConfig();
    m["mem.access_ns"] = nsPerOp([&] {
        uint64_t ops = 0, acc = 0;
        double secs = 0;
        for (const auto &s : streams) {
            Cache ic(baseP.icache), dc(baseP.dcache);
            secs += span("Cache", "", [&] {
                for (const Rec &r : s) {
                    acc += ic.access(r.pc);
                    ++ops;
                    if (isMem(r.inst.op)) {
                        acc += dc.access(r.memAddr);
                        ++ops;
                    }
                }
            });
        }
        sink = acc;
        return std::make_pair(ops, secs);
    });

    m["bpred.predict_update_ns"] = nsPerOp([&] {
        uint64_t ops = 0, acc = 0;
        double secs = 0;
        for (const auto &s : streams) {
            BranchPredUnit bp(baseP.bpred);
            secs += span("BranchPredUnit", "", [&] {
                for (const Rec &r : s) {
                    if (!isControl(r.inst.op))
                        continue;
                    BpredLookup l = bp.predict(r.pc, r.inst);
                    bp.update(r.pc, r.inst, r.taken, r.nextPC, l.ghrUsed);
                    acc += l.predTaken;
                    ++ops;
                }
            });
        }
        sink = acc;
        return std::make_pair(ops, secs);
    });
    return m;
}

// ------------------------------------------------------------ output

void
printPass(const Pass &p, bool first)
{
    std::printf("%s{\"traced\":%s,\"wall_s\":%.6f,\"cpu_s\":%.6f,"
                "\"program_builds\":%" PRIu64 ",\"snapshot_builds\":%" PRIu64
                ",\"cells\":[",
                first ? "" : ",", p.traced ? "true" : "false", p.wallS,
                p.cpuS, p.programBuilds, p.snapshotBuilds);
    for (size_t i = 0; i < p.cells.size(); ++i) {
        const CellResult &c = p.cells[i];
        std::printf("%s{\"key\":\"%s\",\"failed\":%s,\"digest\":\"%s\","
                    "\"wall_s\":%.6f,\"setup_s\":%.6f,\"run_s\":%.6f,"
                    "\"insts\":%" PRIu64 ",\"cycles\":%" PRIu64,
                    i ? "," : "", c.key.c_str(),
                    c.failed ? "true" : "false", c.digest.c_str(), c.wallS,
                    c.setupS, c.runS, c.insts, c.stats.cycles);
        if (p.traced) {
            std::printf(",\"prof\":{");
            bool f = true;
            forEachProfileField(c.prof, [&](const char *n, uint64_t v) {
                std::printf("%s\"%s\":%" PRIu64, f ? "" : ",", n, v);
                f = false;
            });
            std::printf("}");
        }
        std::printf("}");
    }
    std::printf("]}");
}

void
printMap(const char *name, const std::map<std::string, double> &m)
{
    std::printf(",\"%s\":{", name);
    bool f = true;
    for (const auto &[k, v] : m) {
        std::printf("%s\"%s\":%.9g", f ? "" : ",", k.c_str(), v);
        f = false;
    }
    std::printf("}");
}

bool
writeSpans(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "[\n");
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        std::fprintf(f,
                     "%s{\"id\":%zu,\"parent\":%d,\"name\":\"%s\","
                     "\"subject\":\"%s\",\"t0_s\":%.9f,\"t1_s\":%.9f}\n",
                     i ? "," : "", i, s.parent, s.name, s.subject.c_str(),
                     s.t0, s.t1);
    }
    std::fprintf(f, "]\n");
    return std::fclose(f) == 0;
}

[[noreturn]] void
usage()
{
    std::fprintf(stderr,
                 "usage: vpirbench table1|stall|limit --seed N --passes P "
                 "--insts N [--trace SPANS.json]\n"
                 "       vpirbench layers --seed N --trace SPANS.json\n");
    std::exit(2);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    std::string mode = argv[1];
    uint64_t seed = 0, passes = 0, insts = 0;
    std::string tracePath;
    for (int i = 2; i < argc; ++i) {
        std::string a = argv[i];
        if (i + 1 >= argc)
            usage();
        const char *v = argv[++i];
        if (a == "--seed")
            seed = std::strtoull(v, nullptr, 10);
        else if (a == "--passes")
            passes = std::strtoull(v, nullptr, 10);
        else if (a == "--insts")
            insts = std::strtoull(v, nullptr, 10);
        else if (a == "--trace")
            tracePath = v;
        else
            usage();
    }
    const bool traced = !tracePath.empty();
    if (mode == "layers" ? !traced
                         : (passes == 0 || insts == 0 ||
                            (mode != "table1" && mode != "stall" &&
                             mode != "limit")))
        usage();
    runStart = Clock::now();

    std::vector<Cell> cells;
    std::vector<std::string> names = workloadNames();
    if (mode == "table1")
        cells = table1Cells(insts);
    else if (mode == "stall")
        cells = stallCells(insts);
    shuffle(cells, seed);
    shuffle(names, seed);

    // Pass i runs pinned to the i-th allowed CPU, round robin. On a
    // shared host a virtual CPU whose core a busy neighbour also uses
    // runs at up to half speed for minutes, and the scheduler keeps a
    // single-threaded run on one CPU; rotating spreads every run over
    // all CPUs, so run.py's faster-half filter finds the quiet ones.
    // Untraced and traced passes alternate so that drift in the host's
    // speed lands on both sides of the overhead comparison.
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    sched_getaffinity(0, sizeof(allowed), &allowed);
    std::vector<int> cpus;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed))
            cpus.push_back(c);
    }
    std::vector<Pass> out;
    for (uint64_t i = 0; i < passes; ++i) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpus[i % cpus.size()], &one);
        sched_setaffinity(0, sizeof(one), &one);
        for (bool t : {false, true}) {
            if (t && !traced)
                continue;
            if (mode == "layers")
                continue;
            if (mode == "limit")
                out.push_back(limitPass(names, insts, t));
            else
                out.push_back(t ? tracedPass(cells) : sweepPass(cells));
        }
    }
    sched_setaffinity(0, sizeof(allowed), &allowed);

    std::map<std::string, double> model, layers;
    std::vector<Pass> probe;
    if (!cells.empty())
        model = modelRates(cells, out.front());
    if (traced && mode != "table1") {
        // A small Table 1 probe stands in where the workload has no
        // core (limit, layers) or no Table 1 machine (stall: the paper
        // comparison only).
        std::vector<Cell> pc = probeCells(probeInsts);
        probe.push_back(sweepPass(pc));
        probe.push_back(tracedPass(pc));
        for (const auto &[k, v] : modelRates(pc, probe.front()))
            model.emplace(k, v);
    }
    if (traced)
        layers = layerReplay();

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    std::printf("{\"mode\":\"%s\",\"seed\":%" PRIu64
                ",\"peak_rss_mb\":%.3f,\"spans\":%zu,\"passes\":[",
                mode.c_str(), seed, ru.ru_maxrss / 1024.0, spans.size());
    for (size_t i = 0; i < out.size(); ++i)
        printPass(out[i], i == 0);
    std::printf("],\"probe\":[");
    for (size_t i = 0; i < probe.size(); ++i)
        printPass(probe[i], i == 0);
    std::printf("]");
    printMap("model", model);
    printMap("layers", layers);
    std::printf("}\n");
    if (traced && !writeSpans(tracePath)) {
        std::fprintf(stderr, "vpirbench: cannot write %s\n",
                     tracePath.c_str());
        return 1;
    }
    return 0;
}
