#include "sweep/sweep.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "common/env.hh"
#include "common/file_io.hh"
#include "common/fnv.hh"
#include "common/json.hh"
#include "common/logging.hh"
#include "sim/simulator.hh"
#include "sim/warm_cache.hh"
#include "sweep/stats_json.hh"

namespace vpir
{
namespace sweep
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Reproducibility tail for cell failure reports: the active fault
 *  seed. */
std::string
cellReproInfo(const SweepCell &cell)
{
    if (!cell.params.faults.any())
        return "";
    return " fault_seed=0x" + hex16(cell.params.faults.seed);
}

/** cellHash() of @p cell, whose params hash is @p params_hash. */
uint64_t
cellKey(const SweepCell &cell, uint64_t params_hash)
{
    Fnv64 f;
    f.h = params_hash;
    f.str(cell.workload);
    uint64_t scale_bits;
    static_assert(sizeof(scale_bits) == sizeof(cell.scale.factor),
                  "scale factor must be 64-bit");
    std::memcpy(&scale_bits, &cell.scale.factor, sizeof(scale_bits));
    f.u64(scale_bits);
    return f.h;
}

} // anonymous namespace

std::string
defaultCacheDir()
{
    if (const char *s = std::getenv("VPIR_RESULT_CACHE"))
        return s;
    return "";
}

// --------------------------------------------------------------- hash

uint64_t
hashParams(const CoreParams &p)
{
    // Every field forEachParamField() visits, as its u64 proxy; the
    // visitor's sizeof() tripwire keeps a new field from being skipped
    // (a skipped field is a latent stale-cache collision).
    CoreParams tmp = p;
    Fnv64 f;
    forEachParamField(tmp, [&f](const char *, uint64_t &v) { f.u64(v); });
    return f.h;
}

uint64_t
cellHash(const SweepCell &cell)
{
    return cellKey(cell, hashParams(cell.params));
}

// -------------------------------------------------------------- engine

SweepEngine::SweepEngine(unsigned jobs, const std::string &cache_dir)
    : numJobs(jobs ? jobs : defaultJobs()), cacheDir(cache_dir)
{
    if (!cacheDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(cacheDir, ec);
        if (ec) {
            warn("cannot create VPIR_RESULT_CACHE dir '" + cacheDir +
                 "': " + ec.message() + "; disk cache disabled");
            cacheDir.clear();
        } else if (unsigned n = scrubStaleTmpFiles(cacheDir)) {
            // A tmp of a concurrently live sweep may go too: its
            // rename then fails with a warning and the cell is simply
            // recomputed next run, so the race is benign.
            warn("scrubbed " + std::to_string(n) +
                 " stale .tmp file(s) left in result cache '" + cacheDir +
                 "' by a killed process");
        }
    }
}

size_t
SweepEngine::findOrCreate(const SweepCell &cell)
{
    uint64_t params_hash = hashParams(cell.params);
    uint64_t key = cellKey(cell, params_hash);
    auto [it, added] = byKey.try_emplace(key, records.size());
    if (added) {
        auto rec = std::make_unique<Record>();
        rec->cell = cell;
        rec->key = key;
        rec->timing.workload = cell.workload;
        rec->timing.label = cell.label;
        rec->timing.paramsHash = params_hash;
        records.push_back(std::move(rec));
    }
    return it->second;
}

void
SweepEngine::prefetch(const SweepCell &cell)
{
    findOrCreate(cell);
}

void
SweepEngine::runQueued()
{
    auto t0 = std::chrono::steady_clock::now();
    const size_t first = nextToRun;
    parallelFor(
        records.size() - first,
        [&](size_t i) { runRecord(*records[first + i]); }, numJobs);
    nextToRun = records.size();
    drainSeconds += secondsSince(t0);
}

void
SweepEngine::drain()
{
    runQueued();
}

const CoreStats &
SweepEngine::get(const SweepCell &cell)
{
    size_t i = findOrCreate(cell);
    if (i >= nextToRun)
        runQueued();
    return records[i]->stats;
}

void
SweepEngine::runRecord(Record &rec)
{
    auto t0 = std::chrono::steady_clock::now();
    // A checked or audited cell always simulates: a cached result
    // would skip its check without a word. It still writes its
    // result below.
    const CoreParams &p = rec.cell.params;
    bool checked = p.checkRetire || p.auditInvariants;
    CellTiming &t = rec.timing;
    t.fromDiskCache = !checked && !cacheDir.empty() && tryLoadFromDisk(rec);
    if (!t.fromDiskCache)
        simulate(rec);
    t.wallSeconds = secondsSince(t0);
    t.committedInsts = rec.stats.committedInsts;
    // Never cache a failed cell: a rerun must try it again.
    if (!t.fromDiskCache && !rec.failed && !cacheDir.empty())
        saveToDisk(rec);
}

void
SweepEngine::simulate(Record &rec)
{
    // Fault containment: panic()/fatal() inside the cell (simulator
    // bug, watchdog, lockstep divergence, bad workload name) become a
    // SimError here and a failed record, never a dead sweep. The cell
    // is not retried: a panic replays identically.
    const SweepCell &cell = rec.cell;
    const std::string phex = hex16(rec.timing.paramsHash);
    PanicThrowScope throw_scope;
    PanicContext cell_frame([&cell, &phex] {
        return "sweep cell workload=" + cell.workload + " label=" +
               cell.label + " params=" + phex + cellReproInfo(cell);
    });

    auto t0 = std::chrono::steady_clock::now();
    try {
        // The first cell per key builds the program and the warm
        // snapshot, the others clone them; the build cost lands in
        // that one cell's setupSeconds.
        WarmStartCache &cache = WarmStartCache::global();
        std::shared_ptr<const Workload> w =
            cache.workload(cell.workload, cell.scale);
        std::shared_ptr<const EmuSnapshot> snap =
            cache.snapshot(cell.workload, cell.scale,
                           cell.params.warmupInsts);
        Simulator sim(cell.params, std::move(w), std::move(snap));
        auto t1 = std::chrono::steady_clock::now();
        rec.timing.setupSeconds =
            std::chrono::duration<double>(t1 - t0).count();
        Core &core = sim.core();
        PanicContext sim_frame([&core] {
            return "cycle " + std::to_string(core.now()) + ", seq " +
                   std::to_string(core.seqAllocated());
        });
        rec.stats = sim.run();
        rec.timing.profile = core.schedProfile();
        rec.timing.runSeconds = secondsSince(t1);
    } catch (const SimError &e) {
        rec.failed = true;
        rec.error = e.what();
        rec.stats = CoreStats{};
    }
}

// ---------------------------------------------------------- disk cache

std::string
SweepEngine::diskPath(const Record &rec) const
{
    return cacheDir + "/" + rec.cell.workload + "-" + hex16(rec.key) +
           ".json";
}

bool
SweepEngine::tryLoadFromDisk(Record &rec)
{
    std::string text;
    if (!readFile(diskPath(rec), text))
        return false;
    JsonObject file(text);

    // Validate the key: a file that does not carry the exact cell
    // hash (e.g. written by an incompatible version) is ignored.
    std::string key, schema, stats;
    if (!file.getString("cell_hash", key) || key != hex16(rec.key))
        return false;

    // Validate the stat schema: a file written by a binary with a
    // different stat field set must be rejected loudly up front, not
    // through a silent field-by-field parse failure.
    if (!file.getString("stats_schema", schema) ||
        schema != hex16(statsSchemaFingerprint())) {
        static std::atomic<bool> warned{false};
        if (!warned.exchange(true))
            warn("result cache file " + diskPath(rec) +
                 " carries a different stats schema (written by an "
                 "older binary?); recomputing affected cells");
        return false;
    }

    return file.getObject("stats", stats) &&
           statsFromJson(stats, rec.stats);
}

void
SweepEngine::saveToDisk(const Record &rec)
{
    std::ostringstream out;
    out << "{\n"
        << "  \"schema\": 2,\n"
        << "  \"stats_schema\": \"" << hex16(statsSchemaFingerprint())
        << "\",\n"
        << "  \"workload\": \"" << jsonEscape(rec.cell.workload) << "\",\n"
        << "  \"label\": \"" << jsonEscape(rec.cell.label) << "\",\n"
        << "  \"cell_hash\": \"" << hex16(rec.key) << "\",\n"
        << "  \"params_hash\": \"" << hex16(rec.timing.paramsHash)
        << "\",\n"
        << "  \"max_insts\": " << rec.cell.params.maxInsts << ",\n"
        << "  \"scale\": " << rec.cell.scale.factor << ",\n"
        << "  \"stats\": " << statsToJson(rec.stats) << "\n"
        << "}\n";
    std::string err;
    if (!publishFile(diskPath(rec), out.str(), err))
        warn("result cache: " + err);
}

// ------------------------------------------------------- observability

std::vector<CellTiming>
SweepEngine::timings() const
{
    std::vector<CellTiming> out;
    out.reserve(nextToRun);
    for (const auto &r : ran())
        if (!r->failed)
            out.push_back(r->timing);
    return out;
}

std::vector<CellFailure>
SweepEngine::failures() const
{
    std::vector<CellFailure> out;
    for (const auto &r : ran()) {
        if (r->failed)
            out.push_back({r->timing.workload, r->timing.label,
                           r->timing.paramsHash, r->error});
    }
    return out;
}

size_t
SweepEngine::cellsComputed() const
{
    size_t n = 0;
    for (const auto &r : ran())
        if (!r->timing.fromDiskCache)
            ++n;
    return n;
}

size_t
SweepEngine::cellsFromDiskCache() const
{
    size_t n = 0;
    for (const auto &r : ran())
        if (r->timing.fromDiskCache)
            ++n;
    return n;
}

SweepEngine::Totals
SweepEngine::totals() const
{
    Totals s;
    for (const auto &r : ran()) {
        if (r->failed)
            continue;
        const CellTiming &t = r->timing;
        ++s.cells;
        s.cpu += t.wallSeconds;
        s.setup += t.setupSeconds;
        s.run += t.runSeconds;
        s.insts += t.committedInsts;
        if (t.fromDiskCache)
            ++s.diskHits;
        else
            s.execInsts += t.committedInsts;
    }
    if (s.diskHits < s.cells && drainSeconds > 0.0)
        s.mips = static_cast<double>(s.execInsts) / drainSeconds / 1e6;
    return s;
}

bool
SweepEngine::writeTimingJson(const std::string &path) const
{
    Totals s = totals();
    WarmStartCache::Counters wc = WarmStartCache::global().counters();

    std::ofstream out(path);
    if (!out)
        return false;
    char buf[512];
    char mips[32];
    if (s.mips >= 0.0)
        std::snprintf(mips, sizeof(mips), "%.3f", s.mips);
    else
        std::snprintf(mips, sizeof(mips), "null");
    out << "{\n  \"jobs\": " << numJobs << ",\n";
    std::snprintf(buf, sizeof(buf),
                  "  \"aggregate\": {\"cells\": %zu, "
                  "\"disk_cache_hits\": %zu, \"wall_s\": %.6f, "
                  "\"cpu_s\": %.6f, \"setup_s\": %.6f, "
                  "\"run_s\": %.6f, \"insts\": %" PRIu64
                  ", \"executed_insts\": %" PRIu64
                  ", \"mips\": %s},\n",
                  s.cells, s.diskHits, drainSeconds, s.cpu, s.setup, s.run,
                  s.insts, s.execInsts, mips);
    out << buf;
    // Process-wide warm-start counters: "builds" should equal the
    // number of distinct (workload, scale[, warmup]) keys the process
    // ever touched, no matter how many cells ran.
    std::snprintf(buf, sizeof(buf),
                  "  \"warm_cache\": {\"program_builds\": %" PRIu64
                  ", \"program_hits\": %" PRIu64
                  ", \"snapshot_builds\": %" PRIu64
                  ", \"snapshot_hits\": %" PRIu64 "},\n",
                  wc.programBuilds, wc.programHits, wc.snapshotBuilds,
                  wc.snapshotHits);
    out << buf << "  \"cells\": [";
    const char *sep = "\n";
    for (const auto &r : ran()) {
        if (r->failed)
            continue;
        const CellTiming &t = r->timing;
        std::snprintf(buf, sizeof(buf),
                      "%s    {\"workload\": \"%s\", \"label\": \"%s\", "
                      "\"params_hash\": \"%016" PRIx64
                      "\", \"wall_s\": %.6f, \"setup_s\": %.6f, "
                      "\"run_s\": %.6f, \"insts\": %" PRIu64
                      ", \"mips\": %.3f, \"disk_cache\": %s",
                      sep, t.workload.c_str(), t.label.c_str(),
                      t.paramsHash, t.wallSeconds, t.setupSeconds,
                      t.runSeconds, t.committedInsts, t.mips(),
                      t.fromDiskCache ? "true" : "false");
        out << buf;
        if (!t.fromDiskCache) {
            out << ", \"profile\": {";
            const char *psep = "";
            forEachProfileField(
                t.profile, [&](const char *name, const uint64_t &v) {
                    out << psep << '"' << name << "\": " << v;
                    psep = ", ";
                });
            out << '}';
        }
        out << '}';
        sep = ",\n";
    }
    out << "\n  ]\n}\n";
    return out.good();
}

void
SweepEngine::printSummary(std::FILE *out) const
{
    Totals s = totals();
    std::fprintf(out,
                 "[sweep] %zu cells (%zu from disk cache), jobs=%u: "
                 "wall %.2fs, cpu %.2fs, %.2fM insts simulated, ",
                 s.cells, s.diskHits, numJobs, drainSeconds, s.cpu,
                 static_cast<double>(s.insts) / 1e6);
    if (s.mips >= 0.0)
        std::fprintf(out, "aggregate %.2f MIPS\n", s.mips);
    else
        std::fprintf(out, "aggregate n/a MIPS (no cell executed)\n");
    WarmStartCache::Counters wc = WarmStartCache::global().counters();
    if (wc.programBuilds + wc.programHits + wc.snapshotBuilds +
        wc.snapshotHits > 0) {
        std::fprintf(out,
                     "[sweep] warm-start cache: %" PRIu64
                     " program build(s) / %" PRIu64 " hit(s), %" PRIu64
                     " warmup snapshot(s) / %" PRIu64 " clone(s)\n",
                     wc.programBuilds, wc.programHits,
                     wc.snapshotBuilds, wc.snapshotHits);
    }
    std::vector<CellFailure> fails = failures();
    if (!fails.empty()) {
        std::fprintf(out, "[sweep] %zu cell(s) FAILED:\n",
                     fails.size());
        for (const CellFailure &f : fails) {
            std::fprintf(out,
                         "[sweep]   FAILED %s / %s (params %016" PRIx64
                         "):\n%s\n",
                         f.workload.c_str(), f.label.c_str(),
                         f.paramsHash, f.error.c_str());
        }
    }
}

// -------------------------------------------------------------- global

SweepEngine &
SweepEngine::global()
{
    static SweepEngine engine;
    return engine;
}

// --------------------------------------------------------- parallelFor

unsigned
defaultJobs()
{
    if (envSet("VPIR_JOBS")) {
        uint64_t v = parseEnvU64("VPIR_JOBS", 0);
        if (v >= 1)
            return static_cast<unsigned>(v);
        warn("ignoring VPIR_JOBS=0");
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

void
parallelFor(size_t n, const std::function<void(size_t)> &body,
            unsigned jobs)
{
    unsigned j = jobs ? jobs : defaultJobs();
    if (j <= 1 || n <= 1) {
        for (size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    std::atomic<size_t> next{0};
    unsigned nthreads = static_cast<unsigned>(
        std::min<size_t>(j, n));
    std::vector<std::thread> threads;
    threads.reserve(nthreads);
    // An exception escaping body() on a worker thread would call
    // std::terminate; capture the first one and rethrow it on the
    // calling thread after every worker has drained.
    std::exception_ptr first_error;
    std::mutex error_mu;
    for (unsigned t = 0; t < nthreads; ++t) {
        threads.emplace_back([&] {
            for (;;) {
                size_t i = next.fetch_add(1);
                if (i >= n)
                    return;
                try {
                    body(i);
                } catch (...) {
                    std::lock_guard<std::mutex> lk(error_mu);
                    if (!first_error)
                        first_error = std::current_exception();
                }
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace sweep
} // namespace vpir
