#include "sim/checkpoint.hh"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <unistd.h>
#include <vector>

#include "check/fault.hh"
#include "common/ckpt_io.hh"
#include "common/env.hh"
#include "common/fnv.hh"
#include "common/logging.hh"
#include "core/core_stats.hh"

namespace vpir
{

namespace fs = std::filesystem;

namespace
{

constexpr char CKPT_MAGIC[8] = {'V', 'P', 'I', 'R', 'C', 'K', 'P', 'T'};
// Version 2: the CoreStats block encodes haltedCleanly as a u64 field
// of forEachStatField() instead of a trailing bool.
constexpr uint32_t CKPT_VERSION = 2;

/** Workload names are simple identifiers, but never trust a string
 *  that ends up in a filename. */
std::string
sanitizeName(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                  (c >= '0' && c <= '9') || c == '-' || c == '_';
        out.push_back(ok ? c : '_');
    }
    return out.empty() ? "cell" : out;
}

/** `<workload>-<cellkey hex>.` — everything for one cell shares it. */
std::string
cellPrefix(const CkptCellId &id)
{
    return sanitizeName(id.workload) + "-" + hex16(id.cellKey) + ".";
}

/** `<prefix><insts, zero-padded>.ckpt` — zero padding makes lexical
 *  and numeric order agree for direct inspection; loads sort by the
 *  parsed number regardless. */
std::string
ckptFileName(const CkptCellId &id, uint64_t insts)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%020llu",
                  static_cast<unsigned long long>(insts));
    return cellPrefix(id) + buf + ".ckpt";
}

struct CkptCandidate
{
    uint64_t insts = 0;
    fs::path path;
};

/** All `.ckpt` files for this cell, newest (highest insts) first. */
std::vector<CkptCandidate>
listCheckpoints(const CkptConfig &cfg, const CkptCellId &id)
{
    std::vector<CkptCandidate> out;
    const std::string prefix = cellPrefix(id);
    const std::string suffix = ".ckpt";
    std::error_code ec;
    fs::directory_iterator it(cfg.dir, ec), end;
    for (; !ec && it != end; it.increment(ec)) {
        std::string name = it->path().filename().string();
        if (name.size() <= prefix.size() + suffix.size() ||
            name.compare(0, prefix.size(), prefix) != 0 ||
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) != 0) {
            continue;
        }
        std::string num = name.substr(
            prefix.size(), name.size() - prefix.size() - suffix.size());
        uint64_t insts = 0;
        bool numeric = !num.empty();
        for (char c : num) {
            if (c < '0' || c > '9') {
                numeric = false;
                break;
            }
            insts = insts * 10 + static_cast<uint64_t>(c - '0');
        }
        if (!numeric)
            continue;
        out.push_back({insts, it->path()});
    }
    std::sort(out.begin(), out.end(),
              [](const CkptCandidate &a, const CkptCandidate &b) {
                  return a.insts > b.insts;
              });
    return out;
}

void
quarantine(const fs::path &path, const std::string &why)
{
    fs::path bad = path;
    bad += ".bad";
    std::error_code ec;
    fs::rename(path, bad, ec);
    std::fprintf(stderr,
                 "[ckpt] corrupt checkpoint %s: %s; quarantined to %s\n",
                 path.string().c_str(), why.c_str(),
                 ec ? "(rename failed)" : bad.string().c_str());
    if (ec)
        fs::remove(path, ec); // at least get it out of the resume path
}

/** Serialize the quiesced core into a full bundle (header + payload +
 *  CRC), optionally applying planted corruption. */
std::string
buildBundle(const CkptCellId &id, uint64_t prog_fp, const Core &core)
{
    CkptWriter payload;
    core.saveCheckpoint(payload);

    CkptWriter w;
    w.bytes(CKPT_MAGIC, sizeof(CKPT_MAGIC));
    w.u32(CKPT_VERSION);
    w.u64(statsSchemaFingerprint());
    w.u64(id.paramsHash);
    w.u64(prog_fp);
    w.u64(id.cellKey);
    w.u64(id.warmupInsts);
    w.u64(core.stats().committedInsts);
    w.u64(core.now());
    w.str(payload.data());
    // CRC travels last, over every preceding byte: any truncation or
    // flip anywhere in the file fails this one check.
    w.u32(crc32(w.data().data(), w.size()));
    return w.data();
}

bool
writeCheckpoint(const CkptConfig &cfg, const CkptCellId &id,
                uint64_t prog_fp, const CkptFaultPlan &faults,
                const Core &core)
{
    std::string bundle = buildBundle(id, prog_fp, core);
    if (applyCkptFaults(faults, bundle, core.stats().committedInsts)) {
        std::fprintf(stderr,
                     "[ckpt] fault injection corrupted checkpoint at "
                     "%llu insts\n",
                     static_cast<unsigned long long>(
                         core.stats().committedInsts));
    }

    fs::path final_path =
        fs::path(cfg.dir) / ckptFileName(id, core.stats().committedInsts);
    fs::path tmp = final_path;
    tmp += ".tmp." + std::to_string(::getpid());
    {
        std::ofstream os(tmp, std::ios::binary | std::ios::trunc);
        if (!os) {
            warn("[ckpt] cannot open " + tmp.string() + " for writing");
            return false;
        }
        os.write(bundle.data(),
                 static_cast<std::streamsize>(bundle.size()));
        if (!os) {
            warn("[ckpt] short write to " + tmp.string());
            std::error_code ec;
            fs::remove(tmp, ec);
            return false;
        }
    }
    std::error_code ec;
    fs::rename(tmp, final_path, ec);
    if (ec) {
        warn("[ckpt] cannot publish " + final_path.string() + ": " +
             ec.message());
        fs::remove(tmp, ec);
        return false;
    }
    return true;
}

void
rotateCheckpoints(const CkptConfig &cfg, const CkptCellId &id)
{
    std::vector<CkptCandidate> all = listCheckpoints(cfg, id);
    for (size_t i = cfg.keep; i < all.size(); ++i) {
        std::error_code ec;
        fs::remove(all[i].path, ec);
    }
}

/**
 * Validate and restore one checkpoint file. On success the core holds
 * the restored machine. On failure the core may be TORN — the caller
 * must sim.resetCore() before running or trying another candidate.
 */
bool
tryRestore(Core &core, const fs::path &path, const CkptCellId &id,
           uint64_t prog_fp, std::string &why)
{
    std::string data;
    {
        std::ifstream is(path, std::ios::binary);
        if (!is) {
            why = "cannot open";
            return false;
        }
        std::ostringstream ss;
        ss << is.rdbuf();
        data = ss.str();
    }
    // CRC first: one check rejects every byte-level corruption,
    // before any field is even looked at.
    if (data.size() < sizeof(CKPT_MAGIC) + 4) {
        why = "truncated below minimum size";
        return false;
    }
    CkptReader tail(data.data() + data.size() - 4, 4);
    uint32_t stored_crc = tail.u32();
    if (crc32(data.data(), data.size() - 4) != stored_crc) {
        why = "CRC32 mismatch";
        return false;
    }

    CkptReader r(data.data(), data.size() - 4);
    char magic[sizeof(CKPT_MAGIC)];
    r.bytes(magic, sizeof(magic));
    if (!r.ok() || std::memcmp(magic, CKPT_MAGIC, sizeof(magic)) != 0) {
        why = "bad magic";
        return false;
    }
    if (uint32_t v = r.u32(); v != CKPT_VERSION) {
        why = "format version " + std::to_string(v) + ", expected " +
              std::to_string(CKPT_VERSION);
        return false;
    }
    if (r.u64() != statsSchemaFingerprint()) {
        why = "stats schema fingerprint mismatch (different binary)";
        return false;
    }
    if (r.u64() != id.paramsHash) {
        why = "params hash mismatch (stale cell)";
        return false;
    }
    if (r.u64() != prog_fp) {
        why = "program fingerprint mismatch (different workload build)";
        return false;
    }
    if (r.u64() != id.cellKey) {
        why = "cell key mismatch";
        return false;
    }
    if (r.u64() != id.warmupInsts) {
        why = "warmup provenance mismatch";
        return false;
    }
    r.u64(); // committedInsts: informational (also the filename)
    r.u64(); // cycle: informational
    std::string payload = r.str();
    if (!r.ok() || !r.atEnd()) {
        why = "malformed header/payload framing";
        return false;
    }
    CkptReader pr(payload);
    if (!core.restoreCheckpoint(pr) || !pr.atEnd()) {
        why = "payload rejected by a subsystem deserializer";
        return false;
    }
    return true;
}

// --- graceful-stop plumbing ------------------------------------------

thread_local const std::atomic<int> *t_stopFlag = nullptr;
volatile std::sig_atomic_t g_sigStop = 0;

} // anonymous namespace

CkptStopScope::CkptStopScope(const std::atomic<int> *flag) : prev(t_stopFlag)
{
    t_stopFlag = flag;
}

CkptStopScope::~CkptStopScope() { t_stopFlag = prev; }

bool
ckptStopRequested()
{
    if (g_sigStop)
        return true;
    const std::atomic<int> *f = t_stopFlag;
    return f && f->load(std::memory_order_relaxed) != 0;
}

void
noteCkptStopSignal()
{
    g_sigStop = 1;
}

void
clearCkptStopSignal()
{
    g_sigStop = 0;
}

// --- public entry points ---------------------------------------------

CkptConfig
ckptConfigFromEnv(uint64_t ckpt_insts)
{
    CkptConfig cfg;
    cfg.insts = ckpt_insts;
    if (const char *d = std::getenv("VPIR_CKPT_DIR"))
        cfg.dir = d;
    cfg.keep = static_cast<unsigned>(parseEnvU64("VPIR_CKPT_KEEP", cfg.keep));
    if (cfg.keep == 0)
        cfg.keep = 1; // keeping zero checkpoints defeats the feature
    cfg.resume = parseEnvU64("VPIR_CKPT_RESUME", 1) != 0;
    cfg.mustResume = parseEnvU64("VPIR_CKPT_MUST_RESUME", 0) != 0;
    return cfg;
}

uint64_t
programFingerprint(const Program &prog)
{
    Fnv64 f;
    f.u64(prog.textBase);
    f.u64(prog.entry);
    f.u64(prog.stackTop);
    f.u64(prog.text.size());
    for (const Instr &i : prog.text) {
        f.u64(static_cast<uint64_t>(i.op));
        f.u64((static_cast<uint64_t>(i.rd) << 24) |
              (static_cast<uint64_t>(i.rd2) << 16) |
              (static_cast<uint64_t>(i.rs) << 8) |
              static_cast<uint64_t>(i.rt));
        f.u64(static_cast<uint64_t>(static_cast<uint32_t>(i.imm)));
        f.u64(i.target);
    }
    f.u64(prog.dataInit.size());
    for (const auto &blk : prog.dataInit) {
        f.u64(blk.first);
        f.u64(blk.second.size());
        for (uint8_t b : blk.second)
            f.byte(b);
    }
    return f.h;
}

void
scrubCkptTmpFiles(const std::string &dir)
{
    if (dir.empty())
        return;
    std::error_code ec;
    fs::directory_iterator it(dir, ec), end;
    size_t scrubbed = 0;
    for (; !ec && it != end; it.increment(ec)) {
        if (it->path().filename().string().find(".ckpt.tmp.") ==
            std::string::npos)
            continue;
        std::error_code rm_ec;
        if (fs::remove(it->path(), rm_ec))
            ++scrubbed;
    }
    if (scrubbed) {
        warn("scrubbed " + std::to_string(scrubbed) +
             " stale checkpoint tmp file(s) in '" + dir +
             "' left by a killed process");
    }
}

void
removeCheckpoints(const CkptConfig &cfg, const CkptCellId &id)
{
    // Only the good `.ckpt` files: quarantined `.bad` bundles stay on
    // disk as evidence until someone inspects and deletes them.
    for (const CkptCandidate &c : listCheckpoints(cfg, id)) {
        std::error_code ec;
        fs::remove(c.path, ec);
    }
}

CkptRunResult
runWithCheckpoints(Simulator &sim, const CkptConfig &cfg,
                   const CkptCellId &id, bool allow_resume)
{
    CkptRunResult res;
    if (!cfg.persistent()) {
        // Drains (if any) still happen inside cycle(); there is just
        // nothing to persist, so graceful stops cannot be honored
        // mid-cell either.
        sim.run();
        return res;
    }

    std::error_code ec;
    fs::create_directories(cfg.dir, ec);
    if (ec) {
        warn("[ckpt] cannot create checkpoint dir '" + cfg.dir + "': " +
             ec.message() + "; persistence disabled for this run");
        sim.run();
        return res;
    }

    const uint64_t prog_fp = programFingerprint(sim.program());

    if (cfg.resume && allow_resume) {
        for (const CkptCandidate &cand : listCheckpoints(cfg, id)) {
            std::string why;
            if (tryRestore(sim.core(), cand.path, id, prog_fp, why)) {
                res.resumed = true;
                res.resumedFromInsts = cand.insts;
                std::fprintf(
                    stderr, "[ckpt] resumed %s from %s (%llu insts)\n",
                    id.workload.c_str(), cand.path.string().c_str(),
                    static_cast<unsigned long long>(cand.insts));
                break;
            }
            quarantine(cand.path, why);
            // A failed restore can leave the core torn; rebuild
            // before trying the next-newest candidate (or cold).
            sim.resetCore();
        }
    }
    if (cfg.mustResume && !res.resumed) {
        panic("[ckpt] VPIR_CKPT_MUST_RESUME=1 but no valid checkpoint "
              "could be restored for cell " +
              hex16(id.cellKey) + " (" + id.workload + ")");
    }

    const CkptFaultPlan faults = ckptFaultPlanFromEnv();
    Core &core = sim.core();
    while (core.cycle()) {
        if (!core.atCkptBoundary())
            continue;
        if (writeCheckpoint(cfg, id, prog_fp, faults, core))
            ++res.checkpointsWritten;
        rotateCheckpoints(cfg, id);
        if (ckptStopRequested()) {
            // Stop exactly at the boundary just persisted: the next
            // run restores it and continues byte-identically.
            res.stopped = true;
            return res;
        }
    }
    core.finishStats();
    removeCheckpoints(cfg, id);
    return res;
}

} // namespace vpir
