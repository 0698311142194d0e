#include "sweep/isolate.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include "common/ckpt_io.hh"
#include "common/deadline.hh"
#include "common/env.hh"
#include "common/fnv.hh"
#include "common/logging.hh"
#include "fuzz/generator.hh"
#include "sim/simulator.hh"
#include "sim/warm_cache.hh"
#include "sweep/sweep.hh"

namespace vpir
{
namespace sweep
{

IsolationConfig
isolationFromEnv()
{
    IsolationConfig cfg;
    cfg.enabled = parseEnvU64("VPIR_ISOLATE", 0) != 0;
    cfg.timeoutMs = parseEnvU64("VPIR_CELL_TIMEOUT_MS", 0);
    cfg.rlimitMb = parseEnvU64("VPIR_CELL_RLIMIT_MB", 0);
    return cfg;
}

std::string
signalName(int sig)
{
    switch (sig) {
      case SIGSEGV: return "SIGSEGV";
      case SIGABRT: return "SIGABRT";
      case SIGBUS:  return "SIGBUS";
      case SIGILL:  return "SIGILL";
      case SIGFPE:  return "SIGFPE";
      case SIGKILL: return "SIGKILL";
      case SIGTERM: return "SIGTERM";
      case SIGINT:  return "SIGINT";
      default:      return "signal " + std::to_string(sig);
    }
}

/** Reproducibility tail for cell failure reports: the active fault
 *  seed and, for generated fuzz programs, the generator seed and
 *  revision — enough to re-create a crashed cell without its repro
 *  bundle. */
std::string
cellReproInfo(const SweepCell &cell)
{
    std::string s;
    if (cell.params.faults.any())
        s += " fault_seed=0x" + hex16(cell.params.faults.seed);
    if (fuzz::isFuzzWorkloadName(cell.workload)) {
        s += " fuzz_seed=0x" + hex16(fuzz::fuzzSeedFromName(cell.workload)) +
             " gen_rev=" + std::to_string(fuzz::GENERATOR_REVISION);
    }
    return s;
}

// ------------------------------------------------------ in-process run

CellOutcome
computeCellOnce(const SweepCell &cell, uint64_t timeout_ms,
                std::shared_ptr<const Workload> prebuilt_w,
                std::shared_ptr<const EmuSnapshot> prebuilt_snap)
{
    CellOutcome out;
    const std::string phex = hex16(hashParams(cell.params));

    PanicThrowScope throw_scope;
    PanicContext cell_frame([&cell, &phex] {
        return "sweep cell workload=" + cell.workload + " label=" +
               cell.label + " params=" + phex + cellReproInfo(cell);
    });
    CellDeadlineScope deadline(timeout_ms);

    // Test/CI hook: stand in for a real simulator crash.
    if (const char *t = std::getenv("VPIR_TEST_CRASH_CELL");
        t && cell.label == t)
        raise(SIGSEGV);

    auto t0 = std::chrono::steady_clock::now();
    try {
        std::shared_ptr<const Workload> w = std::move(prebuilt_w);
        std::shared_ptr<const EmuSnapshot> snap = std::move(prebuilt_snap);
        if (!w) {
            if (WarmStartCache::enabledFromEnv()) {
                // In-process mode: first cell per key builds, the
                // others hit. The build cost lands in that one cell's
                // setupSeconds — phase timing stays honest.
                WarmStartCache &cache = WarmStartCache::global();
                w = cache.workload(cell.workload, cell.scale,
                                   &out.asmBuilt);
                snap = cache.snapshot(cell.workload, cell.scale,
                                      cell.params.warmupInsts,
                                      &out.warmBuilt);
            } else {
                auto priv = std::make_shared<Workload>(
                    makeWorkload(cell.workload, cell.scale));
                w = std::move(priv);
                out.asmBuilt = true;
                out.warmBuilt = true; // Core ctor replays the warmup
            }
        }
        out.workloadInput = w->input;
        Simulator sim(cell.params, std::move(w), std::move(snap));
        auto t1 = std::chrono::steady_clock::now();
        out.setupSeconds =
            std::chrono::duration<double>(t1 - t0).count();
        Core &core = sim.core();
        PanicContext sim_frame([&core] {
            return "cycle " + std::to_string(core.now()) + ", seq " +
                   std::to_string(core.seqAllocated());
        });
        out.stats = sim.run();
        out.profile = core.schedProfile();
        out.runSeconds = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t1)
                             .count();
    } catch (const SimError &e) {
        out.failed = true;
        out.error = e.what();
        out.timedOut = cellDeadlineExpired();
        out.stats = CoreStats{};
    }
    return out;
}

// -------------------------------------------------------- wire protocol

std::string
encodeOutcome(const CellOutcome &out)
{
    CkptWriter w;
    w.b(out.failed);
    w.b(out.timedOut);
    forEachStatField(out.stats,
                     [&w](const char *, const uint64_t &v) { w.u64(v); });
    w.str(out.workloadInput);
    w.str(out.error);
    w.f64(out.setupSeconds);
    w.f64(out.runSeconds);
    w.b(out.asmBuilt);
    w.b(out.warmBuilt);
    w.b(out.profile.enabled);
    forEachProfileField(out.profile,
                        [&w](const char *, const uint64_t &v) { w.u64(v); });
    return w.data();
}

bool
decodeOutcome(const std::string &data, CellOutcome &out)
{
    CkptReader r(data);
    CellOutcome tmp;
    tmp.failed = r.b();
    tmp.timedOut = r.b();
    forEachStatField(tmp.stats,
                     [&r](const char *, uint64_t &v) { v = r.u64(); });
    tmp.workloadInput = r.str();
    tmp.error = r.str();
    tmp.setupSeconds = r.f64();
    tmp.runSeconds = r.f64();
    tmp.asmBuilt = r.b();
    tmp.warmBuilt = r.b();
    tmp.profile.enabled = r.b();
    forEachProfileField(tmp.profile,
                        [&r](const char *, uint64_t &v) { v = r.u64(); });
    // A child killed mid-write leaves a strict prefix, which always
    // reads past the end; trailing bytes are just as malformed.
    if (!r.ok() || !r.atEnd())
        return false;
    out = std::move(tmp);
    return true;
}

namespace
{

void
writeAll(int fd, const std::string &data)
{
    size_t off = 0;
    while (off < data.size()) {
        ssize_t n = write(fd, data.data() + off, data.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return; // parent gone (SIGPIPE would normally kill us)
        }
        off += static_cast<size_t>(n);
    }
}

void
setNonBlocking(int fd)
{
    int flags = fcntl(fd, F_GETFL, 0);
    if (flags >= 0)
        fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/** Drain available bytes; returns false once the fd reports EOF. */
bool
drainFd(int fd, std::string &buf, size_t cap)
{
    char chunk[4096];
    for (;;) {
        ssize_t n = read(fd, chunk, sizeof(chunk));
        if (n > 0) {
            buf.append(chunk, static_cast<size_t>(n));
            if (buf.size() > cap)
                buf.erase(0, buf.size() - cap);
            continue;
        }
        if (n == 0)
            return false;
        if (errno == EINTR)
            continue;
        return true; // EAGAIN: no more for now, fd still open
    }
}

std::string
stderrTail(const std::string &captured, size_t max = 2048)
{
    if (captured.empty())
        return "";
    std::string tail = captured.size() > max
                           ? "..." + captured.substr(captured.size() - max)
                           : captured;
    return "\n  child stderr tail:\n" + tail;
}

} // anonymous namespace

// ------------------------------------------------------- isolated mode

CellOutcome
runCellIsolated(const SweepCell &cell, const IsolationConfig &cfg,
                std::shared_ptr<const Workload> prebuilt_w,
                std::shared_ptr<const EmuSnapshot> prebuilt_snap)
{
    // Any setup failure degrades to the in-process mode with a warning.
    int res_pipe[2] = {-1, -1}, err_pipe[2] = {-1, -1};
    pid_t pid = -1;
    const char *failed = pipe(res_pipe) != 0 || pipe(err_pipe) != 0
                             ? "pipe"
                             : (pid = fork()) < 0 ? "fork" : nullptr;
    if (failed) {
        warn(std::string("VPIR_ISOLATE: ") + failed + "() failed (" +
             std::strerror(errno) + "); running cell in-process");
        for (int fd : {res_pipe[0], res_pipe[1], err_pipe[0], err_pipe[1]})
            if (fd >= 0)
                close(fd);
        return computeCellOnce(cell, cfg.timeoutMs, prebuilt_w,
                               prebuilt_snap);
    }

    if (pid == 0) {
        // Child: finish this cell even if a terminal ^C reaches the
        // whole process group — the parent coordinates shutdown; a
        // hard-killed parent leaves us to die on SIGPIPE at result
        // write. The parent enforces the wall-clock deadline with
        // SIGKILL, so no cooperative deadline is armed here.
        sigset_t block;
        sigemptyset(&block);
        sigaddset(&block, SIGINT);
        sigaddset(&block, SIGTERM);
        sigprocmask(SIG_BLOCK, &block, nullptr);

        close(res_pipe[0]);
        close(err_pipe[0]);
        dup2(err_pipe[1], STDERR_FILENO);
        close(err_pipe[1]);
        if (cfg.rlimitMb) {
            struct rlimit rl;
            rl.rlim_cur = rl.rlim_max =
                static_cast<rlim_t>(cfg.rlimitMb) << 20;
            setrlimit(RLIMIT_AS, &rl);
        }
        CellOutcome out;
        try {
            out = computeCellOnce(cell, 0, prebuilt_w, prebuilt_snap);
        } catch (...) {
            out.failed = true;
            out.error = "unexpected exception in isolated cell worker";
            out.stats = CoreStats{};
        }
        writeAll(res_pipe[1], encodeOutcome(out));
        // _exit: never flush stdio buffers inherited from the parent
        // (a duplicate table header would break stdout determinism).
        _exit(0);
    }

    // Parent: drain both pipes until the child is reaped. EOF alone is
    // not a reliable end-of-child signal — a sibling worker's fork may
    // have inherited our write ends — so reap with WNOHANG in the
    // poll loop and stop once the child is gone and the pipes are dry.
    close(res_pipe[1]);
    close(err_pipe[1]);
    setNonBlocking(res_pipe[0]);
    setNonBlocking(err_pipe[0]);

    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(
                        cfg.timeoutMs ? cfg.timeoutMs : 0);
    bool timedOut = false;
    bool reaped = false;
    int status = 0;
    std::string resultText, errText;
    constexpr size_t RESULT_CAP = 4u << 20;
    constexpr size_t STDERR_CAP = 64u << 10;

    while (!reaped) {
        struct pollfd fds[2] = {{res_pipe[0], POLLIN, 0},
                                {err_pipe[0], POLLIN, 0}};
        int wait_ms = 100;
        if (cfg.timeoutMs && !timedOut) {
            auto left = std::chrono::duration_cast<
                            std::chrono::milliseconds>(
                            deadline - std::chrono::steady_clock::now())
                            .count();
            if (left <= 0) {
                timedOut = true;
                kill(pid, SIGKILL);
            } else {
                wait_ms = static_cast<int>(
                    std::min<long long>(left, 100));
            }
        }
        poll(fds, 2, wait_ms);
        drainFd(res_pipe[0], resultText, RESULT_CAP);
        drainFd(err_pipe[0], errText, STDERR_CAP);

        pid_t r = waitpid(pid, &status, WNOHANG);
        if (r == pid) {
            reaped = true;
            // Final drain: everything the child wrote is in the pipe
            // buffers by now.
            drainFd(res_pipe[0], resultText, RESULT_CAP);
            drainFd(err_pipe[0], errText, STDERR_CAP);
        } else if (r < 0 && errno != EINTR) {
            reaped = true; // should not happen; avoid spinning
        }
    }
    close(res_pipe[0]);
    close(err_pipe[0]);

    CellOutcome out;
    if (!timedOut && decodeOutcome(resultText, out)) {
        // Clean handoff (success or structured failure). Forward the
        // child's stderr (warn lines etc.) so the two modes look the
        // same on the console.
        if (!errText.empty())
            fwrite(errText.data(), 1, errText.size(), stderr);
        return out;
    }

    out = CellOutcome{};
    out.failed = true;
    out.timedOut = timedOut;
    out.stats = CoreStats{};
    if (timedOut) {
        out.error = "cell deadline exceeded (VPIR_CELL_TIMEOUT_MS=" +
                    std::to_string(cfg.timeoutMs) +
                    "): isolated worker killed with SIGKILL" +
                    cellReproInfo(cell) + stderrTail(errText);
    } else if (WIFSIGNALED(status)) {
        // The child died before it could attach its PanicContext
        // frames to anything, so the reproducibility info must be
        // synthesized here in the parent.
        out.error = "isolated cell worker killed by " +
                    signalName(WTERMSIG(status)) + cellReproInfo(cell) +
                    stderrTail(errText);
    } else if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
        out.error = "isolated cell worker exited with code " +
                    std::to_string(WEXITSTATUS(status)) +
                    cellReproInfo(cell) + stderrTail(errText);
    } else {
        out.error =
            "isolated cell worker returned a truncated result payload" +
            stderrTail(errText);
    }
    return out;
}

} // namespace sweep
} // namespace vpir
