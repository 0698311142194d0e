/**
 * @file
 * Self-contained repro bundles: everything needed to replay a fuzz
 * divergence on another checkout in one JSON file — the program text,
 * the generator seed and revision, the full machine configuration,
 * the hardening env knobs in effect, and the expected divergence.
 * Bundles are stamped with the stats- and params-schema fingerprints
 * and refused loudly on mismatch (a bundle from an incompatible build
 * must not "replay clean" by accident). Writes go through
 * publishFile() (common/file_io.hh), and the campaign scrubs stale tmp
 * files from its repro directory at startup.
 */

#ifndef VPIR_FUZZ_REPRO_HH
#define VPIR_FUZZ_REPRO_HH

#include <cstdint>
#include <string>

#include "fuzz/differential.hh"

namespace vpir
{
namespace fuzz
{

struct ReproBundle
{
    uint64_t generatorRevision = 0; //!< 0: program not generator-made
    uint64_t seed = 0;              //!< generator seed (when made)
    std::string workload;           //!< cell name, e.g. "fuzz:<hex>"
    std::string kind;               //!< expected divergence class
    std::string detail;             //!< divergence detail at capture
    std::string env;                //!< VPIR_* knobs in effect
    CoreParams params;
    Program program;
    std::string programText;        //!< canonical text form
};

/** Serialize (program is rendered to its text form first). */
std::string bundleToJson(const ReproBundle &b);

/**
 * Parse a bundle, verifying the format marker and both schema
 * fingerprints. @return false with a loud reason in @p err on any
 * mismatch or malformed content.
 */
bool bundleFromJson(const std::string &json, ReproBundle &out,
                    std::string &err);

/** Atomically write @p b to @p path (publishFile()). */
bool writeReproBundle(const ReproBundle &b, const std::string &path,
                      std::string &err);

/** Read + parse + fingerprint-check a bundle file. */
bool loadReproBundle(const std::string &path, ReproBundle &out,
                     std::string &err);

/** Re-run the bundled program under the bundled configuration. */
DiffOutcome replayBundle(const ReproBundle &b);

/** Echo of the fault/hardening env knobs currently set (for the
 *  bundle's "env" field). */
std::string captureHardeningEnv();

} // namespace fuzz
} // namespace vpir

#endif // VPIR_FUZZ_REPRO_HH
