#include "fuzz/repro.hh"

#include <cstdlib>
#include <sstream>

#include "common/file_io.hh"
#include "common/fnv.hh"
#include "common/json.hh"
#include "fuzz/program_io.hh"
#include "sim/configs.hh"
#include "sweep/stats_json.hh"

namespace vpir
{
namespace fuzz
{

namespace
{

constexpr const char *FORMAT = "vpir-repro v1";

} // namespace

std::string
captureHardeningEnv()
{
    std::string out;
    for (const char *k : hardeningEnvVars) {
        const char *v = std::getenv(k);
        if (!v)
            continue;
        if (!out.empty())
            out += " ";
        out += std::string(k) + "=" + v;
    }
    return out;
}

std::string
bundleToJson(const ReproBundle &b)
{
    std::string text =
        b.programText.empty() ? programToText(b.program) : b.programText;
    std::ostringstream out;
    out << "{\n"
        << "  \"format\": \"" << FORMAT << "\",\n"
        << "  \"stats_schema\": \""
        << hex16(statsSchemaFingerprint()) << "\",\n"
        << "  \"params_schema\": \""
        << hex16(sweep::paramsSchemaFingerprint()) << "\",\n"
        << "  \"generator_revision\": " << b.generatorRevision << ",\n"
        << "  \"seed\": " << b.seed << ",\n"
        << "  \"workload\": \"" << jsonEscape(b.workload) << "\",\n"
        << "  \"kind\": \"" << jsonEscape(b.kind) << "\",\n"
        << "  \"detail\": \"" << jsonEscape(b.detail) << "\",\n"
        << "  \"env\": \"" << jsonEscape(b.env) << "\",\n"
        << "  \"params\": " << sweep::paramsToJson(b.params) << ",\n"
        << "  \"program\": \"" << jsonEscape(text) << "\"\n"
        << "}\n";
    return out.str();
}

bool
bundleFromJson(const std::string &json, ReproBundle &out,
               std::string &err)
{
    JsonObject obj(json);
    if (!obj.ok()) {
        err = "bundle is not a well-formed JSON object";
        return false;
    }
    std::string fmt;
    if (!obj.getString("format", fmt) || fmt != FORMAT) {
        err = "not a " + std::string(FORMAT) + " bundle (format: '" +
              fmt + "')";
        return false;
    }
    std::string sfp, pfp;
    if (!obj.getString("stats_schema", sfp) ||
        !obj.getString("params_schema", pfp)) {
        err = "bundle is missing its schema fingerprints";
        return false;
    }
    if (sfp != hex16(statsSchemaFingerprint())) {
        err = "stats-schema fingerprint mismatch: bundle " + sfp +
              ", this binary " + hex16(statsSchemaFingerprint()) +
              " — the bundle was produced by an incompatible build; "
              "refusing to replay";
        return false;
    }
    if (pfp != hex16(sweep::paramsSchemaFingerprint())) {
        err = "params-schema fingerprint mismatch: bundle " + pfp +
              ", this binary " +
              hex16(sweep::paramsSchemaFingerprint()) +
              " — the bundle was produced by an incompatible build; "
              "refusing to replay";
        return false;
    }

    ReproBundle b;
    obj.getU64("generator_revision", b.generatorRevision);
    obj.getU64("seed", b.seed);
    obj.getString("workload", b.workload);
    if (!obj.getString("kind", b.kind)) {
        err = "bundle has no expected divergence kind";
        return false;
    }
    obj.getString("detail", b.detail);
    obj.getString("env", b.env);

    std::string pjson;
    if (!obj.getObject("params", pjson) ||
        !sweep::paramsFromJson(pjson, b.params)) {
        err = "bundle params object is missing or malformed";
        return false;
    }
    if (!obj.getString("program", b.programText)) {
        err = "bundle has no program text";
        return false;
    }
    std::string perr;
    if (!programFromText(b.programText, b.program, perr)) {
        err = "bundle program does not parse: " + perr;
        return false;
    }
    out = std::move(b);
    return true;
}

bool
writeReproBundle(const ReproBundle &b, const std::string &path,
                 std::string &err)
{
    return publishFile(path, bundleToJson(b), err);
}

bool
loadReproBundle(const std::string &path, ReproBundle &out,
                std::string &err)
{
    std::string text;
    if (!readFile(path, text)) {
        err = "cannot read repro bundle '" + path + "'";
        return false;
    }
    return bundleFromJson(text, out, err);
}

DiffOutcome
replayBundle(const ReproBundle &b)
{
    return runDifferential(b.program, b.params);
}

} // namespace fuzz
} // namespace vpir
