#include "spec_codec.hh"

#include <charconv>
#include <set>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/parse.hh"
#include "runner/report.hh"
#include "tracefile/source.hh"

namespace wlcrc::runner
{

namespace
{

/** Values are newline-terminated; a newline inside one would forge
 *  the next key. Nothing in the factory/workload name tables ever
 *  contains one, so this is a programming-error guard, not a
 *  quoting scheme. */
const std::string &
checkValue(const std::string &v, const char *what)
{
    if (v.find('\n') != std::string::npos)
        throw std::invalid_argument(
            std::string("spec ") + what +
            " must not contain a newline");
    return v;
}

uint64_t
fnv1a(const std::string &text, uint64_t hash = 14695981039346656037ULL)
{
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ULL;
    }
    return hash;
}

} // namespace

std::string
formatDouble(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

std::string
canonicalSpec(const ExperimentSpec &spec)
{
    std::ostringstream os;
    os << specMagic << '\n';
    os << "scheme=" << checkValue(spec.scheme, "scheme") << '\n';
    if (spec.source) {
        const std::string path = spec.source->filePath();
        if (path.empty())
            os << "stream=memory\n";
        else
            os << "stream=trace:" << checkValue(path, "trace path")
               << '\n';
        // The source label is presentation-only and deliberately
        // NOT serialized: cache lookups and worker results both
        // carry the caller's live spec (label included), so
        // relabeling a trace must not invalidate its entries.
    } else if (spec.random) {
        os << "stream=random\n";
    } else {
        os << "stream=workload:"
           << checkValue(spec.workload, "workload") << '\n';
    }
    // `lines` only shapes synthesized streams; a sourced spec's
    // length is the file's, so it stays out of the canonical form
    // (and therefore out of the cache key) exactly as it stays out
    // of the reports.
    if (!spec.source)
        os << "lines=" << spec.lines << '\n';
    os << "seed=" << spec.seed << '\n';
    os << "shards=" << (spec.shards ? spec.shards : 1) << '\n';
    // Emitted only when non-default: range partitioning reassigns
    // lines to differently-seeded shard devices (a result change),
    // but every modulo spec's canonical text — and cache hash —
    // predates the knob and must stay byte-identical.
    if (spec.partition == tracefile::Partition::range)
        os << "partition=range\n";
    os << "s3=" << formatDouble(spec.device.s3) << '\n';
    os << "s4=" << formatDouble(spec.device.s4) << '\n';
    os << "vnr=" << (spec.device.vnr ? 1 : 0) << '\n';
    os << "wear=" << spec.device.wearEndurance << '\n';
    // Wear-leveling / lifetime keys are emitted only when active, so
    // every pre-existing spec's canonical text — and therefore its
    // cache hash — is unchanged by the subsystem's existence.
    if (spec.leveler.active())
        os << "leveler=" << wearlevel::formatLeveler(spec.leveler)
           << '\n';
    if (spec.endurance.active())
        os << "endurance="
           << wearlevel::formatEndurance(spec.endurance) << '\n';
    if (spec.lifetime)
        os << "lifetime=1\n";
    if (!spec.cacheSalt.empty())
        os << "salt=" << checkValue(spec.cacheSalt, "cache salt")
           << '\n';
    if (spec.codecFactory)
        os << "factory=1\n";
    if (spec.customReplay)
        os << "custom=1\n";
    return os.str();
}

namespace
{

/** parseSpec() minus the translation of std::invalid_argument. */
ExperimentSpec
parseSpecText(const std::string &text)
{
    std::istringstream in(text);
    std::string line;
    if (!std::getline(in, line) || line != specMagic)
        throw std::runtime_error(
            "spec: missing magic line (expected '" +
            std::string(specMagic) + "')");

    ExperimentSpec spec;
    spec.workload.clear();
    std::string tracePath;
    std::string sourceLabel;
    std::set<std::string> seen;

    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        const std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            throw std::runtime_error("spec: malformed line '" +
                                     line + "'");
        const std::string key = line.substr(0, eq);
        const std::string value = line.substr(eq + 1);
        seen.insert(key);
        if (key == "scheme") {
            spec.scheme = value;
        } else if (key == "stream") {
            if (value == "random") {
                spec.random = true;
            } else if (value.rfind("workload:", 0) == 0) {
                spec.workload = value.substr(9);
            } else if (value.rfind("trace:", 0) == 0) {
                tracePath = value.substr(6);
            } else {
                // "memory" lands here too: an in-memory stream
                // cannot be reconstructed in another process.
                throw std::runtime_error(
                    "spec: unsupported stream '" + value + "'");
            }
        } else if (key == "source_label") {
            sourceLabel = value;
        } else if (key == "lines") {
            spec.lines = parseU64(value, key);
        } else if (key == "seed") {
            spec.seed = parseU64(value, key);
        } else if (key == "shards") {
            spec.shards = parseUint<unsigned>(value, key);
        } else if (key == "partition") {
            spec.partition = tracefile::parsePartitionName(value);
        } else if (key == "s3") {
            spec.device.s3 = parseReal(value, key);
        } else if (key == "s4") {
            spec.device.s4 = parseReal(value, key);
        } else if (key == "vnr") {
            spec.device.vnr = parseU64(value, key) != 0;
        } else if (key == "wear") {
            spec.device.wearEndurance = parseU64(value, key);
        } else if (key == "leveler") {
            spec.leveler = wearlevel::parseLeveler(value);
        } else if (key == "endurance") {
            spec.endurance = wearlevel::parseEndurance(value);
        } else if (key == "lifetime") {
            spec.lifetime = parseU64(value, key) != 0;
        } else if (key == "salt") {
            spec.cacheSalt = value;
        } else if (key == "factory" || key == "custom") {
            throw std::runtime_error(
                "spec: '" + key +
                "' hooks cannot cross a process boundary");
        } else if (key == "digest") {
            // Hash-only annotation; harmless in a worker file.
        } else {
            throw std::runtime_error("spec: unknown key '" + key +
                                     "'");
        }
    }
    // Every field canonicalSpec() always emits must be present: a
    // truncated file has to fail loudly, not replay a half-default
    // spec that would then be cached under the real key.
    std::vector<std::string> required = {"scheme", "stream", "seed",
                                         "shards", "s3",   "s4",
                                         "vnr",    "wear"};
    if (seen.count("stream") && tracePath.empty())
        required.push_back("lines"); // synthesized streams only
    for (const auto &key : required) {
        if (!seen.count(key))
            throw std::runtime_error("spec: missing '" + key +
                                     "' line (truncated file?)");
    }
    if (!tracePath.empty()) {
        auto src = tracefile::openTraceSource(tracePath);
        if (!sourceLabel.empty())
            src->setLabel(sourceLabel);
        spec.source = std::move(src);
    }
    return spec;
}

} // namespace

ExperimentSpec
parseSpec(const std::string &text)
{
    // The number grammar and the leveler and endurance parsers throw
    // std::invalid_argument; parseSpec()'s contract is
    // std::runtime_error.
    try {
        return parseSpecText(text);
    } catch (const std::invalid_argument &e) {
        throw std::runtime_error(std::string("spec: ") + e.what());
    }
}

bool
processSerializable(const ExperimentSpec &spec, std::string *why)
{
    const auto blocked = [&](const char *reason) {
        if (why)
            *why = reason;
        return false;
    };
    if (spec.customReplay)
        return blocked("custom replay hook is a closure");
    if (spec.codecFactory)
        return blocked("codec factory is a closure");
    if (spec.source && spec.source->filePath().empty())
        return blocked("in-memory source has no reopenable path");
    if (spec.keepWearTracker)
        return blocked(
            "a worker result cannot carry the per-cell tracker");
    return true;
}

bool
cacheableSpec(const ExperimentSpec &spec)
{
    // A custom replay's real output flows through side channels the
    // cache cannot replay; a factory codec is invisible to the hash
    // unless the owner salts the spec.
    if (spec.customReplay)
        return false;
    if (spec.codecFactory && spec.cacheSalt.empty())
        return false;
    // A cache entry cannot carry the per-cell tracker the caller
    // asked to keep, so a hit would lose it.
    if (spec.keepWearTracker)
        return false;
    return true;
}

std::string
specKeyText(const ExperimentSpec &spec)
{
    std::ostringstream os;
    os << canonicalSpec(spec);
    if (spec.source)
        os << "digest=" << std::hex << spec.source->contentDigest()
           << std::dec << '\n';
    os << "report_version=" << kReportVersion << '\n';
    return os.str();
}

uint64_t
specHash(const ExperimentSpec &spec)
{
    return fnv1a(specKeyText(spec));
}

std::string
specHashHex(const ExperimentSpec &spec)
{
    const uint64_t h = specHash(spec);
    char buf[17];
    static const char *hex = "0123456789abcdef";
    for (int i = 0; i < 16; ++i)
        buf[i] = hex[(h >> (60 - 4 * i)) & 0xf];
    buf[16] = '\0';
    return buf;
}

} // namespace wlcrc::runner
