#include "config.hh"

#include <charconv>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "common/parse.hh"

namespace wlcrc::wearlevel
{

namespace
{

std::vector<std::string>
splitColons(const std::string &text)
{
    std::vector<std::string> parts;
    std::string part;
    std::istringstream in(text);
    while (std::getline(in, part, ':'))
        parts.push_back(part);
    return parts;
}

/** Shortest round-trip double (same convention as the spec codec). */
std::string
fmtDouble(double v)
{
    char buf[64];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    return std::string(buf, res.ptr);
}

} // namespace

std::string
formatLeveler(const LevelerConfig &config)
{
    if (!config.active())
        return "none";
    std::ostringstream os;
    os << config.scheme << ":p" << config.period;
    if (config.scheme == "start-gap")
        os << ":r" << config.regionLines;
    else
        os << ":g" << config.pageLines;
    return os.str();
}

LevelerConfig
parseLeveler(const std::string &text)
{
    const auto parts = splitColons(text);
    if (parts.empty())
        throw std::invalid_argument("empty leveler spec");
    LevelerConfig config;
    config.scheme = parts[0];
    if (config.scheme != "none" && config.scheme != "start-gap" &&
        config.scheme != "page-remap") {
        throw std::invalid_argument(
            "unknown leveler scheme '" + config.scheme +
            "' (expected none, start-gap or page-remap)");
    }
    for (std::size_t i = 1; i < parts.size(); ++i) {
        const std::string &tok = parts[i];
        if (tok.size() < 2)
            throw std::invalid_argument("bad leveler token '" + tok +
                                        "'");
        const std::string num = tok.substr(1);
        switch (tok[0]) {
          case 'p':
            config.period = parseU64(num, "leveler period");
            break;
          case 'r':
            config.regionLines =
                parseUint<unsigned>(num, "leveler region lines");
            break;
          case 'g':
            config.pageLines =
                parseUint<unsigned>(num, "leveler page lines");
            break;
          default:
            throw std::invalid_argument("bad leveler token '" + tok +
                                        "'");
        }
    }
    if (config.active() &&
        (config.period == 0 || config.regionLines == 0 ||
         config.pageLines == 0)) {
        throw std::invalid_argument(
            "leveler period/region/page values must be positive");
    }
    return config;
}

std::string
formatEndurance(const EnduranceConfig &config)
{
    std::ostringstream os;
    os << config.meanWrites << ':' << fmtDouble(config.cov) << ':'
       << config.eccDeadCells << ':' << config.maxWrites;
    return os.str();
}

EnduranceConfig
parseEndurance(const std::string &text)
{
    const auto parts = splitColons(text);
    if (parts.empty() || parts.size() > 4)
        throw std::invalid_argument("bad endurance spec '" + text +
                                    "' (mean[:cov[:ecc[:cap]]])");
    EnduranceConfig config;
    config.meanWrites = parseU64(parts[0], "endurance mean");
    if (parts.size() > 1)
        config.cov = parseReal(parts[1], "endurance cov",
                               RealRange::nonNegative);
    if (parts.size() > 2)
        config.eccDeadCells =
            parseUint<unsigned>(parts[2], "endurance ecc dead cells");
    if (parts.size() > 3)
        config.maxWrites = parseU64(parts[3], "endurance write cap");
    return config;
}

} // namespace wlcrc::wearlevel
