#include "env.hh"

#include <cstdlib>

#include "common/parse.hh"

namespace wlcrc
{

uint64_t
envU64(const std::string &name, uint64_t fallback)
{
    const char *v = std::getenv(name.c_str());
    return v && *v ? parseU64(v, name) : fallback;
}

double
envDouble(const std::string &name, double fallback)
{
    const char *v = std::getenv(name.c_str());
    return v && *v ? parseReal(v, name) : fallback;
}

std::string
envString(const std::string &name, const std::string &fallback)
{
    const char *v = std::getenv(name.c_str());
    return v && *v ? std::string(v) : fallback;
}

} // namespace wlcrc
