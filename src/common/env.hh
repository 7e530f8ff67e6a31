/**
 * @file
 * Environment-variable driven configuration helpers.
 *
 * Bench binaries honour a small set of knobs (e.g. WLCRC_BENCH_LINES)
 * so the full figure suite can be scaled from a smoke run to a
 * paper-fidelity run without rebuilding.
 */

#ifndef WLCRC_COMMON_ENV_HH
#define WLCRC_COMMON_ENV_HH

#include <cstdint>
#include <string>

namespace wlcrc
{

/**
 * @return $name parsed as u64 (common/parse.hh grammar), or
 *         @p fallback if unset/empty.
 * @throws std::invalid_argument for malformed values (trailing
 *         garbage, negative numbers, overflow): a typo'd knob must
 *         fail the run loudly, not silently fall back to a default.
 */
uint64_t envU64(const std::string &name, uint64_t fallback);

/**
 * @return $name parsed as a finite double, or @p fallback if
 *         unset/empty.
 * @throws std::invalid_argument for malformed values, as envU64().
 */
double envDouble(const std::string &name, double fallback);

/** @return $name, or @p fallback if unset. */
std::string envString(const std::string &name,
                      const std::string &fallback);

} // namespace wlcrc

#endif // WLCRC_COMMON_ENV_HH
