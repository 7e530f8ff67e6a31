/**
 * @file
 * The one grammar by which text becomes a number, and the one walk
 * over a tool's argv.
 *
 * Every tool flag, every WLCRC_* environment knob, the wear-leveling
 * config strings and the canonical spec text are read here, so a
 * typo fails the same loud way everywhere instead of running with a
 * truncated, wrapped or default value.
 *
 * - Integers: the whole token, decimal or 0x/0X hex. No sign, no
 *   surrounding whitespace, no exponent, no overflow; a leading zero
 *   is still decimal.
 * - Reals: the whole token as strtod reads it (signs, exponents and
 *   hex floats allowed), with no leading whitespace; finite values
 *   only (a subnormal is fine).
 */

#ifndef WLCRC_COMMON_PARSE_HH
#define WLCRC_COMMON_PARSE_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

namespace wlcrc
{

/**
 * @return @p text as an unsigned integer in [@p lo, @p hi].
 * @throws std::invalid_argument naming @p what and @p text.
 */
uint64_t parseU64(const std::string &text, std::string_view what,
                  uint64_t lo = 0,
                  uint64_t hi = std::numeric_limits<uint64_t>::max());

/** parseU64() into @p T, whose range also caps the value. */
template <class T>
T
parseUint(const std::string &text, std::string_view what,
          uint64_t lo = 0,
          uint64_t hi = std::numeric_limits<T>::max())
{
    static_assert(std::numeric_limits<T>::is_integer);
    const uint64_t cap = std::numeric_limits<T>::max();
    return static_cast<T>(
        parseU64(text, what, lo, hi < cap ? hi : cap));
}

/** The values a parseReal() caller accepts. */
enum class RealRange
{
    any,         //!< every finite value
    nonNegative, //!< >= 0
    positive,    //!< > 0
};

/**
 * @return @p text as a finite double within @p range.
 * @throws std::invalid_argument naming @p what and @p text.
 */
double parseReal(const std::string &text, std::string_view what,
                 RealRange range = RealRange::any);

/**
 * A CommandLine check's way to reject a combination of flags.
 * @throws std::invalid_argument(@p why) unless @p ok.
 */
void usageCheck(bool ok, const std::string &why);

/**
 * A tool's command line: the flags it declares, bound to the fields
 * they set, and one walk over argv that applies them.
 *
 * A value flag takes the next argument verbatim. It may appear once
 * unless declared repeatable. A switch takes no value. Arguments not
 * starting with '-' are positionals, if the tool declares them.
 * Everything else is a usage error, as is a missing value or a
 * malformed or out-of-range number: parse() reports it as
 * "<tool>: <reason>" followed by the usage text on stderr, and asks
 * for exit status 2. --help stops the walk and prints the usage
 * text to stdout, with status 0.
 */
class CommandLine
{
  public:
    using Apply = std::function<void(const std::string &)>;

    CommandLine(std::string tool, std::string usage);

    /** A value flag; @p apply reads its text (and may throw). */
    CommandLine &value(const std::string &flag, Apply apply,
                       bool repeatable = false);
    CommandLine &text(const std::string &flag, std::string &out);
    /** A repeatable value flag collecting every occurrence. */
    CommandLine &list(const std::string &flag,
                      std::vector<std::string> &out);
    /** A value flag that must be one of @p allowed. */
    CommandLine &choice(const std::string &flag, std::string &out,
                        std::vector<std::string> allowed);
    CommandLine &real(const std::string &flag, double &out,
                      RealRange range = RealRange::any);

    /** An integer flag in [@p lo, @p hi] (capped by @p T's range). */
    template <class T>
    CommandLine &
    uint(const std::string &flag, T &out, uint64_t lo = 0,
         uint64_t hi = std::numeric_limits<T>::max())
    {
        return value(flag, [&out, flag, lo, hi](const std::string &v) {
            out = parseUint<T>(v, flag, lo, hi);
        });
    }

    CommandLine &flag(const std::string &name, bool &on);
    CommandLine &positionals(std::vector<std::string> &out);
    /** Another spelling of --help (e.g. -h). */
    CommandLine &helpAlias(const std::string &flag);

    /**
     * Walk argv[@p first..], then run @p check, which throws
     * std::invalid_argument (see usageCheck()) on a bad combination
     * of flags.
     * @return nullopt to go on, or the status main() must return
     *         now: 0 after --help, 2 after a usage error.
     */
    std::optional<int> parse(int argc, char **argv,
                             const std::function<void()> &check = {},
                             int first = 1);

    /** @return whether @p flag appeared on the command line. */
    bool given(const std::string &flag) const;

    /** Print "<tool>: <reason>" and the usage text to stderr.
     *  @return 2, the usage-error exit status. */
    int fail(const std::string &reason) const;

  private:
    struct Flag
    {
        Apply apply;
        bool takesValue = true;
        bool repeatable = false;
    };

    std::string tool_;
    std::string usage_;
    std::map<std::string, Flag> flags_;
    std::set<std::string> help_{"--help"};
    std::set<std::string> given_;
    std::vector<std::string> *positionals_ = nullptr;
};

} // namespace wlcrc

#endif // WLCRC_COMMON_PARSE_HH
