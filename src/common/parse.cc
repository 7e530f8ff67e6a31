#include "parse.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace wlcrc
{

namespace
{

[[noreturn]] void
reject(std::string_view what, const std::string &text,
       const std::string &why)
{
    throw std::invalid_argument(std::string(what) + ": \"" + text +
                                "\" " + why);
}

} // namespace

uint64_t
parseU64(const std::string &text, std::string_view what, uint64_t lo,
         uint64_t hi)
{
    const bool hex = text.size() > 2 && text[0] == '0' &&
                     (text[1] == 'x' || text[1] == 'X');
    const char *first = text.data() + (hex ? 2 : 0);
    const char *last = text.data() + text.size();
    uint64_t v = 0;
    // from_chars takes no sign, whitespace or prefix for an unsigned
    // type, and reports overflow instead of wrapping.
    const auto [ptr, ec] = std::from_chars(first, last, v, hex ? 16 : 10);
    if (ec != std::errc() || ptr != last)
        reject(what, text, "is not an unsigned integer");
    if (v < lo || v > hi)
        reject(what, text,
               "is out of range " + std::to_string(lo) + ".." +
                   std::to_string(hi));
    return v;
}

double
parseReal(const std::string &text, std::string_view what,
          RealRange range)
{
    char *end = nullptr;
    double v = NAN;
    // strtod would skip leading whitespace; the grammar does not.
    if (!text.empty() && !std::isspace(static_cast<unsigned char>(text[0])))
        v = std::strtod(text.c_str(), &end);
    // Overflow reads as +-HUGE_VAL and fails the finiteness test; an
    // underflow to a subnormal is a usable value.
    if (end != text.c_str() + text.size() || !std::isfinite(v))
        reject(what, text, "is not a finite number");
    if (range == RealRange::nonNegative && !(v >= 0))
        reject(what, text, "must be >= 0");
    if (range == RealRange::positive && !(v > 0))
        reject(what, text, "must be > 0");
    return v;
}

void
usageCheck(bool ok, const std::string &why)
{
    if (!ok)
        throw std::invalid_argument(why);
}

CommandLine::CommandLine(std::string tool, std::string usage)
    : tool_(std::move(tool)), usage_(std::move(usage))
{}

CommandLine &
CommandLine::value(const std::string &flag, Apply apply, bool repeatable)
{
    flags_[flag] = {std::move(apply), true, repeatable};
    return *this;
}

CommandLine &
CommandLine::text(const std::string &flag, std::string &out)
{
    return value(flag, [&out](const std::string &v) { out = v; });
}

CommandLine &
CommandLine::list(const std::string &flag, std::vector<std::string> &out)
{
    return value(
        flag, [&out](const std::string &v) { out.push_back(v); }, true);
}

CommandLine &
CommandLine::choice(const std::string &flag, std::string &out,
                    std::vector<std::string> allowed)
{
    return value(flag, [&out, flag, allowed](const std::string &v) {
        std::string names;
        for (const auto &a : allowed) {
            if (a == v) {
                out = v;
                return;
            }
            names += (names.empty() ? "" : ", ") + a;
        }
        reject(flag, v, "is not one of " + names);
    });
}

CommandLine &
CommandLine::real(const std::string &flag, double &out, RealRange range)
{
    return value(flag, [&out, flag, range](const std::string &v) {
        out = parseReal(v, flag, range);
    });
}

CommandLine &
CommandLine::flag(const std::string &name, bool &on)
{
    flags_[name] = {[&on](const std::string &) { on = true; }, false,
                    true};
    return *this;
}

CommandLine &
CommandLine::positionals(std::vector<std::string> &out)
{
    positionals_ = &out;
    return *this;
}

CommandLine &
CommandLine::helpAlias(const std::string &flag)
{
    help_.insert(flag);
    return *this;
}

std::optional<int>
CommandLine::parse(int argc, char **argv,
                   const std::function<void()> &check, int first)
{
    try {
        for (int i = first; i < argc; ++i) {
            const std::string arg = argv[i];
            if (help_.count(arg)) {
                std::fputs(usage_.c_str(), stdout);
                return 0;
            }
            const auto it = flags_.find(arg);
            if (it == flags_.end()) {
                if (positionals_ && arg[0] != '-') {
                    positionals_->push_back(arg);
                    continue;
                }
                throw std::invalid_argument(
                    arg[0] == '-' ? "unknown flag " + arg
                                  : "unexpected argument \"" + arg +
                                        "\"");
            }
            const Flag &f = it->second;
            // A repeat is a usage error, never a silent override.
            if (!given_.insert(arg).second && !f.repeatable)
                throw std::invalid_argument(arg + " given twice");
            if (!f.takesValue) {
                f.apply("");
                continue;
            }
            if (i + 1 >= argc)
                throw std::invalid_argument(arg + " needs a value");
            f.apply(argv[++i]);
        }
        if (check)
            check();
    } catch (const std::exception &e) {
        return fail(e.what());
    }
    return std::nullopt;
}

bool
CommandLine::given(const std::string &flag) const
{
    return given_.count(flag) != 0;
}

int
CommandLine::fail(const std::string &reason) const
{
    std::fprintf(stderr, "%s: %s\n", tool_.c_str(), reason.c_str());
    std::fputs(usage_.c_str(), stderr);
    return 2;
}

} // namespace wlcrc
