#include "mapping.hh"

#include <algorithm>
#include <cassert>
#include <string>
#include <utility>
#include <vector>

namespace wlcrc::coset
{

using pcm::State;

Mapping::Mapping(const std::array<State, 4> &symbol_to_state,
                 std::string name)
    : toState_(symbol_to_state), name_(std::move(name))
{
    fromState_ = {255, 255, 255, 255};
    for (unsigned sym = 0; sym < 4; ++sym)
        fromState_[pcm::stateIndex(toState_[sym])] = sym;
    for (unsigned s = 0; s < 4; ++s)
        assert(fromState_[s] != 255 && "mapping must be a bijection");
}

namespace
{

// Symbol integer values. Paper notation 'b1 b0': symbol "01" has
// b1=0, b0=1, i.e. integer value 1; "10" is 2; "11" is 3.
constexpr unsigned sym00 = 0;
constexpr unsigned sym01 = 1;
constexpr unsigned sym10 = 2;
constexpr unsigned sym11 = 3;

/** Table I, column Ck: state order S1..S4 as symbol values. */
std::array<State, 4>
fromStateOrder(const std::array<unsigned, 4> &symbols_by_state)
{
    std::array<State, 4> to_state{};
    for (unsigned s = 0; s < 4; ++s)
        to_state[symbols_by_state[s]] = pcm::stateFromIndex(s);
    return to_state;
}

} // namespace

const Mapping &
defaultMapping()
{
    return tableICandidate(1);
}

const Mapping &
tableICandidate(unsigned k)
{
    // Table I lists, for each state S1..S4 (top to bottom), the
    // symbol mapped onto it by each candidate.
    static const Mapping candidates[4] = {
        {fromStateOrder({sym00, sym10, sym11, sym01}), "C1"},
        {fromStateOrder({sym11, sym00, sym10, sym01}), "C2"},
        {fromStateOrder({sym11, sym01, sym00, sym10}), "C3"},
        {fromStateOrder({sym11, sym00, sym01, sym10}), "C4"},
    };
    assert(k >= 1 && k <= 4);
    return candidates[k - 1];
}

std::span<const Mapping *const>
tableICandidates(unsigned n)
{
    assert(n >= 1 && n <= 4);
    static const std::array<const Mapping *, 4> all = {
        &tableICandidate(1), &tableICandidate(2), &tableICandidate(3),
        &tableICandidate(4)};
    return {all.data(), n};
}

std::span<const Mapping *const>
sixCosetCandidates()
{
    // For each unordered symbol pair placed on the low-energy states
    // {S1, S2}, pick — among the bijections doing so — the one that
    // keeps the most symbols on their default state ("maintaining the
    // original data block as much as possible", Section III).
    static std::vector<Mapping> storage = [] {
        const Mapping &def = defaultMapping();
        std::vector<Mapping> built;
        for (unsigned a = 0; a < 4; ++a) {
            for (unsigned b = a + 1; b < 4; ++b) {
                std::array<State, 4> best{};
                int best_score = -1;
                // The two symbols not in {a, b}.
                std::array<unsigned, 2> rest{};
                for (unsigned s = 0, r = 0; s < 4; ++s)
                    if (s != a && s != b)
                        rest[r++] = s;
                // Four placements: (a,b) on (S1,S2) or (S2,S1),
                // crossed with rest on (S3,S4) or (S4,S3).
                for (unsigned swap_ab = 0; swap_ab < 2; ++swap_ab) {
                    for (unsigned swap_r = 0; swap_r < 2; ++swap_r) {
                        std::array<State, 4> cand{};
                        cand[a] = swap_ab ? State::S2 : State::S1;
                        cand[b] = swap_ab ? State::S1 : State::S2;
                        cand[rest[0]] =
                            swap_r ? State::S4 : State::S3;
                        cand[rest[1]] =
                            swap_r ? State::S3 : State::S4;
                        int score = 0;
                        for (unsigned s = 0; s < 4; ++s)
                            if (cand[s] == def.encode(s))
                                ++score;
                        if (score > best_score) {
                            best_score = score;
                            best = cand;
                        }
                    }
                }
                std::string name = "W";
                name += std::to_string(built.size() + 1);
                built.emplace_back(best, std::move(name));
            }
        }
        assert(built.size() == 6);
        return built;
    }();
    static const std::array<const Mapping *, 6> views = [] {
        std::array<const Mapping *, 6> out{};
        for (unsigned i = 0; i < 6; ++i)
            out[i] = &storage[i];
        return out;
    }();

    return {views.data(), views.size()};
}

} // namespace wlcrc::coset
