/**
 * @file
 * Benchmark workload profiles and the trace synthesizer.
 *
 * Substitution for the paper's Simics-collected SPEC CPU2006 / PARSEC
 * traces (see DESIGN.md): each benchmark is modelled by a line-type
 * mix (which fixes its compressibility signature, Figure 4), a write
 * locality model (which fixes how many cells change per write), a
 * footprint and a memory intensity class. The synthesizer maintains a
 * coherent memory image, so every transaction carries the true
 * (old, new) pair exactly like the paper's traces.
 */

#ifndef WLCRC_TRACE_WORKLOAD_HH
#define WLCRC_TRACE_WORKLOAD_HH

#include <array>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/rng.hh"
#include "trace/transaction.hh"
#include "trace/value_model.hh"

namespace wlcrc::trace
{

/** Static description of one benchmark's memory behaviour. */
struct WorkloadProfile
{
    std::string name;          //!< paper's abbreviation, e.g. "lesl"
    bool highIntensity;        //!< HMI vs LMI grouping (Figure 8)
    /** Probability of each LineType for a fresh line. */
    std::array<double, numLineTypes> lineTypeProbs;
    /** Probability each word of a line is modified by a write. */
    double wordChangeProb;
    /** Distinct lines in the synthetic footprint. */
    unsigned footprintLines;

    /** The 13 paper workloads (12 SPEC + canneal), paper order. */
    static const std::vector<WorkloadProfile> &all();
    /** Profile by name. @throws std::invalid_argument if unknown. */
    static const WorkloadProfile &byName(const std::string &name);
};

/**
 * Stateful generator of WriteTransactions for one profile.
 * Deterministic for a given (profile, seed).
 */
class TraceSynthesizer
{
  public:
    TraceSynthesizer(const WorkloadProfile &profile, uint64_t seed);

    /**
     * Generate the next write transaction. Returns a reference to an
     * internal slot (no 136-byte copy per write); valid until the
     * following next() call.
     */
    const WriteTransaction &next();

    const WorkloadProfile &profile() const { return profile_; }

  private:
    struct LineState
    {
        Line512 data;
        LineType type;
    };

    LineState &lineAt(uint64_t addr);
    uint64_t pickAddress();
    LineType pickType();

    WorkloadProfile profile_;
    Rng rng_;
    std::unordered_map<uint64_t, LineState> image_;
    WriteTransaction current_;
};

/**
 * The paper's random workload (Figures 1a and 2): independent
 * uniformly random old/new line pairs at fresh addresses.
 */
class RandomWorkload
{
  public:
    explicit RandomWorkload(uint64_t seed) : rng_(seed) {}

    /** Next transaction; reference valid until the next call. */
    const WriteTransaction &next();

  private:
    Rng rng_;
    uint64_t nextAddr_ = 0;
    WriteTransaction current_;
};

/**
 * Multi-programmed workload blend: several benchmark profiles
 * time-share one memory, the way a rank under a multi-core write
 * stream would see them. Each write picks a program with probability
 * proportional to its weight (≈ relative memory intensity), then
 * draws the transaction from that program's own synthesizer.
 * Programs live in disjoint address windows (program i is offset by
 * the summed footprints before it), so per-line write histories stay
 * coherent and the stream is address-clustered per program — which
 * is exactly what the WLCTRC02 block index prunes on.
 * Deterministic for a given (programs, weights, seed); program i's
 * synthesizer is seeded with childSeed(seed, i).
 */
class MixedSynthesizer
{
  public:
    /** One program of the blend. */
    struct Program
    {
        std::string profile; //!< WorkloadProfile name
        double weight = 1.0; //!< relative share of the write stream
    };

    /**
     * @throws std::invalid_argument if @p programs is empty, a
     * profile name is unknown, or a weight is not positive.
     */
    MixedSynthesizer(const std::vector<Program> &programs,
                     uint64_t seed);

    /** Next write of the blend; reference valid until the next call. */
    const WriteTransaction &next();

    /** Address window base of program @p i. */
    uint64_t baseOf(std::size_t i) const { return bases_[i]; }
    std::size_t programCount() const { return synths_.size(); }

  private:
    Rng rng_; //!< program-selection stream (separate from programs')
    std::vector<TraceSynthesizer> synths_;
    std::vector<double> cumWeight_; //!< normalised, cumulative
    std::vector<uint64_t> bases_;
    WriteTransaction current_;
};

} // namespace wlcrc::trace

#endif // WLCRC_TRACE_WORKLOAD_HH
