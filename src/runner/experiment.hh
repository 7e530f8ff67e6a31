/**
 * @file
 * Experiment descriptions for the parallel experiment runner: one
 * ExperimentSpec pins down a single {codec scheme, workload, line
 * count, device config, seed} evaluation point of the paper's
 * Section VII grid, and ExperimentResult carries its merged metrics.
 *
 * Sharding: a spec's transaction stream is partitioned into
 * `shards` sub-streams by line address (addr % shards), so every
 * line's full write history lands in exactly one shard and priming /
 * differential-write state stays coherent. Shard s replays on a
 * device seeded with childSeed(seed, s) when shards > 1; a
 * single-shard spec uses `seed` directly and is bit-identical with
 * the legacy serial Replayer path.
 */

#ifndef WLCRC_RUNNER_EXPERIMENT_HH
#define WLCRC_RUNNER_EXPERIMENT_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "coset/codec.hh"
#include "pcm/energy_model.hh"
#include "pcm/wear.hh"
#include "trace/replay.hh"
#include "trace/transaction.hh"
#include "tracefile/source.hh"
#include "wearlevel/config.hh"
#include "wearlevel/lifetime.hh"

namespace wlcrc::runner
{

struct ExperimentSpec;

/**
 * Builds the codec of a grid point from the point's energy model.
 * Set on a spec (or via a SchemeDef axis) when the codec is not one
 * of the factory's named schemes — e.g. the granularity sweeps of
 * Figures 1-3/5/11-13 instantiate NCosetsCodec / WlcCosetsCodec /
 * WlcrcCodec at parameters the name table doesn't cover. When set,
 * `ExperimentSpec::scheme` is a display label only.
 */
using CodecFactory =
    std::function<coset::CodecPtr(const pcm::EnergyModel &)>;

/**
 * Per-point custom replay hook, for experiments that consume the
 * transaction stream with something other than the stock
 * codec-through-device replay (e.g. Figure 4 counts compressibility,
 * the throughput bench times raw encode calls). The runner still
 * derives the stream from the spec (workload / random / source) and
 * hands it over in stream order. The returned ReplayResult is what
 * the stock reporters/merge path see — populate the fields that map
 * onto it (typically at least `writes`); metrics with no
 * ReplayResult field must be captured by the hook itself (each spec
 * owning its own output slot keeps the parallel hooks race-free).
 * Specs with a custom replay always execute as a single shard with
 * the spec's own seed.
 */
using CustomReplayFn = std::function<trace::ReplayResult(
    const ExperimentSpec &spec,
    const std::vector<trace::WriteTransaction> &txns)>;

/**
 * One point of the scheme axis: a display name plus, when the codec
 * is not factory-addressable, the factory function building it.
 */
struct SchemeDef
{
    std::string name;     //!< row label; factory name if no factory
    CodecFactory factory; //!< null = core::makeCodec(name, ...)
};

/** Device-side knobs shared by a group of experiments. */
struct DeviceConfig
{
    double s3 = 307.0;           //!< S3 SET energy override (pJ)
    double s4 = 547.0;           //!< S4 SET energy override (pJ)
    bool vnr = false;            //!< run Verify-n-Restore per write
    uint64_t wearEndurance = 0;  //!< per-cell endurance; 0 = no wear

    /** Short label for result rows, e.g. "s3=307,s4=547". */
    std::string label() const;
};

/** One grid point: what to replay, through what, and how. */
struct ExperimentSpec
{
    std::string scheme = "WLCRC-16"; //!< factory codec name
    /** Named benchmark workload; empty = random or shared source. */
    std::string workload;
    /** Use the uniform-random workload (Figures 1a/2). */
    bool random = false;
    /**
     * External transaction stream (a trace file or an in-memory
     * vector), shared read-only across specs and shards; each shard
     * opens its own streaming cursor over its address partition,
     * and a lifetime replay re-opens it for every pass, so an
     * on-disk trace replays without ever being materialised (only
     * a customReplay hook gathers it). Overrides workload/random
     * when set.
     */
    std::shared_ptr<const tracefile::TransactionSource> source;
    uint64_t lines = 10000; //!< writes to synthesize (ignored w/
                            //!< source)
    uint64_t seed = 1;      //!< synthesis + device master seed
    unsigned shards = 1;    //!< parallel shards (fixed, not #threads)
    /**
     * How shards partition the address space. The default (modulo)
     * replays byte-identically to pre-partition specs and works for
     * any stream. Range partitioning slices the source's [min, max]
     * address span into contiguous per-shard intervals — on a
     * locality-sorted container each shard then prunes to its own
     * run of blocks — and requires a sourced spec (the bounds come
     * from the source). Changing the partition reassigns lines to
     * differently-seeded shard devices, so it is part of the
     * canonical spec (emitted only when range, keeping existing
     * hashes stable).
     */
    tracefile::Partition partition = tracefile::Partition::modulo;
    DeviceConfig device;
    /**
     * Wear-leveling scheme between replayer and device. The default
     * ("none") replays byte-identically to a spec without the field;
     * an active leveler needs a globally consistent line mapping, so
     * such specs always execute as a single shard.
     */
    wearlevel::LevelerConfig leveler;
    /** Per-cell endurance budgets + failure criteria (0 = off). */
    wearlevel::EnduranceConfig endurance;
    /**
     * Loop the stream until the device dies (or the endurance write
     * cap): the lifetime-to-failure experiment. Requires an active
     * endurance config; runs single-sharded like any leveled spec.
     */
    bool lifetime = false;
    /**
     * Keep the merged per-cell WearTracker on the result (for
     * wear-histogram export). In-process only: such specs are never
     * cached and never cross a process boundary, because neither
     * channel can carry the tracker. Not part of the canonical spec.
     */
    bool keepWearTracker = false;
    /** Non-factory codec for this point; scheme becomes a label. */
    CodecFactory codecFactory;
    /** Replaces the stock replay entirely (single-sharded). */
    CustomReplayFn customReplay;
    /**
     * Extra token folded into specHash(). A codecFactory is an
     * opaque closure the hash cannot see, so factory-built specs are
     * cacheable only when the owner salts them with a string that
     * pins the factory's identity and parameters (the benches use
     * their harness name; see docs/caching.md). Ignored — and
     * unnecessary — for factory-named schemes.
     */
    std::string cacheSalt;

    /** Workload name, "random", or the source's label ("trace"). */
    std::string sourceName() const;
    /** Human-readable point label for reports and logs. */
    std::string label() const;
};

/** Merged metrics of one completed grid point. */
struct ExperimentResult
{
    ExperimentSpec spec;
    trace::ReplayResult replay;    //!< merged across shards
    pcm::WearSummary wear;         //!< merged wear (if tracked)
    uint64_t projectedLifetime = 0;
    /** Lifetime / leveling outcome (meaningful when the spec has an
     *  active leveler or lifetime set). */
    wearlevel::LifetimeResult lifetime;
    /** Merged per-cell tracker; only set for keepWearTracker specs
     *  executed in-process. */
    std::shared_ptr<const pcm::WearTracker> wearTracker;
    /** SIMD kernel that encoded this point ("scalar"/"avx2"/"neon").
     *  Informational: results are bit-identical across kernels, so
     *  the kernel is recorded in reports but excluded from
     *  specHash(). Empty for pre-SIMD cached results. */
    std::string simdKernel;
    bool ok = false;
    std::string error;             //!< failure reason when !ok
};

} // namespace wlcrc::runner

#endif // WLCRC_RUNNER_EXPERIMENT_HH
