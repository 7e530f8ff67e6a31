/**
 * @file
 * Result-cache correctness: the spec hash moves on every semantic
 * spec field (and only then), cacheability and process-
 * serializability rules hold, canonical specs round-trip through
 * the worker parser, and the ResultCache itself serves byte-exact
 * results, treats corrupt or version-mismatched entries as misses,
 * and invalidates when a trace file's content changes.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "runner/backend.hh"
#include "runner/grid.hh"
#include "runner/json_mini.hh"
#include "runner/remote.hh"
#include "runner/report.hh"
#include "runner/result_cache.hh"
#include "runner/runner.hh"
#include "runner/spec_codec.hh"
#include "tracefile/source.hh"
#include "tracefile/writer.hh"
#include "wlcrc/factory.hh"

namespace
{

using namespace wlcrc;
using runner::cacheableSpec;
using runner::canonicalSpec;
using runner::ExperimentResult;
using runner::ExperimentRunner;
using runner::ExperimentSpec;
using runner::parseSpec;
using runner::processSerializable;
using runner::ResultCache;
using runner::RunnerOptions;
using runner::RunStats;
using runner::specHash;

namespace fs = std::filesystem;

/** Fresh per-test directory under the gtest temp root. */
std::string
tempDir(const std::string &name)
{
    const fs::path dir =
        fs::path(::testing::TempDir()) / ("wlcrc_" + name);
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir.string();
}

ExperimentSpec
baseSpec()
{
    ExperimentSpec spec;
    spec.scheme = "Baseline";
    spec.workload = "lesl";
    spec.lines = 60;
    spec.seed = 7;
    spec.shards = 2;
    return spec;
}

std::string
csvOf(const std::vector<ExperimentResult> &results)
{
    std::ostringstream os;
    runner::CsvReporter().write(os, results);
    return os.str();
}

// ---------------------------------------------------------- hashing

TEST(SpecHash, StableForEqualSpecs)
{
    EXPECT_EQ(specHash(baseSpec()), specHash(baseSpec()));
}

TEST(SpecHash, MovesOnEverySemanticField)
{
    const uint64_t base = specHash(baseSpec());
    const auto differs = [&](auto mutate, const char *what) {
        ExperimentSpec s = baseSpec();
        mutate(s);
        EXPECT_NE(specHash(s), base) << "hash ignored " << what;
    };
    differs([](auto &s) { s.scheme = "WLCRC-16"; }, "scheme");
    differs([](auto &s) { s.workload = "gcc"; }, "workload");
    differs([](auto &s) { s.workload.clear(); s.random = true; },
            "stream kind");
    differs([](auto &s) { s.lines = 61; }, "lines");
    differs([](auto &s) { s.seed = 8; }, "seed");
    differs([](auto &s) { s.shards = 3; }, "shards");
    differs(
        [](auto &s) {
            s.partition = tracefile::Partition::range;
        },
        "partition");
    differs([](auto &s) { s.device.s3 = 300.5; }, "device s3");
    differs([](auto &s) { s.device.s4 = 500.25; }, "device s4");
    differs([](auto &s) { s.device.vnr = true; }, "device vnr");
    differs([](auto &s) { s.device.wearEndurance = 1000; },
            "device wear");
    differs([](auto &s) { s.cacheSalt = "x"; }, "cache salt");
    differs(
        [](auto &s) {
            s.leveler = wearlevel::parseLeveler("start-gap");
        },
        "leveler scheme");
    differs(
        [](auto &s) {
            s.leveler =
                wearlevel::parseLeveler("start-gap:p50:r32");
        },
        "leveler parameters");
    differs(
        [](auto &s) {
            s.endurance = wearlevel::parseEndurance("100:0.2");
        },
        "endurance budgets");
    differs(
        [](auto &s) {
            s.endurance = wearlevel::parseEndurance("100");
            s.lifetime = true;
        },
        "lifetime mode");
}

TEST(SpecHash, LevelerParameterVariantsAllDiffer)
{
    // Same scheme, different knobs must never collide: each knob
    // is part of the canonical leveler token.
    const auto hashOf = [](const char *cfg) {
        ExperimentSpec s = baseSpec();
        s.leveler = wearlevel::parseLeveler(cfg);
        return specHash(s);
    };
    EXPECT_NE(hashOf("start-gap:p100:r64"),
              hashOf("start-gap:p100:r32"));
    EXPECT_NE(hashOf("start-gap:p100:r64"),
              hashOf("start-gap:p50:r64"));
    EXPECT_NE(hashOf("page-remap:p100:g8"),
              hashOf("page-remap:p100:g4"));
    EXPECT_NE(hashOf("start-gap"), hashOf("page-remap"));
}

TEST(SpecHash, TraceContentDigestInvalidates)
{
    const std::string dir = tempDir("digest");
    const std::string path = dir + "/t.trc";
    const auto writeTrace = [&](uint64_t seed) {
        tracefile::TraceFileWriter w(path, {16});
        trace::WriteTransaction t{};
        for (uint64_t i = 0; i < 40; ++i) {
            t.lineAddr = (i * seed) % 17;
            t.newData.setWord(0, i + seed);
            w.write(t);
        }
        w.close();
    };

    writeTrace(3);
    ExperimentSpec spec = baseSpec();
    spec.workload.clear();
    auto src = tracefile::openTraceSource(path);
    spec.source = src;
    const uint64_t before = specHash(spec);

    // Relabeling is presentation-only: served results carry the
    // caller's spec, so the label must NOT move the hash.
    src->setLabel("renamed");
    EXPECT_EQ(specHash(spec), before);

    // Same path, different bytes: the footer CRC digest must move
    // the hash even though every spec field is unchanged.
    writeTrace(4);
    spec.source = tracefile::openTraceSource(path);
    EXPECT_NE(specHash(spec), before);
}

TEST(SpecHash, V3DigestTracksPayloadNotFraming)
{
    // The WLCTRC03 content digest is framing-invariant: rewriting
    // one stream as v2, v3+lz or v3+raw (recompression, conversion)
    // must serve the same cache entries, while any payload change
    // must miss.
    const std::string dir = tempDir("digest_v3");
    const std::string path = dir + "/t.trc";
    const auto writeTrace = [&](tracefile::TraceFormat format,
                                tracefile::BlockCodec codec,
                                uint64_t salt) {
        tracefile::WriterOptions options;
        options.recordsPerBlock = 16;
        options.format = format;
        options.codec = codec;
        tracefile::TraceFileWriter w(path, options);
        trace::WriteTransaction t{};
        for (uint64_t i = 0; i < 80; ++i) {
            t.lineAddr = i % 23;
            t.newData.setWord(0, i + salt);
            w.write(t);
        }
        w.close();
    };
    const auto hashNow = [&] {
        ExperimentSpec spec = baseSpec();
        spec.workload.clear();
        spec.source = tracefile::openTraceSource(path);
        return specHash(spec);
    };

    writeTrace(tracefile::TraceFormat::v2,
               tracefile::BlockCodec::raw, 1);
    const uint64_t v2Hash = hashNow();

    // Recompression-identical rewrites keep every hash.
    writeTrace(tracefile::TraceFormat::v3,
               tracefile::BlockCodec::lz, 1);
    EXPECT_EQ(hashNow(), v2Hash) << "v3+lz rewrite moved the hash";
    writeTrace(tracefile::TraceFormat::v3,
               tracefile::BlockCodec::raw, 1);
    EXPECT_EQ(hashNow(), v2Hash) << "v3+raw rewrite moved the hash";

    // A one-word payload change moves it.
    writeTrace(tracefile::TraceFormat::v3,
               tracefile::BlockCodec::lz, 2);
    EXPECT_NE(hashNow(), v2Hash) << "payload mutation kept the hash";
}

// --------------------------------------------------- eligibility

TEST(SpecCodec, CacheabilityRules)
{
    EXPECT_TRUE(cacheableSpec(baseSpec()));

    ExperimentSpec custom = baseSpec();
    custom.customReplay = [](const ExperimentSpec &,
                             const auto &) {
        return trace::ReplayResult{};
    };
    EXPECT_FALSE(cacheableSpec(custom));

    ExperimentSpec factory = baseSpec();
    factory.codecFactory = [](const pcm::EnergyModel &e) {
        return core::makeCodec("Baseline", e);
    };
    EXPECT_FALSE(cacheableSpec(factory)) << "unsalted factory";
    factory.cacheSalt = "test:Baseline";
    EXPECT_TRUE(cacheableSpec(factory)) << "salted factory";

    // A cache hit cannot carry the per-cell tracker the caller
    // asked to keep, so such specs must always replay.
    ExperimentSpec tracker = baseSpec();
    tracker.keepWearTracker = true;
    EXPECT_FALSE(cacheableSpec(tracker));

    // Leveled / lifetime specs are plain data: cacheable as-is.
    ExperimentSpec leveled = baseSpec();
    leveled.leveler = wearlevel::parseLeveler("start-gap");
    leveled.endurance = wearlevel::parseEndurance("100");
    leveled.lifetime = true;
    EXPECT_TRUE(cacheableSpec(leveled));
}

TEST(SpecCodec, ProcessSerializabilityRules)
{
    std::string why;
    EXPECT_TRUE(processSerializable(baseSpec(), &why)) << why;

    ExperimentSpec factory = baseSpec();
    factory.codecFactory = [](const pcm::EnergyModel &e) {
        return core::makeCodec("Baseline", e);
    };
    EXPECT_FALSE(processSerializable(factory, &why));
    EXPECT_FALSE(why.empty());

    ExperimentSpec memory = baseSpec();
    memory.workload.clear();
    memory.source = std::make_shared<tracefile::VectorSource>(
        std::make_shared<std::vector<trace::WriteTransaction>>(
            4, trace::WriteTransaction{}));
    EXPECT_FALSE(processSerializable(memory, &why));

    // The worker's JSON report cannot carry a per-cell tracker.
    ExperimentSpec tracker = baseSpec();
    tracker.keepWearTracker = true;
    EXPECT_FALSE(processSerializable(tracker, &why));

    // Lifetime results are plain JSON fields: workers handle them.
    ExperimentSpec leveled = baseSpec();
    leveled.leveler = wearlevel::parseLeveler("start-gap");
    leveled.endurance = wearlevel::parseEndurance("100");
    leveled.lifetime = true;
    EXPECT_TRUE(processSerializable(leveled, &why)) << why;
}

TEST(SpecCodec, CanonicalSpecRoundTripsThroughParse)
{
    ExperimentSpec spec = baseSpec();
    spec.device.vnr = true;
    spec.device.wearEndurance = 123;
    spec.device.s3 = 301.75;
    const ExperimentSpec back = parseSpec(canonicalSpec(spec));
    EXPECT_EQ(canonicalSpec(back), canonicalSpec(spec));

    // Range partitioning is a cache-relevant field: emitted only
    // when non-default (keeping pre-existing keys stable) and
    // parsed back faithfully.
    EXPECT_EQ(canonicalSpec(baseSpec()).find("partition="),
              std::string::npos);
    ExperimentSpec ranged = baseSpec();
    ranged.partition = tracefile::Partition::range;
    EXPECT_NE(canonicalSpec(ranged).find("partition=range\n"),
              std::string::npos);
    const ExperimentSpec rangedBack =
        parseSpec(canonicalSpec(ranged));
    EXPECT_EQ(rangedBack.partition, tracefile::Partition::range);
    EXPECT_EQ(canonicalSpec(rangedBack), canonicalSpec(ranged));
}

TEST(SpecCodec, LifetimeSpecRoundTripsThroughParse)
{
    ExperimentSpec spec = baseSpec();
    spec.leveler = wearlevel::parseLeveler("page-remap:p75:g4");
    spec.endurance = wearlevel::parseEndurance("250:0.125:1:5000");
    spec.lifetime = true;
    const ExperimentSpec back = parseSpec(canonicalSpec(spec));
    EXPECT_EQ(back.leveler, spec.leveler);
    EXPECT_EQ(back.endurance, spec.endurance);
    EXPECT_TRUE(back.lifetime);
    EXPECT_EQ(canonicalSpec(back), canonicalSpec(spec));
}

TEST(SpecCodec, DefaultLevelerFieldsLeaveCanonicalSpecUnchanged)
{
    // The subsystem's existence must not move any pre-existing
    // cache key: inactive leveler/endurance/lifetime emit nothing.
    const std::string text = canonicalSpec(baseSpec());
    EXPECT_EQ(text.find("leveler="), std::string::npos);
    EXPECT_EQ(text.find("endurance="), std::string::npos);
    EXPECT_EQ(text.find("lifetime="), std::string::npos);
}

TEST(SpecCodec, ParseRejectsGarbage)
{
    EXPECT_THROW(parseSpec("not-a-spec\n"), std::runtime_error);
    EXPECT_THROW(parseSpec(std::string(runner::specMagic) +
                           "\nscheme=X\nstream=workload:w\n"
                           "bogus_key=1\n"),
                 std::runtime_error);
    EXPECT_THROW(parseSpec(std::string(runner::specMagic) +
                           "\nscheme=X\nstream=workload:w\n"
                           "factory=1\n"),
                 std::runtime_error);
}

TEST(SpecCodec, ParseRejectsMalformedNumbers)
{
    // Each case swaps one key of a valid canonical text, so the bad
    // value is the only thing wrong with it.
    const std::string good = canonicalSpec(baseSpec());
    ASSERT_NO_THROW(parseSpec(good));
    const auto with = [&](const std::string &key,
                          const std::string &value) {
        const auto at = good.find("\n" + key + "=") + 1;
        const auto end = good.find('\n', at);
        return good.substr(0, at) + key + "=" + value + good.substr(end);
    };
    for (const auto &[key, value] :
         std::vector<std::pair<std::string, std::string>>{
             {"lines", "-1"},
             {"shards", "-1"},
             {"shards", "4294967296"},
             {"lines", " 5"},
             {"seed", "1e6"},
             {"s3", "nan"},
             {"s4", "inf"}}) {
        EXPECT_THROW(parseSpec(with(key, value)), std::runtime_error)
            << key << "=" << value;
    }
}

// ------------------------------------------------------ ResultCache

TEST(ResultCacheTest, StoreThenLookupIsExact)
{
    ResultCache cache(tempDir("roundtrip"));

    ExperimentResult res;
    res.spec = baseSpec();
    res.ok = true;
    res.replay.writes = 60;
    res.replay.compressedWrites = 13;
    res.replay.vnrIterations = 5;
    res.replay.energyPj.add(1234.56789);
    res.replay.energyPj.add(41.0 / 3.0);
    res.replay.updatedCells.add(17.25);
    cache.store(res);

    const auto hit = cache.lookup(res.spec);
    ASSERT_TRUE(hit.has_value());
    EXPECT_TRUE(hit->ok);
    EXPECT_EQ(hit->replay.writes, 60u);
    EXPECT_EQ(hit->replay.compressedWrites, 13u);
    EXPECT_EQ(hit->replay.vnrIterations, 5u);
    // Bit-exact mean round trip is what keeps cached CSV rows
    // byte-identical to replayed ones.
    EXPECT_EQ(hit->replay.energyPj.mean(),
              res.replay.energyPj.mean());
    EXPECT_EQ(hit->replay.updatedCells.mean(), 17.25);

    ExperimentSpec other = baseSpec();
    other.seed += 1;
    EXPECT_FALSE(cache.lookup(other).has_value());
}

TEST(ResultCacheTest, CorruptEntryIsAMiss)
{
    ResultCache cache(tempDir("corrupt"));
    ExperimentResult res;
    res.spec = baseSpec();
    res.ok = true;
    res.replay.writes = 1;
    cache.store(res);
    ASSERT_TRUE(cache.lookup(res.spec).has_value());

    std::ofstream(cache.entryPath(res.spec), std::ios::binary)
        << "{\"cache_version\":1, truncated garbage";
    EXPECT_FALSE(cache.lookup(res.spec).has_value());
}

TEST(ResultCacheTest, ReportVersionMismatchIsRejected)
{
    // readResultObject() is the gate every cached/worker result
    // passes through; a version bump must throw, not merge.
    std::ostringstream os;
    ExperimentResult res;
    res.spec = baseSpec();
    res.ok = true;
    runner::writeResultObject(os, res);
    std::string text = os.str();
    const std::string tag =
        "\"report_version\":" +
        std::to_string(runner::kReportVersion);
    const auto pos = text.find(tag);
    ASSERT_NE(pos, std::string::npos);
    text.replace(pos, tag.size(), "\"report_version\":9999");
    EXPECT_THROW(runner::readResultObject(runner::parseJson(text),
                                          baseSpec()),
                 std::runtime_error);
}

// --------------------------------------- runner integration

TEST(CachedRunner, RerunServesEveryPointByteIdentically)
{
    const std::string dir = tempDir("rerun");
    const auto grid = runner::ExperimentGrid()
                          .schemes({"Baseline", "WLCRC-16"})
                          .workloads({"lesl", "gcc"})
                          .lines(60)
                          .seed(3)
                          .shards(2);

    RunStats first, second;
    RunnerOptions opts;
    opts.jobs = 2;
    opts.cacheDir = dir;
    opts.stats = &first;
    const auto r1 = ExperimentRunner(opts).run(grid);
    opts.stats = &second;
    const auto r2 = ExperimentRunner(opts).run(grid);

    EXPECT_EQ(first.points, 4u);
    EXPECT_EQ(first.cacheHits, 0u);
    EXPECT_EQ(first.replayed, 4u);
    EXPECT_EQ(first.stored, 4u);
    EXPECT_EQ(second.cacheHits, 4u);
    EXPECT_EQ(second.replayed, 0u);
    EXPECT_EQ(second.stored, 0u);
    EXPECT_EQ(csvOf(r1), csvOf(r2));

    // An uncached engine agrees too: the cache changes where
    // results come from, never what they are.
    RunnerOptions plain;
    plain.jobs = 2;
    EXPECT_EQ(csvOf(ExperimentRunner(plain).run(grid)), csvOf(r1));
}

TEST(CachedRunner, EachSpecFieldMutationMisses)
{
    const std::string dir = tempDir("mutations");
    RunnerOptions opts;
    opts.jobs = 2;
    opts.cacheDir = dir;

    RunStats prime;
    opts.stats = &prime;
    ExperimentRunner(opts).run({baseSpec()});
    ASSERT_EQ(prime.stored, 1u);

    const auto replaysAfter = [&](auto mutate) {
        ExperimentSpec s = baseSpec();
        mutate(s);
        RunStats stats;
        opts.stats = &stats;
        ExperimentRunner(opts).run({s});
        return stats.replayed == 1 && stats.cacheHits == 0;
    };
    EXPECT_TRUE(replaysAfter([](auto &s) { s.scheme = "FNW"; }));
    EXPECT_TRUE(replaysAfter([](auto &s) { s.workload = "gcc"; }));
    EXPECT_TRUE(replaysAfter([](auto &s) { s.lines = 61; }));
    EXPECT_TRUE(replaysAfter([](auto &s) { s.seed = 8; }));
    EXPECT_TRUE(replaysAfter([](auto &s) { s.shards = 1; }));
    EXPECT_TRUE(replaysAfter([](auto &s) { s.device.vnr = true; }));
    EXPECT_TRUE(replaysAfter([](auto &s) {
        s.leveler = wearlevel::parseLeveler("start-gap:p50:r32");
    }));
    EXPECT_TRUE(replaysAfter([](auto &s) {
        s.endurance = wearlevel::parseEndurance("100:0.2");
    }));
    EXPECT_TRUE(replaysAfter([](auto &s) {
        s.endurance = wearlevel::parseEndurance("100:0.2");
        s.lifetime = true;
    }));

    // And the unmutated spec still hits.
    RunStats again;
    opts.stats = &again;
    ExperimentRunner(opts).run({baseSpec()});
    EXPECT_EQ(again.cacheHits, 1u);
}

TEST(CachedRunner, CorruptEntryFallsBackToReplay)
{
    const std::string dir = tempDir("fallback");
    RunnerOptions opts;
    opts.jobs = 1;
    opts.cacheDir = dir;

    RunStats prime;
    opts.stats = &prime;
    const auto r1 = ExperimentRunner(opts).run({baseSpec()});
    ASSERT_EQ(prime.stored, 1u);

    ResultCache cache(dir);
    std::ofstream(cache.entryPath(baseSpec()), std::ios::binary)
        << "** not json **";

    RunStats stats;
    opts.stats = &stats;
    const auto r2 = ExperimentRunner(opts).run({baseSpec()});
    EXPECT_EQ(stats.cacheHits, 0u);
    EXPECT_EQ(stats.replayed, 1u);
    EXPECT_EQ(stats.stored, 1u) << "entry must be repaired";
    EXPECT_EQ(csvOf(r1), csvOf(r2));

    RunStats healed;
    opts.stats = &healed;
    ExperimentRunner(opts).run({baseSpec()});
    EXPECT_EQ(healed.cacheHits, 1u);
}

TEST(CachedRunner, FailedPointsAreNeverCached)
{
    const std::string dir = tempDir("failures");
    ExperimentSpec bad = baseSpec();
    bad.scheme = "no-such-scheme";

    RunnerOptions opts;
    opts.jobs = 1;
    opts.cacheDir = dir;
    RunStats s1, s2;
    opts.stats = &s1;
    const auto r1 = ExperimentRunner(opts).run({bad});
    ASSERT_FALSE(r1[0].ok);
    EXPECT_EQ(s1.stored, 0u);

    opts.stats = &s2;
    ExperimentRunner(opts).run({bad});
    EXPECT_EQ(s2.cacheHits, 0u) << "failures must re-run";
    EXPECT_EQ(s2.replayed, 1u);
}

// --------------------------------------------- CacheStore seam

TEST(CacheStoreSeam, HashValidationBlocksPathTraversal)
{
    // Remote clients supply the hash that becomes a file name; the
    // store must reject anything but the 16 lowercase hex digits
    // specHashHex() produces.
    EXPECT_NO_THROW(
        runner::checkCacheHash("0123456789abcdef"));
    for (const char *bad :
         {"", "short", "0123456789ABCDEF", "0123456789abcde/",
          "../../etc/passwd", "0123456789abcdef0"})
        EXPECT_THROW(runner::checkCacheHash(bad),
                     std::runtime_error)
            << bad;

    runner::DirCacheStore store(tempDir("traversal"));
    EXPECT_THROW(store.get("../../etc/passwd"),
                 std::runtime_error);
    EXPECT_THROW(store.put("..", "x"), std::runtime_error);
}

TEST(CacheStoreSeam, ConcurrentDirPutsDoNotCollideOnTmpNames)
{
    // Regression: the temp name used to be path + ".tmp." + pid,
    // which two threads of one process (the head node serving
    // concurrent remote PUTs) share — interleaved writes, then a
    // double rename that throws. Unique-per-writer names make
    // same-hash puts idempotent: last complete entry wins.
    runner::DirCacheStore store(tempDir("tmprace"));
    const std::string hash = "00000000deadbeef";
    const std::string entry(64 * 1024, 'x');
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t)
        threads.emplace_back([&] {
            for (int i = 0; i < 40; ++i) {
                try {
                    store.put(hash, entry);
                } catch (const std::exception &) {
                    failures.fetch_add(1);
                }
            }
        });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(failures.load(), 0);
    const auto got = store.get(hash);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, entry) << "entry interleaved two writers";
}

TEST(CacheStoreSeam, RemoteGetPutRoundTrips)
{
    auto dirStore = std::make_shared<runner::DirCacheStore>(
        tempDir("remote_rt"));
    runner::RemoteBackendOptions bopts;
    bopts.serveCache = dirStore;
    runner::RemoteBackend head(std::move(bopts));

    runner::RemoteCacheStore client("127.0.0.1", head.port());
    const std::string hash = "0123456789abcdef";
    EXPECT_FALSE(client.get(hash).has_value());

    const std::string entry = "{\"cache_version\":1}\n";
    client.put(hash, entry);
    const auto viaWire = client.get(hash);
    ASSERT_TRUE(viaWire.has_value());
    EXPECT_EQ(*viaWire, entry);
    // ...and the bytes really live in the head's directory store.
    const auto onDisk = dirStore->get(hash);
    ASSERT_TRUE(onDisk.has_value());
    EXPECT_EQ(*onDisk, entry);

    // Client-side validation refuses hostile keys outright.
    EXPECT_THROW(client.get("../../etc/passwd"),
                 std::runtime_error);
}

TEST(CacheStoreSeam, ClusterRerunReplaysZeroPoints)
{
    auto dirStore = std::make_shared<runner::DirCacheStore>(
        tempDir("cluster"));
    runner::RemoteBackendOptions bopts;
    bopts.serveCache = dirStore;
    runner::RemoteBackend head(std::move(bopts));

    const auto grid = runner::ExperimentGrid()
                          .schemes({"Baseline", "WLCRC-16"})
                          .workloads({"lesl", "gcc"})
                          .lines(60)
                          .seed(3)
                          .shards(2);
    RunnerOptions opts;
    opts.jobs = 2;
    opts.cacheStore = std::make_shared<runner::RemoteCacheStore>(
        "127.0.0.1", head.port());

    RunStats first, second;
    opts.stats = &first;
    const auto r1 = ExperimentRunner(opts).run(grid);
    opts.stats = &second;
    const auto r2 = ExperimentRunner(opts).run(grid);

    EXPECT_EQ(first.replayed, 4u);
    EXPECT_EQ(first.stored, 4u);
    EXPECT_EQ(second.cacheHits, 4u);
    EXPECT_EQ(second.replayed, 0u) << "cluster rerun must replay "
                                      "nothing";
    EXPECT_EQ(csvOf(r1), csvOf(r2));

    // A second "machine" (its own connection) sees the same
    // entries: zero replays there too.
    RunStats elsewhere;
    RunnerOptions other;
    other.jobs = 2;
    other.cacheStore =
        std::make_shared<runner::RemoteCacheStore>(
            "127.0.0.1", head.port());
    other.stats = &elsewhere;
    const auto r3 = ExperimentRunner(other).run(grid);
    EXPECT_EQ(elsewhere.replayed, 0u);
    EXPECT_EQ(csvOf(r3), csvOf(r1));
}

TEST(CacheStoreSeam, CorruptRemoteEntryDegradesToAMiss)
{
    const std::string dir = tempDir("remote_corrupt");
    auto dirStore =
        std::make_shared<runner::DirCacheStore>(dir);
    runner::RemoteBackendOptions bopts;
    bopts.serveCache = dirStore;
    runner::RemoteBackend head(std::move(bopts));

    RunnerOptions opts;
    opts.jobs = 1;
    opts.cacheStore = std::make_shared<runner::RemoteCacheStore>(
        "127.0.0.1", head.port());
    RunStats prime;
    opts.stats = &prime;
    const auto r1 = ExperimentRunner(opts).run({baseSpec()});
    ASSERT_EQ(prime.stored, 1u);

    std::ofstream(dirStore->entryPath(
                      runner::specHashHex(baseSpec())),
                  std::ios::binary)
        << "** not json **";

    RunStats stats;
    opts.stats = &stats;
    const auto r2 = ExperimentRunner(opts).run({baseSpec()});
    EXPECT_EQ(stats.cacheHits, 0u);
    EXPECT_EQ(stats.replayed, 1u);
    EXPECT_EQ(stats.stored, 1u) << "entry must be repaired";
    EXPECT_EQ(csvOf(r1), csvOf(r2));

    RunStats healed;
    opts.stats = &healed;
    ExperimentRunner(opts).run({baseSpec()});
    EXPECT_EQ(healed.cacheHits, 1u);
}

TEST(CacheStoreSeam, ConcurrentRemotePutsOfSameHashAreIdempotent)
{
    auto dirStore = std::make_shared<runner::DirCacheStore>(
        tempDir("remote_race"));
    runner::RemoteBackendOptions bopts;
    bopts.serveCache = dirStore;
    runner::RemoteBackend head(std::move(bopts));

    const std::string hash = "fedcba9876543210";
    const std::string entry(32 * 1024, 'y');
    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 6; ++t)
        threads.emplace_back([&] {
            try {
                // Each thread is its own client connection, like
                // N workers finishing the same reissued point.
                runner::RemoteCacheStore client("127.0.0.1",
                                                head.port());
                for (int i = 0; i < 20; ++i)
                    client.put(hash, entry);
            } catch (const std::exception &) {
                failures.fetch_add(1);
            }
        });
    for (auto &t : threads)
        t.join();
    EXPECT_EQ(failures.load(), 0);
    runner::RemoteCacheStore client("127.0.0.1", head.port());
    const auto got = client.get(hash);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, entry);
}

TEST(CacheStoreSeam, DeadRemoteStoreDegradesLookupToAMiss)
{
    // ResultCache::lookup must absorb a vanished head: transport
    // errors are a miss (the point replays), never a crash.
    uint16_t port = 0;
    {
        runner::RemoteBackendOptions bopts;
        runner::RemoteBackend head(std::move(bopts));
        port = head.port();
        head.stop();
    }
    // The head is gone; connecting at all now fails.
    EXPECT_THROW(runner::RemoteCacheStore("127.0.0.1", port),
                 std::runtime_error);
}

} // namespace
