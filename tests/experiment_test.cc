/**
 * @file
 * Experiment-API tests: registry round trip (every listed workload
 * constructs and generates a non-empty trace), explicit-trace /
 * registry equivalence (byte-identical JSON, serial and parallel),
 * explicit missing-baseline reporting, and the JSON golden.
 */

#include <gtest/gtest.h>

#include "sim/experiment.h"
#include "sim/report.h"
#include "sim/workload_registry.h"

namespace mgx::sim {
namespace {

using protection::Scheme;

// ---------------------------------------------------------------------
// Workload registry
// ---------------------------------------------------------------------

TEST(Registry, EveryListedWorkloadGeneratesATrace)
{
    const auto names = listWorkloads();
    ASSERT_GE(names.size(), 40u); // 5 domains, all their workloads
    for (const auto &name : names) {
        auto kernel = makeKernel(name);
        ASSERT_NE(kernel, nullptr) << name;
        core::Trace trace = kernel->generate();
        EXPECT_FALSE(trace.empty()) << name;
        EXPECT_GT(core::traceDataBytes(trace), 0u) << name;
    }
}

TEST(Registry, ListedNamesAreUnique)
{
    auto names = listWorkloads();
    auto unique = names;
    std::sort(unique.begin(), unique.end());
    unique.erase(std::unique(unique.begin(), unique.end()),
                 unique.end());
    EXPECT_EQ(unique.size(), names.size());
}

TEST(Registry, AliasesAndParamsResolve)
{
    // The ISSUE's canonical example plus a parameterized matmul.
    EXPECT_NE(makeKernel("dnn/resnet50?task=training"), nullptr);
    auto mm = makeKernel("core/matmul?m=64&n=64&k=64&ktiles=1");
    core::Trace trace = mm->generate();
    EXPECT_FALSE(trace.empty());
}

TEST(Registry, PlatformSelectsDnnAccel)
{
    // The same model tiles differently for the Edge accelerator's
    // smaller SRAM, so the cache keys — and traces — must differ.
    EXPECT_NE(traceCacheKey("dnn/ResNet", cloudPlatform()),
              traceCacheKey("dnn/ResNet", edgePlatform()));
    // Pinning accel= makes the key platform-independent again.
    EXPECT_EQ(traceCacheKey("dnn/ResNet?accel=cloud", cloudPlatform()),
              traceCacheKey("dnn/ResNet?accel=cloud", edgePlatform()));
    // Non-DNN workloads never depend on the platform.
    EXPECT_EQ(traceCacheKey("genome/chr1PacBio", cloudPlatform()),
              traceCacheKey("genome/chr1PacBio", edgePlatform()));
}

TEST(RegistryDeathTest, UnknownNamesAreFatal)
{
    EXPECT_DEATH(makeKernel("dnn/NoSuchNet"), "unknown DNN model");
    EXPECT_DEATH(makeKernel("nosuchdomain/x"), "unknown domain");
    EXPECT_DEATH(makeKernel("core/matmul?typo=1"),
                 "unknown parameter");
}

TEST(Registry, OutOfRangeParametersAreTypedErrors)
{
    // Each name used to crash (SIGFPE on a zero divisor, fatal() in a
    // kernel), wrap ("-1" through strtoull), narrow (2^32 into a u32
    // scale of 0) or slip through (blanks, nan, inf) — in a service
    // that is a dead daemon or a run that never ends. Each must now
    // be the registry's own error.
    for (const char *name : {
             "core/matmul?mtiles=0",
             "core/matmul?mtiles=3",
             "core/matmul?m=0",
             "graph/pokec/pagerank?scale=0",
             "graph/pokec/pagerank?scale=4294967296",
             "video/h264?gop=0",
             "video/h264?frames=-1",
             "video/h264?frames= 2",
             "video/h264?frames=2 ",
             "video/h264?frames=+2",
             "video/h264?width=0",
             "dnn/BERT?density=-1",
             "dnn/BERT?density=0",
             "dnn/BERT?density=2",
             "dnn/BERT?density=nan",
             "dnn/BERT?density=inf",
             "dnn/BERT?density= 0.5",
             "dnn/BERT?batch=4294967296",
         }) {
        std::string error;
        EXPECT_EQ(tryMakeKernel(name, defaultPlatform(name), &error),
                  nullptr)
            << name;
        EXPECT_NE(error.find(name), std::string::npos)
            << name << ": " << error;
    }
    // The bounds themselves stay valid.
    for (const char *name :
         {"core/matmul?m=64&n=64&k=64&mtiles=64", "video/h264?gop=1",
          "video/h264?frames=0", "dnn/BERT?density=1",
          "dnn/BERT?density=0.25",
          "graph/pokec/pagerank?scale=4294967295"}) {
        std::string error;
        EXPECT_NE(tryMakeKernel(name, defaultPlatform(name), &error),
                  nullptr)
            << name << ": " << error;
    }
}

TEST(Registry, DefaultPlatformsMatchThePaper)
{
    EXPECT_EQ(defaultPlatform("dnn/ResNet").name, "Cloud");
    EXPECT_EQ(defaultPlatform("graph/pokec/bfs").name, "Graph");
    EXPECT_EQ(defaultPlatform("genome/chr1PacBio").name, "Genome");
    EXPECT_EQ(defaultPlatform("video/h264").name, "Genome");
}

// ---------------------------------------------------------------------
// Explicit traces vs registry workloads
// ---------------------------------------------------------------------

TEST(Experiment, ExplicitTraceMatchesRegistryBytes)
{
    // An explicit trace streams through the same PerfModel::run as a
    // registry cell, so the generated trace of a workload must give
    // the registry cell's JSON bytes exactly, footprint fields
    // included, serial and parallel.
    for (const std::string w :
         {"core/matmul?m=256&n=256&k=256", "video/h264?frames=4",
          "genome/chr1PacBio?reads=2", "dnn/MobileNet"}) {
        const Platform p = defaultPlatform(w);
        const std::string registry =
            toJson(Experiment().workload(w).platform(p).threads(1).run());
        for (u32 threads : {1u, 4u}) {
            const std::string explicit_trace =
                toJson(Experiment()
                           .trace(w, makeKernel(w, p)->generate())
                           .platform(p)
                           .threads(threads)
                           .run());
            EXPECT_EQ(explicit_trace, registry)
                << w << " threads=" << threads;
        }
    }
}

TEST(Experiment, DeterministicAcrossThreads)
{
    // The same grid at every thread count must produce the same JSON
    // bytes, no field masked: the pool only schedules independent
    // cells, each of which replays one stream-ordered phase sequence
    // on one thread.
    const std::vector<std::string> ws = {
        "core/matmul?m=128&n=128&k=128", "video/h264?frames=4"};
    auto grid = [&](u32 threads) {
        return toJson(Experiment()
                          .workloads(ws)
                          .platform(edgePlatform())
                          .schemes({Scheme::NP, Scheme::BP})
                          .threads(threads)
                          .run());
    };
    const std::string base = grid(1);
    ASSERT_NE(base.find("video/h264"), std::string::npos);
    for (u32 threads : {2u, 4u})
        EXPECT_EQ(grid(threads), base) << "threads=" << threads;
}

TEST(Experiment, TraceCacheSharesAcrossPlatforms)
{
    // A platform-independent workload on two platforms: 2x5 grid, one
    // shared trace; the two platforms' NP results differ (different
    // DRAM systems) — i.e. the cache keys collapsed, not the runs.
    ResultSet rs =
        Experiment()
            .workload("core/matmul?m=128&n=128&k=128")
            .platforms({cloudPlatform(), edgePlatform()})
            .schemes({Scheme::NP, Scheme::MGX})
            .run();
    EXPECT_EQ(rs.records().size(), 4u);
    const RunResult *cloud =
        rs.find("core/matmul?m=128&n=128&k=128", "Cloud", Scheme::NP);
    const RunResult *edge =
        rs.find("core/matmul?m=128&n=128&k=128", "Edge", Scheme::NP);
    ASSERT_NE(cloud, nullptr);
    ASSERT_NE(edge, nullptr);
    EXPECT_NE(cloud->totalCycles, edge->totalCycles);
    // Same trace => identical data traffic on both platforms.
    EXPECT_EQ(cloud->traffic.dataBytes, edge->traffic.dataBytes);
}

// ---------------------------------------------------------------------
// Missing-baseline semantics
// ---------------------------------------------------------------------

TEST(ResultSetTest, MissingBaselineIsExplicit)
{
    ResultSet rs = Experiment()
                       .workload("core/matmul?m=64&n=64&k=64")
                       .platform(edgePlatform())
                       .schemes({Scheme::MGX}) // no NP baseline
                       .run();
    const std::string w = "core/matmul?m=64&n=64&k=64";
    // The raw run exists...
    EXPECT_NE(rs.find(w, "Edge", Scheme::MGX), nullptr);
    // ...but the ratios report the missing baseline, not 0.0.
    EXPECT_EQ(rs.normalizedTime(w, "Edge", Scheme::MGX), std::nullopt);
    EXPECT_EQ(rs.trafficIncrease(w, "Edge", Scheme::MGX),
              std::nullopt);
    // Never-run cells are nullptr / nullopt too.
    EXPECT_EQ(rs.find(w, "Edge", Scheme::BP), nullptr);
    EXPECT_EQ(rs.normalizedTime("nope", "Edge", Scheme::MGX),
              std::nullopt);
}

TEST(ExperimentDeathTest, DuplicateTraceLabelsAreFatal)
{
    core::Trace a = makeKernel("core/matmul?m=64&n=64&k=64")->generate();
    core::Trace b = a;
    EXPECT_DEATH(Experiment()
                     .trace("t", a)
                     .trace("t", b)
                     .platform(edgePlatform())
                     .schemes({Scheme::NP})
                     .run(),
                 "two different traces");
}

TEST(ResultSetTest, GridOrderIsDeterministic)
{
    auto run = [] {
        return Experiment()
            .workloads({"core/matmul?m=64&n=64&k=64", "video/h264?frames=4"})
            .platforms({cloudPlatform(), edgePlatform()})
            .schemes(trafficSchemes())
            .run();
    };
    ResultSet a = run();
    ResultSet b = run();
    ASSERT_EQ(a.records().size(), 12u);
    ASSERT_EQ(a.records().size(), b.records().size());
    for (std::size_t i = 0; i < a.records().size(); ++i) {
        EXPECT_EQ(a.records()[i].key.workload,
                  b.records()[i].key.workload);
        EXPECT_EQ(a.records()[i].key.platform,
                  b.records()[i].key.platform);
        EXPECT_EQ(a.records()[i].key.scheme, b.records()[i].key.scheme);
        EXPECT_EQ(a.records()[i].result.totalCycles,
                  b.records()[i].result.totalCycles);
    }
    EXPECT_EQ(a.workloads().size(), 2u);
    EXPECT_EQ(a.platforms().size(), 2u);
    EXPECT_EQ(a.schemes().size(), 3u);
}

// ---------------------------------------------------------------------
// JSON sink
// ---------------------------------------------------------------------

TEST(Report, JsonGolden)
{
    // Hand-built ResultSet with fixed numbers => byte-exact JSON.
    RunResult np;
    np.totalCycles = 1000;
    np.computeCycles = 600;
    np.memoryCycles = 800;
    np.traffic.dataBytes = 4096;
    np.dramAccesses = 64;
    np.logicalAccesses = 2;
    np.traceBytes = 512;
    np.peakPhaseBytes = 256;
    np.seconds = 0.5;

    RunResult mgx = np;
    mgx.totalCycles = 1030;
    mgx.traffic.expandBytes = 64;
    mgx.traffic.macBytes = 64;
    mgx.dramAccesses = 66;
    mgx.metaCacheHits = 7;
    mgx.metaCacheMisses = 3;
    mgx.metaCacheWritebacks = 1;

    ResultSet rs;
    rs.add({{"core/matmul", "Edge", Scheme::NP}, np});
    rs.add({{"core/matmul", "Edge", Scheme::MGX}, mgx});

    const std::string expected =
        "{\n"
        "  \"schema\": \"mgx-resultset-v1\",\n"
        "  \"records\": [\n"
        "    {\"workload\": \"core/matmul\", \"platform\": \"Edge\", "
        "\"scheme\": \"NP\",\n"
        "     \"cycles\": 1000, \"computeCycles\": 600, "
        "\"memoryCycles\": 800, \"seconds\": 0.5, "
        "\"dramAccesses\": 64, \"logicalAccesses\": 2, "
        "\"traceBytes\": 512, \"peakPhaseBytes\": 256,\n"
        "     \"metaCache\": {\"hits\": 0, \"misses\": 0, "
        "\"writebacks\": 0},\n"
        "     \"traffic\": {\"data\": 4096, \"expand\": 0, \"mac\": 0, "
        "\"vn\": 0, \"tree\": 0, \"total\": 4096},\n"
        "     \"normalizedTime\": 1, \"trafficIncrease\": 1},\n"
        "    {\"workload\": \"core/matmul\", \"platform\": \"Edge\", "
        "\"scheme\": \"MGX\",\n"
        "     \"cycles\": 1030, \"computeCycles\": 600, "
        "\"memoryCycles\": 800, \"seconds\": 0.5, "
        "\"dramAccesses\": 66, \"logicalAccesses\": 2, "
        "\"traceBytes\": 512, \"peakPhaseBytes\": 256,\n"
        "     \"metaCache\": {\"hits\": 7, \"misses\": 3, "
        "\"writebacks\": 1},\n"
        "     \"traffic\": {\"data\": 4096, \"expand\": 64, "
        "\"mac\": 64, \"vn\": 0, \"tree\": 0, \"total\": 4224},\n"
        "     \"normalizedTime\": 1.03, \"trafficIncrease\": "
        "1.03125}\n"
        "  ]\n"
        "}\n";
    EXPECT_EQ(toJson(rs), expected);
}

TEST(Report, JsonReportsMissingBaselineAsNull)
{
    RunResult mgx;
    mgx.totalCycles = 1030;
    mgx.traffic.dataBytes = 4096;
    ResultSet rs;
    rs.add({{"w", "Edge", Scheme::MGX}, mgx});
    const std::string json = toJson(rs);
    EXPECT_NE(json.find("\"normalizedTime\": null"),
              std::string::npos);
    EXPECT_NE(json.find("\"trafficIncrease\": null"),
              std::string::npos);
}

TEST(Report, JsonEscapesWorkloadNames)
{
    RunResult r;
    r.totalCycles = 1;
    ResultSet rs;
    rs.add({{"weird\"name\\x", "Edge", Scheme::NP}, r});
    const std::string json = toJson(rs);
    EXPECT_NE(json.find("weird\\\"name\\\\x"), std::string::npos);
}

TEST(Report, SchemeByNameRoundTrips)
{
    for (Scheme s : protection::kAllSchemes) {
        EXPECT_EQ(schemeByName(protection::schemeName(s)), s);
        EXPECT_EQ(trySchemeByName(protection::schemeName(s)), s);
    }
    EXPECT_EQ(trySchemeByName("XYZ"), std::nullopt);
}

TEST(ReportDeathTest, SchemeByNameRejectsUnknown)
{
    EXPECT_DEATH(schemeByName("XYZ"), "unknown scheme");
}

} // namespace
} // namespace mgx::sim
