/**
 * @file
 * Trace-cache race tests: a reader caught mid-trace by an eviction,
 * in-process and foreign-process evictors racing cached cells (every
 * result must stay bitwise-identical to an uncached run), and the
 * per-key TraceCacheLock that makes concurrent misses generate once.
 * This suite runs under ThreadSanitizer in CI (-DMGX_SANITIZE=thread).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "sim/experiment.h"
#include "sim/trace_io.h"
#include "sim/workload_registry.h"

namespace mgx::sim {
namespace {

namespace fs = std::filesystem;

using protection::ProtectionConfig;
using protection::ProtectionEngine;
using protection::Scheme;

/** The cell streamed straight off a fresh kernel, no cache. */
RunResult
runUncached(const std::string &workload, Scheme scheme)
{
    const Platform platform = defaultPlatform(workload);
    dram::DramSystem dram(platform.dram);
    ProtectionConfig cfg;
    cfg.scheme = scheme;
    ProtectionEngine engine(cfg, &dram);
    PerfModel model(&engine, platform.clockMhz);
    auto kernel = makeKernel(workload, platform);
    auto source = kernel->stream();
    return model.run(*source);
}

/**
 * Every field must match — including the metaCache counters and the
 * content-derived footprint fields (traceBytes, peakPhaseBytes).
 */
void
expectBitwiseEqual(const RunResult &a, const RunResult &b,
                   const std::string &label)
{
    EXPECT_EQ(a.totalCycles, b.totalCycles) << label;
    EXPECT_EQ(a.computeCycles, b.computeCycles) << label;
    EXPECT_EQ(a.memoryCycles, b.memoryCycles) << label;
    EXPECT_EQ(a.traffic.dataBytes, b.traffic.dataBytes) << label;
    EXPECT_EQ(a.traffic.expandBytes, b.traffic.expandBytes) << label;
    EXPECT_EQ(a.traffic.macBytes, b.traffic.macBytes) << label;
    EXPECT_EQ(a.traffic.vnBytes, b.traffic.vnBytes) << label;
    EXPECT_EQ(a.traffic.treeBytes, b.traffic.treeBytes) << label;
    EXPECT_EQ(a.dramAccesses, b.dramAccesses) << label;
    EXPECT_EQ(a.logicalAccesses, b.logicalAccesses) << label;
    EXPECT_EQ(a.metaCacheHits, b.metaCacheHits) << label;
    EXPECT_EQ(a.metaCacheMisses, b.metaCacheMisses) << label;
    EXPECT_EQ(a.metaCacheWritebacks, b.metaCacheWritebacks) << label;
    EXPECT_EQ(a.traceBytes, b.traceBytes) << label;
    EXPECT_EQ(a.peakPhaseBytes, b.peakPhaseBytes) << label;
    EXPECT_EQ(a.seconds, b.seconds) << label;
}

// ---------------------------------------------------------------------
// Trace-cache eviction races
// ---------------------------------------------------------------------

TEST(EvictionRace, MidReadUnlinkStillDrainsTheWholeTrace)
{
    // A FilePhaseSource caught mid-phase by an eviction must finish
    // its pass: on POSIX the open descriptor outlives the unlink, so
    // the reader sees the complete, unmodified trace.
    const fs::path dir =
        fs::temp_directory_path() / "mgx_midread_unlink_test";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string file = (dir / "victim.trace").string();

    core::Trace trace = makeKernel("video/h264?frames=6")->generate();
    ASSERT_GT(trace.size(), 4u);
    writeTraceFile(trace, file);

    core::Trace rebuilt;
    core::TraceBuildSink sink(rebuilt);
    FilePhaseSource source(file);
    for (int i = 0; i < 2; ++i)
        ASSERT_TRUE(source.nextChunk(sink)); // reader is mid-trace
    EXPECT_EQ(enforceTraceCacheLimit(dir.string(), 0), 1u);
    EXPECT_FALSE(fs::exists(file)); // evicted under the reader
    while (source.nextChunk(sink)) {
    }
    EXPECT_EQ(traceToString(rebuilt), traceToString(trace));
    fs::remove_all(dir);
}

TEST(EvictionRace, ConcurrentEvictorStaysBitwiseIdentical)
{
    // Hammer the cache directory with an evictor thread while cells
    // replay from it: whether a cell wins the race (replays the file) or loses it (openIfReadable fails and
    // it falls back to streaming the kernel), every result must equal
    // the uncached baseline.
    const fs::path dir =
        fs::temp_directory_path() / "mgx_evict_race_test";
    fs::remove_all(dir);

    const std::string w = "core/matmul?m=128&n=128&k=128";
    const RunResult baseline = runUncached(w, Scheme::BP);

    std::atomic<bool> stop{false};
    std::thread evictor([&] {
        while (!stop.load(std::memory_order_relaxed)) {
            enforceTraceCacheLimit(dir.string(), 0);
            std::this_thread::yield();
        }
    });
    for (int i = 0; i < 12; ++i) {
        const ResultSet rs = Experiment()
                                 .workload(w)
                                 .schemes({Scheme::BP})
                                 .threads(2)
                                 .traceCacheDir(dir.string())
                                 .run();
        ASSERT_EQ(rs.records().size(), 1u);
        expectBitwiseEqual(baseline, rs.records()[0].result,
                           "race iteration " + std::to_string(i));
    }
    stop.store(true, std::memory_order_relaxed);
    evictor.join();
    fs::remove_all(dir);
}

TEST(EvictionRace, ForeignProcessEvictorStaysBitwiseIdentical)
{
    // Same contract as above, but the evictor is another *process*
    // (a shell rm-loop), so it exercises the cross-process story:
    // atomic tmp+rename publishes, the per-key flock, and the
    // open-then-probe fallbacks — a foreign unlink can land between
    // any two filesystem calls here, which no in-process evictor
    // interleaving guarantees.
    const fs::path dir =
        fs::temp_directory_path() / "mgx_foreign_evict_test";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string stop_flag = (dir / "stop.flag").string();

    const std::string w = "core/matmul?m=128&n=128&k=128";
    const RunResult baseline = runUncached(w, Scheme::BP);

    const std::string cmd = "while [ ! -e '" + stop_flag +
                            "' ]; do rm -f '" + dir.string() +
                            "'/*.trace 2>/dev/null; done";
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        // Exec immediately: nothing but the shell runs in the child,
        // which keeps the fork safe under ThreadSanitizer.
        ::execl("/bin/sh", "sh", "-c", cmd.c_str(),
                static_cast<char *>(nullptr));
        ::_exit(127);
    }

    for (int i = 0; i < 9; ++i) {
        const ResultSet rs = Experiment()
                                 .workload(w)
                                 .schemes({Scheme::BP})
                                 .threads(2)
                                 .traceCacheDir(dir.string())
                                 .run();
        ASSERT_EQ(rs.records().size(), 1u);
        expectBitwiseEqual(baseline, rs.records()[0].result,
                           "foreign-evictor iteration " +
                               std::to_string(i));
    }

    std::ofstream(stop_flag) << "stop\n";
    int status = 0;
    EXPECT_EQ(::waitpid(pid, &status, 0), pid);
    EXPECT_TRUE(WIFEXITED(status));
    fs::remove_all(dir);
}

// ---------------------------------------------------------------------
// Trace-cache key locks (cross-process generate-once)
// ---------------------------------------------------------------------

TEST(TraceCacheLockTest, ConcurrentMissesGenerateExactlyOnce)
{
    // The probe / lock / re-probe pattern Experiment::run uses around
    // cache misses: whoever wins the flock generates; everyone else
    // re-probes under the lock and finds the published file.
    const fs::path dir =
        fs::temp_directory_path() / "mgx_cachelock_once_test";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string file = (dir / "key.trace").string();

    const core::Trace trace =
        makeKernel("video/h264?frames=2")->generate();
    std::atomic<int> generations{0};

    std::vector<std::thread> threads;
    for (int i = 0; i < 4; ++i) {
        threads.emplace_back([&] {
            if (readTraceFileIfReadable(file))
                return;
            TraceCacheLock lock(file);
            if (readTraceFileIfReadable(file))
                return; // someone generated while we waited
            writeTraceFile(trace, file);
            generations.fetch_add(1);
        });
    }
    for (auto &t : threads)
        t.join();

    EXPECT_EQ(generations.load(), 1);
    const auto readback = readTraceFileIfReadable(file);
    ASSERT_TRUE(readback.has_value());
    EXPECT_EQ(traceToString(*readback), traceToString(trace));
    // The lock file is deliberately left behind (unlink would race);
    // eviction never touches it because it only deletes *.trace.
    EXPECT_TRUE(fs::exists(file + ".lock"));
    enforceTraceCacheLimit(dir.string(), 0);
    EXPECT_FALSE(fs::exists(file));
    EXPECT_TRUE(fs::exists(file + ".lock"));
    fs::remove_all(dir);
}

TEST(TraceCacheLockTest, SecondLockerBlocksUntilRelease)
{
    const fs::path dir =
        fs::temp_directory_path() / "mgx_cachelock_block_test";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string file = (dir / "key.trace").string();

    std::atomic<bool> holding{false};
    std::atomic<bool> released{false};

    std::thread holder([&] {
        TraceCacheLock lock(file);
        holding.store(true, std::memory_order_release);
        // Hold long enough that the contender is provably blocked in
        // its constructor before we let go.
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        released.store(true, std::memory_order_release);
    });

    while (!holding.load(std::memory_order_acquire))
        std::this_thread::yield();
    TraceCacheLock lock(file); // blocks until the holder's dtor
    EXPECT_TRUE(released.load(std::memory_order_acquire));
    holder.join();
    fs::remove_all(dir);
}

} // namespace
} // namespace mgx::sim
