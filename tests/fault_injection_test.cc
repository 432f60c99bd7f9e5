/**
 * @file
 * Fault-injection tests: the failpoint registry's arming grammar and
 * counters, the checksummed trace envelope (CRC32 vector, round trip,
 * truncation, bit flips, legacy streams), Experiment's graceful
 * degradation under every trace_io fault (quarantine + regenerate,
 * ENOSPC publishing nothing, torn renames swept as debris, EINTR
 * storms on the cache lock), the serve layer's deadline and
 * stuck-client recovery, rotating trace_io fault sets under concurrent
 * /run load with every answer checked against a fault-free reference,
 * and a single self-contained sweep proving
 * every registered failpoint in the binary actually fires.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/checksum.h"
#include "common/failpoint.h"
#include "fleet/backend.h"
#include "fleet/proxy.h"
#include "fleet/supervisor.h"
#include "serve/client.h"
#include "serve/server.h"
#include "sim/experiment.h"
#include "sim/report.h"
#include "sim/trace_io.h"
#include "sim/workload_registry.h"

namespace mgx {
namespace {

namespace fs = std::filesystem;

/** Small and fast, but real: one matmul cell, NP only. */
constexpr const char *kWorkload = "core/matmul?m=256&n=256&k=256";

/** Fresh unique directory, removed on scope exit. */
struct TempDir
{
    explicit TempDir(const char *tag)
    {
        path = fs::temp_directory_path() /
               ("mgx-fault-" + std::string(tag) + "-" +
                std::to_string(::getpid()));
        fs::remove_all(path);
        fs::create_directories(path);
    }
    ~TempDir() { fs::remove_all(path); }
    std::string str() const { return path.string(); }
    fs::path path;
};

/** Every guard in this file restores a clean registry on both ends. */
struct FailpointGuard
{
    FailpointGuard() { failpoint::disarmAll(); }
    ~FailpointGuard() { failpoint::disarmAll(); }
};

/** One-cell grid on one thread; the cache (if any) fills in phase 1,
 *  before the replay. */
sim::ResultSet
runGrid(const std::string &cache_dir)
{
    sim::Experiment e;
    e.workload(kWorkload).schemes({protection::Scheme::NP}).threads(1);
    if (!cache_dir.empty())
        e.traceCacheDir(cache_dir);
    return e.run();
}

/** Model outputs must survive any cache fault bit for bit; only the
 *  trace-footprint fields may depend on how the replay was fed. */
void
expectSameModelOutputs(const sim::RunResult &a, const sim::RunResult &b,
                       const char *label)
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
    EXPECT_EQ(a.seconds, b.seconds) << label;
}

std::vector<fs::path>
filesWithSuffix(const fs::path &dir, const std::string &suffix)
{
    std::vector<fs::path> out;
    for (const auto &entry : fs::directory_iterator(dir)) {
        const std::string name = entry.path().filename().string();
        if (name.size() >= suffix.size() &&
            name.compare(name.size() - suffix.size(), suffix.size(),
                         suffix) == 0)
            out.push_back(entry.path());
    }
    return out;
}

std::vector<fs::path>
filesContaining(const fs::path &dir, const std::string &needle)
{
    std::vector<fs::path> out;
    for (const auto &entry : fs::directory_iterator(dir))
        if (entry.path().filename().string().find(needle) !=
            std::string::npos)
            out.push_back(entry.path());
    return out;
}

std::string
slurp(const fs::path &p)
{
    std::ifstream in(p, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// ---------------------------------------------------------------------
// Failpoint registry
// ---------------------------------------------------------------------

TEST(Failpoint, SpecGrammarAndCounters)
{
    FailpointGuard guard;
    auto &p = failpoint::Point::get("test.grammar");

    // off (default): evaluated, never hits.
    EXPECT_FALSE(p.fire());
    EXPECT_EQ(p.spec(), "off");

    ASSERT_TRUE(p.arm("once"));
    EXPECT_TRUE(p.fire());
    EXPECT_FALSE(p.fire());

    ASSERT_TRUE(p.arm("times:3"));
    EXPECT_TRUE(p.fire());
    EXPECT_TRUE(p.fire());
    EXPECT_TRUE(p.fire());
    EXPECT_FALSE(p.fire());

    failpoint::resetCounters();
    ASSERT_TRUE(p.arm("every:2"));
    EXPECT_FALSE(p.fire()); // eval 1
    EXPECT_TRUE(p.fire());  // eval 2
    EXPECT_FALSE(p.fire()); // eval 3
    EXPECT_TRUE(p.fire());  // eval 4
    EXPECT_EQ(p.evaluations(), 4u);
    EXPECT_EQ(p.hits(), 2u);

    ASSERT_TRUE(p.arm("always"));
    EXPECT_TRUE(p.fire());

    // prob:0 never fires, prob:1 always does; a fixed seed is
    // deterministic across arms.
    ASSERT_TRUE(p.arm("prob:0"));
    for (int i = 0; i < 32; ++i)
        EXPECT_FALSE(p.fire());
    ASSERT_TRUE(p.arm("prob:1"));
    for (int i = 0; i < 32; ++i)
        EXPECT_TRUE(p.fire());
    ASSERT_TRUE(p.arm("prob:0.5:12345"));
    std::vector<bool> first;
    for (int i = 0; i < 64; ++i)
        first.push_back(p.fire());
    ASSERT_TRUE(p.arm("prob:0.5:12345"));
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(p.fire(), first[static_cast<std::size_t>(i)]) << i;

    p.disarm();
    EXPECT_FALSE(p.fire());
    EXPECT_EQ(p.spec(), "off");

    // Malformed specs are rejected and leave the point as-is.
    EXPECT_FALSE(p.arm("nonsense"));
    EXPECT_FALSE(p.arm("times:0"));
    EXPECT_FALSE(p.arm("every:0"));
    EXPECT_FALSE(p.arm("prob:2"));
    EXPECT_FALSE(p.arm("prob:0.5:notanumber"));
    EXPECT_EQ(p.spec(), "off");
}

TEST(Failpoint, SpecListArmsAndHoldsPendingNames)
{
    FailpointGuard guard;
    // The second name has never registered: the spec is held and
    // applied the moment the point appears.
    std::string error;
    ASSERT_TRUE(failpoint::armSpecList(
        "test.list.known=once,test.list.pending=times:2", &error))
        << error;
    auto &known = failpoint::Point::get("test.list.known");
    EXPECT_EQ(known.spec(), "once");

    auto &late = failpoint::Point::get("test.list.pending");
    EXPECT_EQ(late.spec(), "times:2");
    EXPECT_TRUE(late.fire());
    EXPECT_TRUE(late.fire());
    EXPECT_FALSE(late.fire());

    EXPECT_FALSE(failpoint::armSpecList("garbage-no-equals", &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(
        failpoint::armSpecList("test.list.known=bogus", &error));

    // all() reports both points, sorted, with live counters.
    bool saw_known = false, saw_pending = false;
    for (const auto &info : failpoint::all()) {
        if (info.name == "test.list.known")
            saw_known = true;
        if (info.name == "test.list.pending") {
            saw_pending = true;
            EXPECT_EQ(info.evaluations, 3u);
            EXPECT_EQ(info.hits, 2u);
        }
    }
    EXPECT_TRUE(saw_known);
    EXPECT_TRUE(saw_pending);
}

// ---------------------------------------------------------------------
// CRC32 and the trace envelope
// ---------------------------------------------------------------------

TEST(Checksum, Crc32MatchesKnownVector)
{
    // The canonical CRC-32 check value ("123456789" -> 0xCBF43926).
    const char *vec = "123456789";
    EXPECT_EQ(crc32Update(0, vec, std::strlen(vec)), 0xCBF43926u);
    // Incremental updates compose.
    u32 crc = crc32Update(0, "1234", 4);
    crc = crc32Update(crc, "56789", 5);
    EXPECT_EQ(crc, 0xCBF43926u);
    EXPECT_EQ(crc32Update(0, "", 0), 0u);
}

TEST(TraceEnvelope, WriteSinkRoundTripsWithVerifiedChecksum)
{
    TempDir dir("roundtrip");
    const std::string file = (dir.path / "t.trace").string();

    auto kernel = sim::makeKernel(kWorkload);
    {
        sim::TraceFileWriteSink sink(file);
        kernel->stream()->drainTo(sink);
        sink.finish();
    }

    // Envelope shape: version header first, CRC footer last.
    const std::string raw = slurp(file);
    EXPECT_EQ(raw.rfind("M mgx-trace 2\n", 0), 0u);
    const std::size_t last_line = raw.rfind("\nC ");
    ASSERT_NE(last_line, std::string::npos);

    // Strict read verifies and strips the envelope; the payload must
    // equal the materialized trace byte for byte.
    const auto strict = sim::readTraceFileIfReadable(
        file, /*require_checksum=*/true);
    ASSERT_TRUE(strict.has_value());
    EXPECT_EQ(sim::traceToString(*strict),
              sim::traceToString(sim::makeKernel(kWorkload)->generate()));
}

TEST(TraceEnvelope, TruncationIsDetected)
{
    TempDir dir("truncate");
    const std::string file = (dir.path / "t.trace").string();
    {
        sim::TraceFileWriteSink sink(file);
        sim::makeKernel(kWorkload)->stream()->drainTo(sink);
        sink.finish();
    }
    std::string raw = slurp(file);
    // Drop the footer line — the classic crash-mid-write shape.
    raw.erase(raw.rfind("C "));
    {
        std::ofstream out(file, std::ios::binary | std::ios::trunc);
        out << raw;
    }
    try {
        sim::readTraceFileIfReadable(file, true);
        FAIL() << "truncated trace verified";
    } catch (const sim::TraceIoError &e) {
        EXPECT_NE(std::string(e.what()).find("truncated"),
                  std::string::npos)
            << e.what();
    }
}

TEST(TraceEnvelope, BitFlipIsDetectedAndQuarantined)
{
    TempDir dir("bitflip");
    const std::string file = (dir.path / "t.trace").string();
    {
        sim::TraceFileWriteSink sink(file);
        sim::makeKernel(kWorkload)->stream()->drainTo(sink);
        sink.finish();
    }
    std::string raw = slurp(file);
    // Flip one hex digit in the middle of the payload: every line
    // still parses, only the CRC can notice.
    const std::size_t pos = raw.find('7', raw.size() / 2);
    ASSERT_NE(pos, std::string::npos);
    raw[pos] = '8';
    {
        std::ofstream out(file, std::ios::binary | std::ios::trunc);
        out << raw;
    }
    EXPECT_THROW(sim::readTraceFileIfReadable(file, true),
                 sim::TraceIoError);

    EXPECT_TRUE(sim::quarantineTraceFile(file));
    EXPECT_FALSE(fs::exists(file));
    EXPECT_TRUE(fs::exists(file + ".bad"));
}

TEST(TraceEnvelope, LegacyHeaderlessStreamsStillParse)
{
    const core::Trace trace =
        sim::makeKernel(kWorkload)->generate();
    const std::string payload = sim::traceToString(trace);
    // Envelope-free text (writeTrace / dumps) parses in lenient mode…
    const core::Trace again = sim::traceFromString(payload);
    EXPECT_EQ(sim::traceToString(again), payload);
    // …but strict mode refuses anything without a verified envelope.
    std::istringstream ss(payload);
    EXPECT_THROW(sim::readTrace(ss, /*require_checksum=*/true),
                 sim::TraceIoError);
}

// ---------------------------------------------------------------------
// Experiment degradation under injected faults
// ---------------------------------------------------------------------

TEST(ExperimentFault, CorruptCacheFileQuarantinedAndRegenerated)
{
    FailpointGuard guard;
    TempDir dir("corrupt");
    const sim::ResultSet baseline = runGrid("");

    // Cold run publishes the cache file.
    runGrid(dir.str());
    auto traces = filesWithSuffix(dir.path, ".trace");
    ASSERT_EQ(traces.size(), 1u);
    const std::string pristine = slurp(traces[0]);

    // Corrupt one payload digit on disk.
    std::string raw = pristine;
    const std::size_t pos = raw.find('7', raw.size() / 2);
    ASSERT_NE(pos, std::string::npos);
    raw[pos] = '8';
    {
        std::ofstream out(traces[0],
                          std::ios::binary | std::ios::trunc);
        out << raw;
    }

    // The warm run must detect it, quarantine, regenerate from the
    // kernel (republishing within the same run), and still produce
    // exact results.
    const sim::ResultSet rs = runGrid(dir.str());
    ASSERT_EQ(rs.records().size(), 1u);
    expectSameModelOutputs(rs.records()[0].result,
                           baseline.records()[0].result, "corrupt");
    EXPECT_EQ(rs.traceCacheQuarantined(), 1u);
    EXPECT_EQ(rs.traceCacheHits(), 0u);
    EXPECT_EQ(rs.traceCacheMisses(), 1u);
    EXPECT_FALSE(rs.cacheDegraded());
    EXPECT_EQ(filesWithSuffix(dir.path, ".trace.bad").size(), 1u);

    // The regenerated file is bitwise-identical to the pre-corruption
    // original (equal keys guarantee equal traces, and the envelope
    // is deterministic).
    traces = filesWithSuffix(dir.path, ".trace");
    ASSERT_EQ(traces.size(), 1u);
    EXPECT_EQ(slurp(traces[0]), pristine);

    // And a later run hits it cleanly.
    const sim::ResultSet warm = runGrid(dir.str());
    EXPECT_EQ(warm.traceCacheHits(), 1u);
    EXPECT_EQ(warm.traceCacheQuarantined(), 0u);
}

TEST(ExperimentFault, CorruptCacheFileRepairedOnceAcrossParallelCells)
{
    // Five schemes share one corrupt trace file on four threads: every
    // cell must still be exact, and the file is quarantined,
    // regenerated and republished exactly once, byte for byte.
    FailpointGuard guard;
    TempDir dir("corrupt-parallel");
    const auto grid = [](const std::string &cache_dir) {
        sim::Experiment e;
        e.workload(kWorkload).schemes(sim::allSchemes()).threads(4);
        if (!cache_dir.empty())
            e.traceCacheDir(cache_dir);
        return e.run();
    };
    const sim::ResultSet baseline = grid("");
    grid(dir.str());
    auto traces = filesWithSuffix(dir.path, ".trace");
    ASSERT_EQ(traces.size(), 1u);
    const std::string pristine = slurp(traces[0]);

    std::string raw = pristine;
    const std::size_t pos = raw.find('7', raw.size() / 2);
    ASSERT_NE(pos, std::string::npos);
    raw[pos] = '8';
    {
        std::ofstream out(traces[0],
                          std::ios::binary | std::ios::trunc);
        out << raw;
    }

    const sim::ResultSet rs = grid(dir.str());
    ASSERT_EQ(rs.records().size(), 5u);
    ASSERT_EQ(baseline.records().size(), 5u);
    for (std::size_t i = 0; i < rs.records().size(); ++i)
        expectSameModelOutputs(
            rs.records()[i].result, baseline.records()[i].result,
            protection::schemeName(rs.records()[i].key.scheme));
    EXPECT_EQ(rs.traceCacheQuarantined(), 1u);
    EXPECT_EQ(rs.traceCacheHits(), 0u);
    EXPECT_EQ(rs.traceCacheMisses(), 1u);
    EXPECT_FALSE(rs.cacheDegraded());
    EXPECT_EQ(filesWithSuffix(dir.path, ".trace.bad").size(), 1u);
    traces = filesWithSuffix(dir.path, ".trace");
    ASSERT_EQ(traces.size(), 1u);
    EXPECT_EQ(slurp(traces[0]), pristine);
}

TEST(ExperimentFault, EnospcPublishesNothingAndDegradesGracefully)
{
    FailpointGuard guard;
    TempDir dir("enospc");
    const sim::ResultSet baseline = runGrid("");

    ASSERT_TRUE(
        failpoint::armSpecList("trace_io.write.enospc=once"));
    const sim::ResultSet rs = runGrid(dir.str());
    ASSERT_EQ(rs.records().size(), 1u);
    expectSameModelOutputs(rs.records()[0].result,
                           baseline.records()[0].result, "enospc");
    // A failed write publishes nothing — no half-written trace, no
    // leaked temporary (consume cleans up on ENOSPC).
    EXPECT_TRUE(filesWithSuffix(dir.path, ".trace").empty());
    EXPECT_TRUE(filesContaining(dir.path, ".trace.tmp.").empty());
    EXPECT_TRUE(rs.cacheDegraded());
    EXPECT_GE(rs.traceCacheFaults(), 1u);
    EXPECT_EQ(rs.traceCacheMisses(), 0u);
}

TEST(ExperimentFault, TornRenameLeavesOnlyTmpAndSweepReclaimsIt)
{
    FailpointGuard guard;
    TempDir dir("torn");
    const sim::ResultSet baseline = runGrid("");

    ASSERT_TRUE(failpoint::armSpecList("trace_io.write.torn=once"));
    const sim::ResultSet rs = runGrid(dir.str());
    expectSameModelOutputs(rs.records()[0].result,
                           baseline.records()[0].result, "torn");
    // The crash-before-rename shape: the temporary exists, the
    // published name does not.
    EXPECT_TRUE(filesWithSuffix(dir.path, ".trace").empty());
    EXPECT_EQ(filesContaining(dir.path, ".trace.tmp.").size(), 1u);
    EXPECT_TRUE(rs.cacheDegraded());

    // Debris sweep with no grace reclaims it (the in-run sweep uses a
    // 15-minute grace so live writers are never raced).
    EXPECT_EQ(sim::sweepTraceCacheDebris(dir.str(),
                                         std::chrono::seconds(0)),
              1u);
    EXPECT_TRUE(filesContaining(dir.path, ".trace.tmp.").empty());
}

TEST(ExperimentFault, StartupSweepCountsReclaimedDebris)
{
    FailpointGuard guard;
    TempDir dir("sweep");
    // Plant aged debris: an abandoned temporary and a stale
    // quarantine file, plus a fresh temporary a live writer could own.
    const auto old_tmp = dir.path / "k.trace.tmp.999";
    const auto old_bad = dir.path / "k.trace.bad";
    const auto fresh_tmp = dir.path / "live.trace.tmp.1000";
    for (const auto &p : {old_tmp, old_bad, fresh_tmp})
        std::ofstream(p) << "debris\n";
    const auto aged =
        fs::file_time_type::clock::now() - std::chrono::hours(1);
    fs::last_write_time(old_tmp, aged);
    fs::last_write_time(old_bad, aged);

    const sim::ResultSet rs = runGrid(dir.str());
    EXPECT_EQ(rs.traceCacheSwept(), 2u);
    EXPECT_FALSE(fs::exists(old_tmp));
    EXPECT_FALSE(fs::exists(old_bad));
    EXPECT_TRUE(fs::exists(fresh_tmp)) << "swept a live writer's tmp";
}

TEST(ExperimentFault, LockEintrStormIsRetried)
{
    FailpointGuard guard;
    TempDir dir("eintr");
    const sim::ResultSet baseline = runGrid("");

    auto &eintr = failpoint::Point::get("trace_io.lock.eintr");
    failpoint::resetCounters();
    ASSERT_TRUE(failpoint::armSpecList("trace_io.lock.eintr=times:5"));
    const sim::ResultSet rs = runGrid(dir.str());
    expectSameModelOutputs(rs.records()[0].result,
                           baseline.records()[0].result, "eintr");
    // The storm was absorbed by retrying, not by giving up: the run
    // published normally.
    EXPECT_EQ(eintr.hits(), 5u);
    EXPECT_EQ(rs.traceCacheMisses(), 1u);
    EXPECT_FALSE(rs.cacheDegraded());
    EXPECT_EQ(filesWithSuffix(dir.path, ".trace").size(), 1u);
}

// ---------------------------------------------------------------------
// Serve-layer recovery: deadlines and stuck clients free the worker
// ---------------------------------------------------------------------

std::string
testSocketPath(const char *tag)
{
    return "/tmp/mgx-fault-test-" + std::to_string(::getpid()) + "-" +
           tag + ".sock";
}

template <typename Pred>
bool
eventually(Pred pred, int timeout_ms = 10000)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeout_ms);
    while (!pred()) {
        if (std::chrono::steady_clock::now() > deadline)
            return false;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

serve::CellOutcome
syntheticOutcome(const serve::CellKey &cell)
{
    serve::CellOutcome out;
    out.record.key = {cell.workload, cell.platform.name, cell.scheme};
    out.record.result.totalCycles = 1000;
    return out;
}

TEST(ServeFault, ExpiredDeadlineAnswers503AndFreesTheWorker)
{
    serve::ServerOptions opts;
    opts.listen.unixPath = testSocketPath("deadline");
    opts.workers = 1;
    opts.requestDeadlineMs = 50;
    serve::Server server(opts);

    std::atomic<bool> release{false};
    std::atomic<int> runs{0};
    server.setCellRunnerForTest([&](const serve::CellKey &cell) {
        runs.fetch_add(1);
        while (!release.load(std::memory_order_acquire))
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        return syntheticOutcome(cell);
    });
    server.start();
    const serve::SocketAddress addr{opts.listen.unixPath, "127.0.0.1",
                                    0};
    const std::string target =
        "/run?workload=core%2Fmatmul&schemes=NP";

    serve::HttpResponse resp;
    std::string error;
    ASSERT_TRUE(serve::httpGet(addr, target, &resp, &error)) << error;
    EXPECT_EQ(resp.status, 503);
    EXPECT_NE(resp.body.find("deadline exceeded"), std::string::npos);

    // The worker is free again — with one worker, only a freed worker
    // can answer this — while the cell still runs in the background.
    ASSERT_TRUE(serve::httpGet(addr, "/stats", &resp, &error))
        << error;
    EXPECT_EQ(resp.status, 200);
    EXPECT_NE(resp.body.find("\"deadlineExceeded\": 1"),
              std::string::npos);
    EXPECT_EQ(server.cellFlights().backgroundRuns(), 1u);

    // A retry joins the background flight instead of re-running the
    // engine: still one runner invocation.
    ASSERT_TRUE(serve::httpGet(addr, target, &resp, &error)) << error;
    EXPECT_EQ(resp.status, 503);
    EXPECT_EQ(runs.load(), 1);

    release.store(true, std::memory_order_release);
    server.shutdown(); // must drain the background run, then join
    EXPECT_EQ(server.cellFlights().backgroundRuns(), 0u);
    EXPECT_EQ(server.metricsSnapshot().deadlineExceeded, 2u);
}

TEST(ServeFault, StuckClientIsTimedOutAndTheWorkerFreed)
{
    serve::ServerOptions opts;
    opts.listen.unixPath = testSocketPath("stuck");
    opts.workers = 1;
    opts.ioTimeoutMs = 150; // SO_RCVTIMEO on the accepted socket
    serve::Server server(opts);
    server.setCellRunnerForTest(syntheticOutcome);
    server.start();
    const serve::SocketAddress addr{opts.listen.unixPath, "127.0.0.1",
                                    0};

    // A client that connects and then says nothing wedges the only
    // worker until the receive timeout trips.
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un sa{};
    sa.sun_family = AF_UNIX;
    std::strncpy(sa.sun_path, opts.listen.unixPath.c_str(),
                 sizeof sa.sun_path - 1);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&sa),
                        sizeof sa),
              0);
    ASSERT_TRUE(eventually(
        [&] { return server.metricsSnapshot().inFlight >= 1; }));

    // Within the timeout (plus slack) the worker answers 400 to the
    // silent peer and moves on; a normal request then succeeds.
    ASSERT_TRUE(eventually(
        [&] { return server.metricsSnapshot().inFlight == 0; }, 5000));
    serve::HttpResponse resp;
    std::string error;
    ASSERT_TRUE(serve::httpGet(addr, "/stats", &resp, &error))
        << error;
    EXPECT_EQ(resp.status, 200);
    EXPECT_GE(server.metricsSnapshot().badRequests, 1u);
    ::close(fd);
    server.shutdown();
}

// ---------------------------------------------------------------------
// Chaos under load: rotating trace_io faults cost reuse, never answers
// ---------------------------------------------------------------------

/**
 * The chaos rotation: every entry is a complete MGX_FAILPOINTS-style
 * list armed for one slice of the load window. Specs are recurring
 * (every:N / prob) so faults keep firing across requests.
 * `lock.eintr=always` is deliberately absent — the flock retry loop
 * would livelock; an every:2 storm exercises the same retry path and
 * always makes progress.
 */
const char *const kChaosRotation[] = {
    "trace_io.read.open=every:3,trace_io.read.corrupt=every:2",
    "trace_io.write.open=every:2,trace_io.write.enospc=every:3",
    "trace_io.write.short=every:3,trace_io.write.torn=every:2",
    "trace_io.lock.open=every:3,trace_io.lock.eintr=every:2",
    "trace_io.read.corrupt=prob:0.5:1234,trace_io.write.enospc=prob:0.5:5678",
};

TEST(ServeFault, RotatingCacheFaultsUnderLoadNeverFailOrDrift)
{
    FailpointGuard guard;
    TempDir cache("chaos");
    // The fault-free reference: exactly what `mgx_run --json` writes
    // for this grid, computed before any failpoint is armed.
    const std::string reference =
        sim::toJson(sim::Experiment()
                        .workload(kWorkload)
                        .schemes({protection::Scheme::NP,
                                  protection::Scheme::BP})
                        .threads(1)
                        .run());

    constexpr unsigned kClients = 4;
    serve::ServerOptions opts;
    opts.listen.unixPath = testSocketPath("chaos");
    opts.workers = kClients;
    opts.admissionCapacity = 2 * kClients;
    opts.traceCacheDir = cache.str();
    // No memo: every request must replay its cells through the trace
    // cache, or the faults would have nothing left to hit after the
    // first answer.
    opts.resultMemoCapacity = 0;
    serve::Server server(opts);
    server.start();
    const serve::SocketAddress addr{opts.listen.unixPath, "127.0.0.1",
                                    0};
    const std::string target = "/run?workload=" +
                               serve::percentEncode(kWorkload) +
                               "&schemes=NP,BP";

    // Warm the cache fault-free so the read-side faults have files to
    // corrupt from the first slice on.
    {
        serve::HttpResponse resp;
        std::string error;
        ASSERT_TRUE(serve::httpGet(addr, target, &resp, &error))
            << error;
        ASSERT_EQ(resp.status, 200) << resp.body;
        ASSERT_EQ(resp.body, reference);
    }

    std::atomic<bool> stop{false};
    std::atomic<u64> rotations{0};
    std::thread chaos([&] {
        for (std::size_t i = 0; !stop.load(std::memory_order_acquire);
             ++i) {
            failpoint::disarmAll();
            EXPECT_TRUE(failpoint::armSpecList(
                kChaosRotation[i % std::size(kChaosRotation)]));
            rotations.fetch_add(1);
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
        failpoint::disarmAll();
    });

    std::atomic<u64> ok{0}, failed{0}, drifted{0};
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    std::vector<std::thread> clients;
    for (unsigned c = 0; c < kClients; ++c) {
        clients.emplace_back([&] {
            while (std::chrono::steady_clock::now() < deadline) {
                serve::HttpResponse resp;
                std::string error;
                if (serve::httpGet(addr, target, &resp, &error) &&
                    resp.status == 200) {
                    ok.fetch_add(1);
                    drifted.fetch_add(resp.body != reference);
                } else {
                    failed.fetch_add(1);
                }
            }
        });
    }
    for (auto &t : clients)
        t.join();
    stop.store(true, std::memory_order_release);
    chaos.join();
    server.shutdown();

    EXPECT_GT(ok.load(), 0u);
    EXPECT_GE(rotations.load(), std::size(kChaosRotation));
    EXPECT_EQ(failed.load(), 0u);
    EXPECT_EQ(drifted.load(), 0u);
    // Non-vacuity: injected read corruption reached a cached replay
    // under load and was repaired, leaving quarantine evidence.
    EXPECT_GE(filesContaining(cache.path, ".trace.bad").size(), 1u);
}

// ---------------------------------------------------------------------
// Coverage: every registered failpoint fires at least once
// ---------------------------------------------------------------------

TEST(FailpointCoverage, EveryRegisteredFailpointFires)
{
    // gtest_discover_tests runs each TEST in its own process, so this
    // must be one self-contained sweep: arm every point in turn, drive
    // the code path that evaluates it, then audit the registry.
    FailpointGuard guard;
    failpoint::resetCounters();

    const sim::ResultSet baseline = runGrid("");
    const auto degraded_run = [&](const char *specs) {
        TempDir dir(specs);
        ASSERT_TRUE(failpoint::armSpecList(specs));
        const sim::ResultSet rs = runGrid(dir.str());
        failpoint::disarmAll();
        ASSERT_EQ(rs.records().size(), 1u);
        expectSameModelOutputs(rs.records()[0].result,
                               baseline.records()[0].result, specs);
    };

    // Write-side faults: each cold run absorbs one injected failure.
    degraded_run("trace_io.write.open=once");
    degraded_run("trace_io.write.enospc=once");
    degraded_run("trace_io.write.short=once");
    degraded_run("trace_io.write.torn=once");
    degraded_run("trace_io.lock.open=once");
    degraded_run("trace_io.lock.eintr=times:2");

    // Read-side faults need a populated cache to read from.
    {
        TempDir dir("reads");
        runGrid(dir.str()); // cold, unarmed: publish the file
        ASSERT_TRUE(
            failpoint::armSpecList("trace_io.read.open=once"));
        sim::ResultSet rs = runGrid(dir.str());
        failpoint::disarmAll();
        expectSameModelOutputs(rs.records()[0].result,
                               baseline.records()[0].result,
                               "read.open");
        ASSERT_TRUE(
            failpoint::armSpecList("trace_io.read.corrupt=once"));
        rs = runGrid(dir.str());
        failpoint::disarmAll();
        expectSameModelOutputs(rs.records()[0].result,
                               baseline.records()[0].result,
                               "read.corrupt");
        EXPECT_EQ(rs.traceCacheQuarantined(), 1u);
    }

    // Serve-side faults: one dropped accept, one dead recv, one dead
    // send — the daemon survives all three and keeps answering.
    {
        serve::ServerOptions opts;
        opts.listen.unixPath = testSocketPath("coverage");
        serve::Server server(opts);
        server.setCellRunnerForTest(syntheticOutcome);
        server.start();
        const serve::SocketAddress addr{opts.listen.unixPath,
                                        "127.0.0.1", 0};
        serve::HttpResponse resp;
        std::string error;
        serve::RetryOptions retry;
        retry.retries = 3;
        retry.backoffMs = 1;
        retry.seed = 42;

        ASSERT_TRUE(failpoint::armSpecList("serve.accept.fail=once"));
        // First connection is dropped before reading; the retry lands.
        ASSERT_TRUE(serve::httpGetRetry(addr, "/stats", &resp, &error,
                                        5000, retry))
            << error;
        EXPECT_EQ(resp.status, 200);
        failpoint::disarmAll();

        ASSERT_TRUE(failpoint::armSpecList("serve.recv.fail=once"));
        // The injected mid-request loss yields a 400; the daemon
        // stays up and the next request is normal.
        ASSERT_TRUE(serve::httpGet(addr, "/stats", &resp, &error))
            << error;
        EXPECT_EQ(resp.status, 400);
        failpoint::disarmAll();

        ASSERT_TRUE(failpoint::armSpecList("serve.send.fail=once"));
        // The response never leaves; the client sees a transport
        // failure and the retry succeeds.
        ASSERT_TRUE(serve::httpGetRetry(addr, "/stats", &resp, &error,
                                        5000, retry))
            << error;
        EXPECT_EQ(resp.status, 200);
        failpoint::disarmAll();
        server.shutdown();
    }

    // Fleet proxy boundaries: an injected backend connect failure and
    // an injected mid-response reset both fail over (here: to a
    // second attempt at the same single backend) without the client
    // seeing anything but the full, correct body.
    {
        serve::ServerOptions bopts;
        bopts.listen.unixPath = testSocketPath("fleetback");
        serve::Server backend(bopts);
        backend.setCellRunnerForTest(syntheticOutcome);
        backend.start();

        fleet::StaticDirectory dir;
        dir.add("w0", serve::SocketAddress{bopts.listen.unixPath,
                                           "127.0.0.1", 0});
        fleet::ProxyOptions popts;
        popts.listen.unixPath = testSocketPath("fleetproxy");
        popts.failoverPauseMs = 10;
        fleet::Proxy proxy(popts, &dir);
        proxy.start();
        const serve::SocketAddress paddr{popts.listen.unixPath,
                                         "127.0.0.1", 0};
        const std::string target =
            "/run?workload=" + serve::percentEncode(kWorkload) +
            "&schemes=NP";

        serve::HttpResponse resp;
        std::string error;
        ASSERT_TRUE(serve::httpGet(paddr, target, &resp, &error))
            << error;
        ASSERT_EQ(resp.status, 200);
        const std::string reference = resp.body;

        ASSERT_TRUE(
            failpoint::armSpecList("fleet.backend.connect=once"));
        ASSERT_TRUE(serve::httpGet(paddr, target, &resp, &error))
            << error;
        EXPECT_EQ(resp.status, 200);
        EXPECT_EQ(resp.body, reference);
        failpoint::disarmAll();

        ASSERT_TRUE(
            failpoint::armSpecList("fleet.backend.reset=once"));
        ASSERT_TRUE(serve::httpGet(paddr, target, &resp, &error))
            << error;
        EXPECT_EQ(resp.status, 200);
        EXPECT_EQ(resp.body, reference);
        failpoint::disarmAll();

        EXPECT_GE(proxy.metrics().failovers.load(), 2u);
        proxy.shutdown();
        backend.shutdown();
    }

    // Supervisor boundaries: an injected fork failure (retried with
    // backoff) and an injected probe timeout. The spawned "worker" is
    // /bin/sleep — it never answers probes, which is fine: the
    // failpoint just has to be evaluated on a live pid.
    {
        TempDir socks("fleetsup");
        fleet::SupervisorOptions sopts;
        sopts.workers = 1;
        sopts.socketDir = socks.str();
        sopts.probeIntervalMs = 20;
        sopts.probeTimeoutMs = 100;
        sopts.restartBackoffMs = 10;
        fleet::Supervisor sup(sopts);
        sup.setSpawnFnForTest([](int, const std::string &) -> pid_t {
            const pid_t pid = ::fork();
            if (pid == 0) {
                ::execl("/bin/sleep", "sleep", "30",
                        static_cast<char *>(nullptr));
                ::_exit(127);
            }
            return pid;
        });
        ASSERT_TRUE(failpoint::armSpecList(
            "fleet.fork.fail=once,fleet.probe.timeout=once"));
        sup.start();
        const auto fired = [](const char *name) {
            for (const auto &info : failpoint::all())
                if (info.name == name)
                    return info.hits >= 1;
            return false;
        };
        EXPECT_TRUE(eventually(
            [&] { return fired("fleet.fork.fail"); }, 5000));
        EXPECT_TRUE(eventually(
            [&] { return fired("fleet.probe.timeout"); }, 5000));
        failpoint::disarmAll();
        sup.shutdown();
    }

    // The audit: every production failpoint in the binary has fired.
    const char *const expected[] = {
        "fleet.backend.connect", "fleet.backend.reset",
        "fleet.fork.fail",       "fleet.probe.timeout",
        "serve.accept.fail",     "serve.recv.fail",
        "serve.send.fail",       "trace_io.lock.eintr",
        "trace_io.lock.open",    "trace_io.read.corrupt",
        "trace_io.read.open",    "trace_io.write.enospc",
        "trace_io.write.open",   "trace_io.write.short",
        "trace_io.write.torn",
    };
    const auto all = failpoint::all();
    for (const char *name : expected) {
        bool found = false;
        for (const auto &info : all) {
            if (info.name != name)
                continue;
            found = true;
            EXPECT_GE(info.hits, 1u)
                << "failpoint '" << name << "' never fired";
        }
        EXPECT_TRUE(found)
            << "failpoint '" << name << "' not registered";
    }
}

} // namespace
} // namespace mgx
