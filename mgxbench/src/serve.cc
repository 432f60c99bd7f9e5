/**
 * @file
 * The `serve` workload: seeded /run traffic through a real mgx_fleet
 * (2 mgx_serve workers sharing a fresh trace-cache directory), sent
 * from this one process over at most 4 keep-alive connections.
 *
 * Measured run: fleet set-up (3 starts, median), then back-to-back
 * closed-loop batches of the seeded mix (mix.h) with the trace cache
 * cleared between batches; wall_s is the median time of one pass over
 * the pool.
 *
 * Traced run: the same batches with and without request spans (the
 * tracing overhead), an open-loop ladder of fixed offered rates —
 * each request timed from the moment it was due, so a stall counts
 * against every request queued behind it — direct-to-worker probes
 * for the proxy hop, /stats counters and trace-file write/read
 * rates. The engine layers (core, sim, dram, protection) are measured
 * on the compute workloads; here they read 0.
 */
#include <algorithm>
#include <atomic>
#include <csignal>
#include <filesystem>
#include <fstream>
#include <stdexcept>
#include <thread>

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include "bench.h"
#include "core/phase_stream.h"
#include "json_lite.h"
#include "mix.h"
#include "serve/client.h"
#include "sim/report.h"
#include "sim/trace_io.h"
#include "sim/workload_registry.h"

extern char **environ;

namespace mgxbench {
namespace {

namespace fs = std::filesystem;
using mgx::u64;
using mgx::serve::SocketAddress;

constexpr int kWorkers = 2;
constexpr int kConnections = 4;
constexpr int kSetupRepeats = 3;
constexpr int kMinPasses = 3;
constexpr std::size_t kBatchRequests = 400;
constexpr int kTimeoutMs = 20000;

/** Open-loop ladder: offered rate (1/s) and step length (s). The
 *  nominal step is where serve_p50_ms / serve_p95_ms are read; every
 *  step offers at least 200 requests so its p95 has 10 beyond it. */
struct Step
{
    double rate;
    double seconds;
};
constexpr Step kLadder[] = {{100, 2.0}, {200, 1.5}, {400, 1.0}, {800, 0.5}};
constexpr double kNominalRate = 200;
constexpr double kLatencyLimitMs = 50.0;

SocketAddress
unixAddress(const std::string &path)
{
    SocketAddress a;
    a.unixPath = path;
    return a;
}

bool
get(const SocketAddress &addr, const std::string &target,
    mgx::serve::HttpResponse *resp)
{
    std::string error;
    return mgx::serve::httpGet(addr, target, resp, &error, kTimeoutMs) &&
           resp->status == 200;
}

std::optional<json::Value>
getJson(const SocketAddress &addr, const std::string &target)
{
    mgx::serve::HttpResponse resp;
    if (!get(addr, target, &resp))
        return std::nullopt;
    return json::parse(resp.body);
}

/** VmHWM of @p pid in MiB (0 if unreadable). */
double
peakRssMb(int pid)
{
    std::ifstream in("/proc/" + std::to_string(pid) + "/status");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    return 0.0;
}

/**
 * One mgx_fleet process and its workers. The destructor drains it
 * through /shutdown and, failing that, kills it (its workers follow),
 * and always reaps the child.
 */
class FleetProcess
{
  public:
    FleetProcess(const Options &opts, const std::string &dir)
        : dir_(dir), proxy_(unixAddress(dir + "/p.sock"))
    {
        fs::create_directories(dir);
        std::vector<std::string> args = {
            opts.fleetBinary,  "--socket",       dir + "/p.sock",
            "--workers",       std::to_string(kWorkers),
            "--trace-cache",   dir + "/cache",   "--serve-binary",
            opts.serveBinary,  "--quiet"};
        std::vector<char *> argv;
        for (auto &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);
        if (posix_spawn(&pid_, argv[0], nullptr, nullptr, argv.data(),
                        environ) != 0)
            throw std::runtime_error("cannot start " + args[0]);
    }

    ~FleetProcess() { stop(); }
    FleetProcess(const FleetProcess &) = delete;
    FleetProcess &operator=(const FleetProcess &) = delete;

    /** Wait until every worker is in rotation; false on timeout. */
    bool
    waitHealthy()
    {
        const auto deadline = Clock::now() + std::chrono::seconds(30);
        while (Clock::now() < deadline) {
            if (auto h = getJson(proxy_, "/healthz")) {
                const json::Value *n = h->get("inRotation");
                if (n && n->u64() == kWorkers)
                    return true;
            }
            if (exited())
                return false;
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
        return false;
    }

    const SocketAddress &proxy() const { return proxy_; }

    SocketAddress
    worker(int i) const
    {
        return unixAddress(dir_ + "/w" + std::to_string(i) + ".sock");
    }

    std::string cacheDir() const { return dir_ + "/cache"; }

    /** The fleet's /stats document. */
    std::optional<json::Value> stats() const
    {
        return getJson(proxy_, "/stats");
    }

    /** Σ peak RSS of the proxy/supervisor and every worker, MiB. */
    double
    peakRssMb() const
    {
        double sum = mgxbench::peakRssMb(pid_);
        if (auto s = stats())
            if (const json::Value *ws = s->get("workers"))
                for (const auto &[name, w] : ws->fields)
                    if (const json::Value *p = w.get("pid"))
                        sum += mgxbench::peakRssMb(static_cast<int>(p->u64()));
        return sum;
    }

    void
    stop()
    {
        if (pid_ <= 0)
            return;
        mgx::serve::HttpResponse resp;
        get(proxy_, "/shutdown", &resp);
        if (!waitExit(std::chrono::seconds(15))) {
            // Workers die with the supervisor (PR_SET_PDEATHSIG).
            ::kill(pid_, SIGKILL);
            waitExit(std::chrono::seconds(5));
        }
        pid_ = -1;
    }

  private:
    bool
    exited()
    {
        int status = 0;
        return ::waitpid(pid_, &status, WNOHANG) == pid_;
    }

    bool
    waitExit(std::chrono::seconds limit)
    {
        const auto deadline = Clock::now() + limit;
        while (Clock::now() < deadline) {
            int status = 0;
            const pid_t r = ::waitpid(pid_, &status, WNOHANG);
            if (r == pid_ || r < 0)
                return true;
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        }
        return false;
    }

    std::string dir_;
    SocketAddress proxy_;
    pid_t pid_ = -1;
};

/** Remove every trace (and lock/temporary) file: the next First
 *  request of each workload misses again. No request is in flight. */
void
clearCache(const std::string &dir)
{
    std::error_code ec;
    for (const auto &e : fs::directory_iterator(dir, ec))
        fs::remove(e.path(), ec);
}

/** One request's outcome, times in seconds from the step's start. */
struct Sample
{
    RequestKind kind = RequestKind::Hot;
    double due = 0.0, sent = 0.0, done = 0.0;
    bool ok = false;
    std::string body;

    double latencyMs() const { return (done - due) * 1e3; }
    double lateMs() const { return (sent - due) * 1e3; }
};

/**
 * Send @p requests to @p addr over kConnections keep-alive
 * connections. rate > 0: open loop, request i due at i / rate;
 * rate == 0: closed loop, each connection sends its next request as
 * soon as the previous one returns (due = sent).
 */
std::vector<Sample>
drive(const SocketAddress &addr, const std::vector<Request> &requests,
      double rate, int connections = kConnections)
{
    std::vector<Sample> samples(requests.size());
    std::atomic<std::size_t> next{0};
    const auto t0 = Clock::now();
    {
        std::vector<std::jthread> pool;
        for (int c = 0; c < connections; ++c)
            pool.emplace_back([&] {
                mgx::serve::ClientConnection conn(addr);
                for (std::size_t i = next++; i < requests.size(); i = next++) {
                    Sample &s = samples[i];
                    s.kind = requests[i].kind;
                    if (rate > 0) {
                        s.due = static_cast<double>(i) / rate;
                        std::this_thread::sleep_until(
                            t0 + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(s.due)));
                    }
                    s.sent = seconds(t0, Clock::now());
                    if (rate <= 0)
                        s.due = s.sent;
                    mgx::serve::HttpResponse resp;
                    std::string error;
                    s.ok = conn.get(runTarget(requests[i]), &resp, &error,
                                    kTimeoutMs) &&
                           resp.status == 200;
                    s.done = seconds(t0, Clock::now());
                    s.body = std::move(resp.body);
                }
            });
    }
    return samples;
}

/** True when @p body is a one-cell resultset matching the digest. */
bool
bodyMatches(const std::string &body, const Digest &digest)
{
    const auto doc = json::parse(body);
    const json::Value *records = doc ? doc->get("records") : nullptr;
    if (!records || records->items.size() != 1)
        return false;
    const json::Value &r = records->items[0];
    const auto text = [&](const char *k) {
        const json::Value *v = r.get(k);
        return v ? v->text : std::string();
    };
    const auto num = [](const json::Value *obj, const char *k) -> u64 {
        const json::Value *v = obj ? obj->get(k) : nullptr;
        return v ? v->u64() : ~u64{0};
    };
    const json::Value *traffic = r.get("traffic");
    const json::Value *meta = r.get("metaCache");
    const CellStats stats = {num(&r, "cycles"),        num(traffic, "data"),
                             num(traffic, "expand"),  num(traffic, "mac"),
                             num(traffic, "vn"),      num(traffic, "tree"),
                             num(&r, "dramAccesses"), num(meta, "hits"),
                             num(meta, "misses"),     num(meta, "writebacks")};
    return digest.matches(
        cellKey(text("workload"), text("platform"), text("scheme")), stats);
}

/** Count and return the failed samples: non-200 or digest drift. */
u64
verify(const std::vector<Sample> &samples, const Digest &digest)
{
    u64 failed = 0;
    for (const Sample &s : samples)
        if (!s.ok || !bodyMatches(s.body, digest))
            ++failed;
    return failed;
}

std::vector<double>
latenciesMs(const std::vector<Sample> &samples)
{
    std::vector<double> out;
    for (const Sample &s : samples)
        out.push_back(s.latencyMs());
    return out;
}

/** Request spans: request (due..done) > loadgen.wait, http. */
void
recordSpans(SpanRecorder &spans, const std::vector<Sample> &samples,
            Clock::time_point t0, u64 first_id)
{
    const auto at = [t0](double s) {
        return t0 + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(s));
    };
    for (std::size_t i = 0; i < samples.size(); ++i) {
        const Sample &s = samples[i];
        const u64 id = first_id + i;
        const long r = spans.add(std::string("request.") + kindName(s.kind),
                                 at(s.due), at(s.done), -1, id);
        spans.add("loadgen.wait", at(s.due), at(s.sent), r, id);
        spans.add("http", at(s.sent), at(s.done), r, id);
    }
}

/** Σ over workers of a numeric /stats field. */
u64
workerSum(const json::Value &stats, const char *field)
{
    const json::Value *ws = stats.get("workerStats");
    return ws ? json::sumField(*ws, field) : 0;
}

/** Cells each worker answered (engine, memo or follower), in
 *  worker-name order; health probes and /stats do not count. */
std::vector<u64>
workerCells(const json::Value &stats)
{
    std::vector<u64> out;
    if (const json::Value *ws = stats.get("workerStats"))
        for (const auto &[name, w] : ws->fields)
            out.push_back(json::sumField(w, "cellsRun") +
                          json::sumField(w, "resultMemoHits") +
                          json::sumField(w, "dedupCollapsed"));
    return out;
}

/** Write and read back pool traces in-process: MB/s of each side
 *  (the read includes CRC verification). */
std::pair<double, double>
traceIoRates(const std::string &dir, u64 seed)
{
    fs::create_directories(dir);
    double bytes = 0.0, write_s = 0.0, read_s = 0.0;
    const auto batch = Mix(seed).next(kBatchRequests);
    int files = 0;
    for (const Request &r : batch) {
        if (r.kind != RequestKind::First || files == 8)
            continue;
        const std::string path =
            dir + "/t" + std::to_string(files++) + ".trace";
        const mgx::core::Trace trace =
            mgx::sim::makeKernel(r.workload)->generate();
        mgx::core::TracePhaseSource source(trace);
        const auto t0 = Clock::now();
        {
            mgx::sim::TraceFileWriteSink sink(path);
            source.drainTo(sink);
            sink.finish();
        }
        const auto t1 = Clock::now();
        struct Null final : mgx::core::PhaseSink
        {
            void consume(const mgx::core::Phase &) override {}
        } null;
        mgx::sim::FilePhaseSource(path, /*require_checksum=*/true)
            .drainTo(null);
        read_s += seconds(t1, Clock::now());
        write_s += seconds(t0, t1);
        bytes += static_cast<double>(fs::file_size(path));
    }
    return {bytes / 1e6 / write_s, bytes / 1e6 / read_s};
}

} // namespace

Outcome
runServe(const Options &opts, const Digest &digest, SpanRecorder *spans)
{
    Outcome out;
    const auto account = [&](const std::vector<Sample> &samples) {
        out.attempted += samples.size();
        out.failed += verify(samples, digest);
    };

    // Set-up: fleet start -> every worker healthy, three fresh fleets.
    std::vector<double> setups;
    std::unique_ptr<FleetProcess> fleet;
    for (int i = 0; i < (spans ? 1 : kSetupRepeats); ++i) {
        if (fleet)
            fleet->stop();
        const auto t0 = Clock::now();
        fleet = std::make_unique<FleetProcess>(
            opts, opts.workDir + "/f" + std::to_string(i));
        if (!fleet->waitHealthy())
            throw std::runtime_error("the fleet did not become healthy");
        setups.push_back(seconds(t0, Clock::now()));
    }

    // Prime the hot cells (their first run is an engine run).
    account(drive(fleet->proxy(), hotCells(), 0));

    Mix mix(opts.seed);
    u64 batch = 0;
    const auto runBatch = [&](double rate, std::size_t n,
                              SpanRecorder *rec) {
        clearCache(fleet->cacheDir());
        const auto requests = mix.next(n);
        ++batch;
        const auto t0 = Clock::now();
        auto samples = drive(fleet->proxy(), requests, rate);
        const double wall = seconds(t0, Clock::now());
        if (rec)
            recordSpans(*rec, samples, t0, batch * 100000);
        account(samples);
        return std::make_pair(wall, std::move(samples));
    };

    if (!spans) {
        // One pass = enough batches for the First requests to walk the
        // whole pool permutation once: the same work for every seed,
        // only its order and grouping differ.
        const auto first_batch = Mix(opts.seed).next(kBatchRequests);
        const auto firsts = static_cast<std::size_t>(std::count_if(
            first_batch.begin(), first_batch.end(), [](const Request &r) {
                return r.kind == RequestKind::First;
            }));
        const std::size_t batches_per_pass = poolWorkloads().size() / firsts;
        std::vector<double> walls;
        const auto start = Clock::now();
        while (static_cast<int>(walls.size()) < kMinPasses ||
               seconds(start, Clock::now()) + median(walls) <= opts.seconds) {
            double pass = 0.0;
            for (std::size_t b = 0; b < batches_per_pass; ++b)
                pass += runBatch(0, kBatchRequests, nullptr).first;
            walls.push_back(pass);
        }
        out.set("setup_s", median(setups), "s");
        out.set("wall_s", median(walls), "s");
        out.samples = {{"setup_s", setups.size()}, {"wall_s", walls.size()}};
        out.set("peak_rss_mb", fleet->peakRssMb(), "MB");
        fleet->stop();
        return out;
    }

    // Tracing overhead: alternate untraced and traced batches.
    std::vector<double> plain, traced;
    for (int i = 0; i < 3; ++i) {
        plain.push_back(runBatch(0, kBatchRequests, nullptr).first);
        traced.push_back(runBatch(0, kBatchRequests, spans).first);
    }
    out.set("trace.overhead_frac", median(traced) / median(plain) - 1.0,
            "ratio");

    // Open-loop ladder through the proxy.
    const auto before = fleet->stats();
    double max_rps = 0.0;
    for (const Step &step : kLadder) {
        const auto n = static_cast<std::size_t>(step.rate * step.seconds);
        const auto [wall, samples] = runBatch(step.rate, n, spans);
        const auto p95 = tailPercentile(latenciesMs(samples), 95);
        // No growing backlog: the last tenth was sent within the limit.
        std::vector<double> tail_late;
        for (std::size_t i = samples.size() * 9 / 10; i < samples.size(); ++i)
            tail_late.push_back(samples[i].lateMs());
        const bool meets = p95 && *p95 <= kLatencyLimitMs &&
                           median(tail_late) <= kLatencyLimitMs;
        if (meets)
            max_rps = std::max(max_rps, step.rate);
        if (step.rate == kNominalRate) {
            std::vector<double> late;
            for (const Sample &s : samples)
                late.push_back(s.lateMs());
            out.set("serve_p50_ms", median(latenciesMs(samples)), "ms");
            out.set("serve_p95_ms", p95.value_or(0.0), "ms");
            out.set("loadgen.late_p95_ms",
                    tailPercentile(late, 95).value_or(0.0), "ms");
            out.set("loadgen.samples", static_cast<double>(samples.size()),
                    "count");
        }
    }
    out.set("serve_max_rps", max_rps, "1/s");
    const auto after = fleet->stats();

    // Proxy hop: memo hits direct to a worker vs through the proxy,
    // one connection each, interleaved. Hot cells are primed on both
    // workers so a direct request is a memo hit wherever it lands.
    const std::vector<Request> hot = hotCells();
    for (int w = 0; w < kWorkers; ++w)
        account(drive(fleet->worker(w), hot, 0, 1));
    std::vector<double> direct, proxied;
    for (int round = 0; round < 25; ++round) {
        for (int w = 0; w < kWorkers; ++w) {
            auto d = drive(fleet->worker(w), hot, 0, 1);
            account(d);
            for (double l : latenciesMs(d))
                direct.push_back(l);
        }
        auto p = drive(fleet->proxy(), hot, 0, 1);
        account(p);
        for (double l : latenciesMs(p))
            proxied.push_back(l);
    }
    out.set("serve.direct_p50_ms", median(direct), "ms");
    out.set("fleet.hop_ms", median(proxied) - median(direct), "ms");

    // Engine path: memo misses (First requests) sent direct.
    clearCache(fleet->cacheDir());
    std::vector<Request> misses;
    for (const Request &r : mix.next(kBatchRequests))
        if (r.kind == RequestKind::First)
            misses.push_back(r);
    auto engine = drive(fleet->worker(0), misses, 0, 1);
    account(engine);
    out.set("serve.engine_p50_ms", median(latenciesMs(engine)), "ms");

    if (before && after) {
        const auto delta = [&](const char *f) {
            return static_cast<double>(workerSum(*after, f) -
                                       workerSum(*before, f));
        };
        const double memo = delta("resultMemoHits");
        const double run = delta("cellsRun");
        const double dedup = delta("dedupCollapsed");
        out.set("serve.memo_hit_ratio",
                memo + run + dedup == 0 ? 0.0 : memo / (memo + run + dedup),
                "ratio");
        out.set("serve.dedup_collapsed", dedup, "count");
        const auto proxyDelta = [&](const char *f) {
            const json::Value *pa = after->get("proxy");
            const json::Value *pb = before->get("proxy");
            return static_cast<double>((pa ? json::sumField(*pa, f) : 0) -
                                       (pb ? json::sumField(*pb, f) : 0));
        };
        out.set("serve.rejected",
                delta("rejected") + delta("deadlineExceeded") +
                    proxyDelta("rejected"),
                "count");
        out.set("fleet.failovers", proxyDelta("failovers"), "count");
        // servestats nests these as traceCache.{hits,misses}.
        out.set("trace_io.cache_hits", delta("hits"), "count");
        out.set("trace_io.cache_misses", delta("misses"), "count");
        const auto sa = workerCells(*after);
        const auto sb = workerCells(*before);
        double total = 0.0, most = 0.0;
        for (std::size_t i = 0; i < sa.size() && i < sb.size(); ++i) {
            const double d = static_cast<double>(sa[i] - sb[i]);
            total += d;
            most = std::max(most, d);
        }
        out.set("fleet.route_imbalance",
                total == 0 ? 0.0 : most / (total / sa.size()), "ratio");
    } else {
        ++out.failed; // /stats must answer
    }
    fleet->stop();

    const auto [write_mbps, read_mbps] =
        traceIoRates(opts.workDir + "/traceio", opts.seed);
    out.set("trace_io.write_mb_per_s", write_mbps, "MB/s");
    out.set("trace_io.read_mb_per_s", read_mbps, "MB/s");

    return out;
}

} // namespace mgxbench
