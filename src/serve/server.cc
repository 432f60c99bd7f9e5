#include "server.h"

#include <algorithm>

#include "common/log.h"
#include "sim/report.h"
#include "sim/workload_registry.h"

namespace mgx::serve {
namespace {

/// How long to bypass the trace cache after a run reports it degraded
/// before probing it again (see Server::cacheDegraded()).
constexpr int kCacheRetryMs = 5000;

} // namespace

std::string
CellKey::key() const
{
    return workload + "|" + platform.name + "|" +
           protection::schemeName(scheme);
}

std::optional<sim::RunRecord>
ResultMemo::get(const std::string &key)
{
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it == entries_.end())
        return std::nullopt;
    order_.splice(order_.begin(), order_, it->second.order);
    return it->second.record;
}

void
ResultMemo::put(const std::string &key, const sim::RunRecord &record)
{
    if (capacity_ == 0)
        return;
    std::lock_guard<std::mutex> lock(mu_);
    auto it = entries_.find(key);
    if (it != entries_.end()) {
        // A follower re-inserting the leader's result: refresh only.
        order_.splice(order_.begin(), order_, it->second.order);
        return;
    }
    while (entries_.size() >= capacity_) {
        entries_.erase(order_.back());
        order_.pop_back();
    }
    order_.push_front(key);
    entries_.emplace(key, Entry{order_.begin(), record});
}

std::size_t
ResultMemo::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return entries_.size();
}

Server::Server(ServerOptions opts)
    : opts_(std::move(opts)), memo_(opts_.resultMemoCapacity),
      front_("mgx_serve", opts_,
             [this](const HttpRequest &req, int *status) {
                 return handleRequest(req, status);
             })
{
}

Server::~Server()
{
    shutdown();
}

void
Server::start()
{
    if (!runner_) {
        runner_ = [this](const CellKey &cell) {
            return runCellWithEngine(cell);
        };
    }

    front_.start();
}

void
Server::shutdown()
{
    front_.shutdown();
    // Cells whose requests hit the deadline keep running detached;
    // wait for them so no engine run is torn down mid-simulation.
    // Unbounded by design — see SingleFlight::drainBackground().
    flights_.drainBackground();
}

ServeMetrics::Snapshot
Server::metricsSnapshot() const
{
    return metrics_.snapshot(front_.metrics(), stopping());
}

void
Server::setCellRunnerForTest(CellRunner runner)
{
    runner_ = std::move(runner);
}

std::string
Server::handleRequest(const HttpRequest &req, int *status_out)
{
    if (req.method != "GET") {
        *status_out = 405;
        return jsonError("only GET is supported");
    }
    if (req.path == "/run")
        return handleRun(req, status_out);
    if (req.path == "/stats") {
        *status_out = 200;
        return statsJson(metricsSnapshot());
    }
    if (req.path == "/healthz") {
        // Liveness, not readiness: 200 whenever the daemon can answer
        // at all. Degraded states are reported, not treated as death.
        *status_out = 200;
        std::string body = "{\"ok\": true";
        body += std::string(", \"draining\": ") +
                (stopping() ? "true" : "false");
        body += std::string(", \"cacheDegraded\": ") +
                (cacheDegraded() ? "true" : "false");
        body += "}\n";
        return body;
    }
    if (req.path == "/shutdown") {
        *status_out = 200;
        requestShutdown();
        return "{\"shutdown\": true}\n";
    }
    *status_out = 404;
    return jsonError("no such endpoint: " + req.path);
}

bool
Server::validateWorkload(const std::string &name, std::string *error)
{
    {
        std::lock_guard<std::mutex> lock(validmu_);
        auto it = validation_.find(name);
        if (it != validation_.end()) {
            if (error)
                *error = it->second;
            return it->second.empty();
        }
    }
    // Construct outside the lock — kernels are cheap to build but not
    // free, and two threads validating one name is harmless.
    std::string message;
    auto kernel =
        sim::tryMakeKernel(name, sim::cloudPlatform(), &message);
    if (kernel)
        message.clear();
    {
        std::lock_guard<std::mutex> lock(validmu_);
        validation_.emplace(name, message);
    }
    if (error)
        *error = message;
    return message.empty();
}

std::string
Server::handleRun(const HttpRequest &req, int *status_out)
{
    std::vector<std::string> workloads;
    for (const auto &v : req.queryValues("workload"))
        for (auto &w : sim::splitCommas(v))
            workloads.push_back(w);
    if (workloads.empty()) {
        *status_out = 400;
        return jsonError("missing workload= parameter");
    }

    std::string error;
    for (const auto &w : workloads) {
        if (!validateWorkload(w, &error)) {
            *status_out = 400;
            return jsonError(error);
        }
    }

    std::vector<sim::Platform> platforms;
    if (auto p = req.queryValue("platforms")) {
        for (const auto &name : sim::splitCommas(*p)) {
            auto platform = sim::platformByName(name);
            if (!platform) {
                *status_out = 400;
                return jsonError("unknown platform '" + name +
                                 "' (expected cloud, edge, graph or "
                                 "genome)");
            }
            platforms.push_back(std::move(*platform));
        }
    }

    std::vector<protection::Scheme> schemes;
    if (auto s = req.queryValue("schemes")) {
        for (const auto &name : sim::splitCommas(*s)) {
            const auto scheme = sim::trySchemeByName(name);
            if (!scheme) {
                *status_out = 400;
                return jsonError("unknown scheme '" + name +
                                 "' (expected NP, MGX, MGX_VN, "
                                 "MGX_MAC or BP)");
            }
            schemes.push_back(*scheme);
        }
    }
    if (schemes.empty())
        schemes = sim::allSchemes();

    // One wall-clock budget for the whole request, not per cell: the
    // client asked one question, so the question has one deadline.
    const bool deadlined = opts_.requestDeadlineMs > 0;
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(opts_.requestDeadlineMs);

    // mgx_run's grid order (workloads x platforms x schemes, default
    // platform per workload when the axis is unset) so the assembled
    // ResultSet — and its JSON — matches the CLI byte for byte.
    sim::ResultSet rs;
    u64 hits = 0, misses = 0;
    for (const auto &w : workloads) {
        std::vector<sim::Platform> cell_platforms = platforms;
        if (cell_platforms.empty())
            cell_platforms.push_back(sim::defaultPlatform(w));
        for (const auto &platform : cell_platforms) {
            for (protection::Scheme scheme : schemes) {
                CellKey cell{w, platform, scheme};
                // Warm repeat: the memo'd record is bitwise what a
                // re-run would produce, so skip the engine entirely.
                if (auto memo = memo_.get(cell.key())) {
                    metrics_.resultMemoHits.fetch_add(
                        1, std::memory_order_relaxed);
                    rs.add(std::move(*memo));
                    continue;
                }
                // The cell (not &: runFor's leader lambda outlives
                // this frame when the deadline expires first).
                const auto body = [this, cell]() -> CellOutcome {
                    metrics_.cellsRun.fetch_add(
                        1, std::memory_order_relaxed);
                    return runner_(cell);
                };
                SingleFlight<CellOutcome>::Outcome outcome;
                if (deadlined) {
                    const auto left =
                        std::chrono::duration_cast<
                            std::chrono::milliseconds>(
                            deadline -
                            std::chrono::steady_clock::now());
                    outcome = flights_.runFor(
                        cell.key(), body,
                        std::max(left,
                                 std::chrono::milliseconds(0)));
                    if (!outcome.value) {
                        // Deadline hit. The cell finishes on its
                        // background thread; a retry joins it
                        // instead of paying for a second run.
                        metrics_.deadlineExceeded.fetch_add(
                            1, std::memory_order_relaxed);
                        *status_out = 503;
                        return jsonError(
                            "deadline exceeded after " +
                            std::to_string(
                                opts_.requestDeadlineMs) +
                            " ms (cell " + cell.key() +
                            " still running; retry to join it)");
                    }
                } else {
                    outcome = flights_.run(cell.key(), body);
                }
                if (!outcome.leader)
                    metrics_.dedupCollapsed.fetch_add(
                        1, std::memory_order_relaxed);
                rs.add(outcome.value->record);
                memo_.put(cell.key(), outcome.value->record);
                hits += outcome.value->cacheHits;
                misses += outcome.value->cacheMisses;
            }
        }
    }
    rs.setTraceCacheStats(hits, misses);
    metrics_.traceCacheHits.fetch_add(hits,
                                      std::memory_order_relaxed);
    metrics_.traceCacheMisses.fetch_add(misses,
                                        std::memory_order_relaxed);

    *status_out = 200;
    return sim::toJson(rs);
}

bool
Server::cacheUsableNow()
{
    if (opts_.traceCacheDir.empty())
        return false;
    if (!cacheDegraded_.load(std::memory_order_relaxed))
        return true;
    // Degraded: bypass the cache until the re-probe window opens,
    // then let exactly this cell probe it (the window is pushed
    // forward so concurrent cells keep bypassing meanwhile).
    std::lock_guard<std::mutex> lock(cachemu_);
    const auto now = std::chrono::steady_clock::now();
    if (now < cacheRetryAt_)
        return false;
    cacheRetryAt_ =
        now + std::chrono::milliseconds(kCacheRetryMs);
    return true;
}

void
Server::noteCacheHealth(bool degraded)
{
    if (degraded) {
        {
            std::lock_guard<std::mutex> lock(cachemu_);
            cacheRetryAt_ =
                std::chrono::steady_clock::now() +
                std::chrono::milliseconds(kCacheRetryMs);
        }
        if (!cacheDegraded_.exchange(true,
                                     std::memory_order_relaxed))
            MGX_WARN(
                "mgx_serve: trace cache degraded ('%s'); serving "
                "uncached, re-probing every %d ms",
                opts_.traceCacheDir.c_str(), kCacheRetryMs);
    } else if (cacheDegraded_.exchange(false,
                                       std::memory_order_relaxed)) {
        MGX_WARN("mgx_serve: trace cache recovered ('%s')",
                 opts_.traceCacheDir.c_str());
    }
    metrics_.cacheDegraded.store(
        cacheDegraded_.load(std::memory_order_relaxed),
        std::memory_order_relaxed);
}

CellOutcome
Server::runCellWithEngine(const CellKey &cell)
{
    // One cell per run, on one thread; the body is byte-identical to
    // `mgx_run --json` for the same cell.
    sim::Experiment experiment;
    experiment.workload(cell.workload)
        .platform(cell.platform)
        .schemes({cell.scheme})
        .threads(1);
    const bool with_cache = cacheUsableNow();
    if (with_cache) {
        experiment.traceCacheDir(opts_.traceCacheDir);
        if (opts_.traceCacheMaxBytes != 0)
            experiment.traceCacheMaxBytes(opts_.traceCacheMaxBytes);
    }
    sim::ResultSet rs = experiment.run();
    if (rs.records().size() != 1)
        fatal("mgx_serve: single-cell experiment produced %zu records",
              rs.records().size());
    // Only a run that actually touched the cache votes on its
    // health; bypassing cells would otherwise "recover" it blindly.
    if (with_cache)
        noteCacheHealth(rs.cacheDegraded());
    return {rs.records()[0], rs.traceCacheHits(), rs.traceCacheMisses()};
}

} // namespace mgx::serve
