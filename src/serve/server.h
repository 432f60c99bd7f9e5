/**
 * @file
 * The experiment service: a long-running daemon that accepts
 * workload x platform x scheme requests over a local socket (unix
 * path or TCP loopback), runs them through sim::Experiment, and
 * answers with the same `mgx-resultset-v1` JSON that `mgx_run --json`
 * writes — byte-identical for the same grid, so clients can switch
 * between the CLI and the service without re-baselining artifacts.
 *
 * Endpoints (HTTP/1.1; one request per connection by default, but a
 * request carrying `Connection: keep-alive` keeps the connection open
 * for the next one, bounded by ServerOptions::keepAliveIdleMs):
 *
 *   GET /run?workload=W[&workload=W2...][&platforms=cloud,edge]
 *           [&schemes=NP,MGX,...]
 *       Run the grid; 200 with the resultset JSON, 400 on unknown
 *       workloads / platforms / schemes (the registry's own message).
 *   GET /stats
 *       Operational counters as `mgx-servestats-v1` JSON.
 *   GET /healthz
 *       Liveness: 200 with {"ok": true, ...} whenever the daemon can
 *       answer at all — draining and cache-degraded states are
 *       reported in the body, not as failures.
 *   GET /shutdown
 *       Acknowledge, then begin graceful shutdown.
 *
 * Concurrency model — three layers:
 *
 *   admission   The shared HttpFrontEnd (front_end.h): a bounded
 *               connection queue between one acceptor thread and N
 *               worker threads. When the queue is full the acceptor
 *               answers 429 immediately instead of letting latency
 *               grow unboundedly (explicit back-pressure; clients
 *               retry or go run mgx_run).
 *   memo        A bounded in-memory LRU of finished cell results
 *               keyed like the singleflight: a warm repeat skips the
 *               engine entirely (metrics.resultMemoHits). Safe
 *               because cell results are deterministic — the memo'd
 *               record is bitwise what a re-run would produce.
 *   coalescing  Each grid cell runs under a SingleFlight keyed by
 *               workload|platform|scheme: concurrent requests that
 *               resolve to the same cell cost one engine run, the
 *               rest are followers (metrics.dedupCollapsed).
 *   cache       Cells share the on-disk trace cache; the per-key
 *               flock (sim::TraceCacheLock) extends "generate once"
 *               across processes sharing the directory.
 *
 * Each cell runs serially on one thread, so response bodies are
 * byte-identical to `mgx_run --json` for the same grid.
 *
 * Graceful shutdown: stop accepting, drain the queued and in-flight
 * requests, join every thread, then wait for cells orphaned by a
 * request deadline. Connections arriving while draining get 503.
 */

#ifndef MGX_SERVE_SERVER_H
#define MGX_SERVE_SERVER_H

#include <atomic>
#include <chrono>
#include <functional>
#include <list>
#include <map>
#include <mutex>
#include <optional>
#include <string>

#include "front_end.h"
#include "metrics.h"
#include "singleflight.h"
#include "sim/experiment.h"

namespace mgx::serve {

/** The front door's fields (listen, workers, ...) plus the cells'. */
struct ServerOptions : FrontEndOptions
{
    std::string traceCacheDir;        ///< "" = no trace cache
    u64 traceCacheMaxBytes = 0;       ///< LRU cap (needs traceCacheDir)
    /// Wall-clock budget for one /run request, 0 = none. On expiry
    /// the request answers 503 immediately; the cell that was running
    /// finishes on a background thread (engine runs cannot be
    /// cancelled) so a retry joins it instead of duplicating work.
    int requestDeadlineMs = 0;
    /// Finished-cell results memoized in memory (LRU, keyed like the
    /// singleflight); 0 disables the memo.
    std::size_t resultMemoCapacity = 64;
};

/** One grid cell: the unit of deduplication. */
struct CellKey
{
    std::string workload;
    sim::Platform platform;
    protection::Scheme scheme = protection::Scheme::NP;

    /** The singleflight key. */
    std::string key() const;
};

/** What one cell's run produced. */
struct CellOutcome
{
    sim::RunRecord record;
    u64 cacheHits = 0;
    u64 cacheMisses = 0;
};

/**
 * How a cell is simulated; injectable so tests can substitute a
 * deterministic (or deliberately blocking) runner.
 */
using CellRunner = std::function<CellOutcome(const CellKey &)>;

/**
 * Bounded LRU memo of finished cell records, shared by every worker.
 * Hits return a copy; the stored record is never mutated, so a memo'd
 * answer is bitwise the answer a fresh engine run would give (cell
 * results are deterministic by construction).
 */
class ResultMemo
{
  public:
    explicit ResultMemo(std::size_t capacity) : capacity_(capacity) {}

    /** The memo'd record for @p key, refreshing its recency. */
    std::optional<sim::RunRecord> get(const std::string &key);

    /** Memoize @p record under @p key, evicting the LRU entry at
     *  capacity. Idempotent for concurrent followers of one flight. */
    void put(const std::string &key, const sim::RunRecord &record);

    std::size_t size() const;

  private:
    struct Entry
    {
        std::list<std::string>::iterator order;
        sim::RunRecord record;
    };

    mutable std::mutex mu_;
    std::size_t capacity_;
    std::list<std::string> order_; ///< front = most recently used
    std::map<std::string, Entry> entries_;
};

class Server
{
  public:
    explicit Server(ServerOptions opts);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Bind, listen, and spawn the acceptor + workers. Fatal on bind
     *  failure (the address is caller-chosen configuration). */
    void start();

    /** The bound TCP port (after start(); meaningless for unix). */
    u16 port() const { return front_.port(); }

    /** Human-readable bound address, e.g. "unix:/tmp/x.sock". */
    std::string addressDescription() const
    {
        return front_.addressDescription();
    }

    /** Stop admission and begin draining; returns immediately. */
    void requestShutdown() { front_.requestShutdown(); }

    /** requestShutdown() + drain queued and in-flight + join threads
     *  + wait for deadline-orphaned cells. Idempotent; also run by
     *  the destructor. */
    void shutdown();

    bool stopping() const { return front_.stopping(); }

    /** True while the trace cache is being bypassed after a fault. */
    bool cacheDegraded() const
    {
        return cacheDegraded_.load(std::memory_order_relaxed);
    }

    ServeMetrics::Snapshot metricsSnapshot() const;

    /** Replace the engine-backed cell runner (tests only). */
    void setCellRunnerForTest(CellRunner runner);

    /** The per-cell flight table (tests observe waiters()). */
    SingleFlight<CellOutcome> &cellFlights() { return flights_; }

    /** The finished-cell memo (tests observe size()). */
    ResultMemo &resultMemo() { return memo_; }

  private:
    std::string handleRequest(const HttpRequest &req, int *status_out);
    std::string handleRun(const HttpRequest &req, int *status_out);
    CellOutcome runCellWithEngine(const CellKey &cell);
    bool validateWorkload(const std::string &name, std::string *error);
    /// Fold one run's cache health into the degraded state: a
    /// degraded run opens (or extends) the bypass window with one
    /// warning log; a healthy run while degraded logs recovery.
    void noteCacheHealth(bool degraded);
    /// Whether runCellWithEngine should pass the cache dir right now
    /// (false while degraded and the re-probe window has not opened).
    bool cacheUsableNow();

    ServerOptions opts_;
    ServeMetrics metrics_;
    SingleFlight<CellOutcome> flights_;
    ResultMemo memo_; ///< capacity from opts_ (ctor init order)
    /// Engine-backed by default; replaced by setCellRunnerForTest.
    CellRunner runner_;

    std::mutex validmu_;
    /// workload name -> registry error ("" = known-good); memoized so
    /// repeated requests skip kernel construction during validation.
    std::map<std::string, std::string> validation_;

    std::atomic<bool> cacheDegraded_{false};
    std::mutex cachemu_;
    /// When degraded: the next moment a cell may probe the cache
    /// again (guarded by cachemu_).
    std::chrono::steady_clock::time_point cacheRetryAt_{};

    /// Last member: constructed after everything handleRequest uses,
    /// and its threads are joined (by shutdown()) before any of it
    /// is destroyed.
    HttpFrontEnd front_;
};

} // namespace mgx::serve

#endif // MGX_SERVE_SERVER_H
