/**
 * @file
 * The fleet front end: one listening socket (unix or TCP loopback)
 * that routes /run requests across the worker fleet by consistent
 * hash of the request's cell set — the same cells always land on the
 * same worker, so that worker's SingleFlight coalesces concurrent
 * identical requests and its warm caches stay warm.
 *
 * Robustness model: the proxy buffers a backend's entire response
 * before relaying one byte to the client, so a worker SIGKILLed
 * mid-response costs a failover, never a truncated client read. On
 * any transport failure (connect refused, reset, deadline) it walks
 * the hash ring's failover order — in-rotation workers first, then
 * everyone (probe state lags reality) — across several passes with a
 * short pause, before finally answering 503. There is no hedging: a
 * cell is deterministic and only its owner holds its memo and
 * singleflight, so a second attempt elsewhere would only re-run the
 * whole simulation cold.
 *
 * Endpoints: /run (routed), /stats (proxy counters + per-worker
 * supervision state + live worker stats), /healthz (ok while at
 * least one worker is in rotation), /shutdown (via callback).
 *
 * The listening socket, admission queue, worker threads and
 * keep-alive loop are the same serve::HttpFrontEnd that mgx_serve
 * uses; this class holds only routing, failover and the backend
 * pool.
 */

#ifndef MGX_FLEET_PROXY_H
#define MGX_FLEET_PROXY_H

#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "backend.h"
#include "hash_ring.h"
#include "serve/client.h"
#include "serve/front_end.h"

namespace mgx::fleet {

/** The front door's fields (listen, workers, ...) plus routing's. */
struct ProxyOptions : serve::FrontEndOptions
{
    ProxyOptions()
    {
        workers = 4;
        admissionCapacity = 32;
    }

    int failoverPauseMs = 100; ///< pause between sweeps over the ring
};

/** Routing counters mirrored into /stats (mgx-fleetstats-v1) next to
 *  the front door's (serve::FrontDoorMetrics). */
struct ProxyMetrics
{
    std::atomic<u64> routed{0};       ///< /run requests routed
    std::atomic<u64> failovers{0};    ///< attempts beyond the first
    std::atomic<u64> backendErrors{0}; ///< failed backend attempts
    std::atomic<u64> partialResponses{0}; ///< backend died mid-body
    std::atomic<u64> noBackend{0};    ///< 503: every attempt failed
    std::atomic<u64> backendReused{0}; ///< pooled backend conn reused
};

class Proxy
{
  public:
    Proxy(ProxyOptions opts, BackendDirectory *directory);
    ~Proxy();

    Proxy(const Proxy &) = delete;
    Proxy &operator=(const Proxy &) = delete;

    void start();
    void requestShutdown() { front_.requestShutdown(); }
    void shutdown();
    bool stopping() const { return front_.stopping(); }

    u16 port() const { return front_.port(); }
    std::string addressDescription() const
    {
        return front_.addressDescription();
    }

    /** Invoked when a client GETs /shutdown (mgx_fleet hooks the
     *  whole-fleet drain here). */
    void setShutdownHook(std::function<void()> hook)
    {
        shutdownHook_ = std::move(hook);
    }

    const ProxyMetrics &metrics() const { return metrics_; }
    const serve::FrontDoorMetrics &frontDoorMetrics() const
    {
        return front_.metrics();
    }
    std::string statsJson() const;

    /** Routing key for a /run target (exposed for tests): the
     *  request's cell-defining query values, normalized. */
    static std::string routingKey(const serve::HttpRequest &req);

  private:
    struct BackendAttempt
    {
        bool ok = false;
        serve::HttpResponse response;
        std::string error;
        serve::GetFailure failure = serve::GetFailure::None;
    };

    std::string handleRequest(const serve::HttpRequest &req,
                              int *status_out);
    std::string handleRun(const serve::HttpRequest &req,
                          int *status_out);

    /** One buffered request to one backend over a pooled keep-alive
     *  connection (with the fleet.backend.* failpoints applied). */
    BackendAttempt fetchFromBackend(const std::string &name,
                                    const std::string &target);

    /** Failover order for @p key: ring order, in-rotation first. */
    std::vector<std::string> candidateOrder(
        const std::string &key) const;

    std::unique_ptr<serve::ClientConnection> checkoutConnection(
        const std::string &name);
    void checkinConnection(const std::string &name,
                           std::unique_ptr<serve::ClientConnection>);

    ProxyOptions opts_;
    BackendDirectory *directory_;
    HashRing ring_;
    ProxyMetrics metrics_;

    std::mutex poolmu_;
    /// name -> idle pooled connections (small, FDs are bounded by
    /// pool size x workers).
    std::vector<std::pair<
        std::string,
        std::vector<std::unique_ptr<serve::ClientConnection>>>>
        pool_;

    std::function<void()> shutdownHook_;

    /// Last member: its threads call handleRequest, so it is built
    /// after, and joined (by shutdown()) before, everything above.
    serve::HttpFrontEnd front_;
};

} // namespace mgx::fleet

#endif // MGX_FLEET_PROXY_H
