/**
 * @file
 * Lock-free operational counters for mgx_serve, surfaced by the
 * /stats endpoint as `mgx-servestats-v1` JSON. Counters are plain
 * relaxed atomics — they are diagnostics, not synchronization; the
 * front end's queue mutex orders the state they describe.
 */

#ifndef MGX_SERVE_METRICS_H
#define MGX_SERVE_METRICS_H

#include <atomic>
#include <string>

#include "common/types.h"

namespace mgx::serve {

/**
 * The front door's counters (HttpFrontEnd), shared by mgx_serve and
 * the mgx_fleet proxy.
 */
struct FrontDoorMetrics
{
    std::atomic<u64> accepted{0};      ///< connections accepted
    std::atomic<u64> rejected{0};      ///< 429s: admission queue was full
    std::atomic<u64> served{0};        ///< responses with status < 400
    std::atomic<u64> failed{0};        ///< responses with status >= 500
    std::atomic<u64> badRequests{0};   ///< 4xx other than queue rejections
    std::atomic<u64> oversized{0};     ///< 431s: request exceeded the 1 MiB cap
    std::atomic<u64> keepAliveReused{0}; ///< requests on a reused connection
    std::atomic<u64> inFlight{0};      ///< connections being served now
    std::atomic<u64> queueDepth{0};    ///< connections waiting for a worker
    std::atomic<u64> maxQueueDepth{0}; ///< high-water mark of queueDepth

    /** Record @p depth and raise maxQueueDepth to at least it. */
    void
    noteQueueDepth(u64 depth)
    {
        queueDepth.store(depth, std::memory_order_relaxed);
        u64 seen = maxQueueDepth.load(std::memory_order_relaxed);
        while (depth > seen &&
               !maxQueueDepth.compare_exchange_weak(
                   seen, depth, std::memory_order_relaxed))
            ;
    }
};

/** mgx_serve's own counters: what happened to the cells behind the
 *  front door. */
class ServeMetrics
{
  public:
    /** A consistent-enough copy for reporting. */
    struct Snapshot
    {
        u64 accepted = 0;       ///< connections accepted
        u64 rejected = 0;       ///< 429s: admission queue was full
        u64 served = 0;         ///< responses with status < 400
        u64 failed = 0;         ///< responses with status >= 500
        u64 badRequests = 0;    ///< 4xx other than queue rejections
        u64 dedupCollapsed = 0; ///< cell requests served as followers
        u64 cellsRun = 0;       ///< cells actually simulated (leaders)
        u64 resultMemoHits = 0; ///< cells answered from the result memo
        u64 traceCacheHits = 0;
        u64 traceCacheMisses = 0;
        u64 inFlight = 0;       ///< requests being handled right now
        u64 queueDepth = 0;     ///< connections waiting for a worker
        u64 maxQueueDepth = 0;  ///< high-water mark of queueDepth
        u64 deadlineExceeded = 0; ///< 503s: request deadline expired
        u64 oversized = 0;      ///< 431s: request exceeded the 1 MiB cap
        u64 keepAliveReused = 0; ///< requests served on a reused connection
        bool cacheDegraded = false; ///< trace cache bypassed (see Server)
        bool draining = false;  ///< shutdown requested
    };

    std::atomic<u64> dedupCollapsed{0};
    std::atomic<u64> cellsRun{0};
    std::atomic<u64> resultMemoHits{0};
    std::atomic<u64> traceCacheHits{0};
    std::atomic<u64> traceCacheMisses{0};
    std::atomic<u64> deadlineExceeded{0};
    std::atomic<bool> cacheDegraded{false};

    /** These counters joined with the front door's. */
    Snapshot snapshot(const FrontDoorMetrics &door, bool draining) const;
};

/** Serialize @p s as the `mgx-servestats-v1` JSON document. */
std::string statsJson(const ServeMetrics::Snapshot &s);

} // namespace mgx::serve

#endif // MGX_SERVE_METRICS_H
