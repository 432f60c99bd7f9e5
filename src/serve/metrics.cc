#include "metrics.h"

#include <sstream>

namespace mgx::serve {

ServeMetrics::Snapshot
ServeMetrics::snapshot(const FrontDoorMetrics &door, bool draining) const
{
    const auto L = [](const std::atomic<u64> &a) {
        return a.load(std::memory_order_relaxed);
    };
    Snapshot s;
    s.accepted = L(door.accepted);
    s.rejected = L(door.rejected);
    s.served = L(door.served);
    s.failed = L(door.failed);
    s.badRequests = L(door.badRequests);
    s.dedupCollapsed = L(dedupCollapsed);
    s.cellsRun = L(cellsRun);
    s.resultMemoHits = L(resultMemoHits);
    s.traceCacheHits = L(traceCacheHits);
    s.traceCacheMisses = L(traceCacheMisses);
    s.inFlight = L(door.inFlight);
    s.queueDepth = L(door.queueDepth);
    s.maxQueueDepth = L(door.maxQueueDepth);
    s.deadlineExceeded = L(deadlineExceeded);
    s.oversized = L(door.oversized);
    s.keepAliveReused = L(door.keepAliveReused);
    s.cacheDegraded = cacheDegraded.load(std::memory_order_relaxed);
    s.draining = draining;
    return s;
}

std::string
statsJson(const ServeMetrics::Snapshot &s)
{
    std::ostringstream out;
    out << "{\n  \"schema\": \"mgx-servestats-v1\",\n"
        << "  \"accepted\": " << s.accepted
        << ",\n  \"rejected\": " << s.rejected
        << ",\n  \"served\": " << s.served
        << ",\n  \"failed\": " << s.failed
        << ",\n  \"badRequests\": " << s.badRequests
        << ",\n  \"dedupCollapsed\": " << s.dedupCollapsed
        << ",\n  \"cellsRun\": " << s.cellsRun
        << ",\n  \"resultMemoHits\": " << s.resultMemoHits
        << ",\n  \"traceCache\": {\"hits\": " << s.traceCacheHits
        << ", \"misses\": " << s.traceCacheMisses << "}"
        << ",\n  \"inFlight\": " << s.inFlight
        << ",\n  \"queueDepth\": " << s.queueDepth
        << ",\n  \"maxQueueDepth\": " << s.maxQueueDepth
        << ",\n  \"deadlineExceeded\": " << s.deadlineExceeded
        << ",\n  \"oversized\": " << s.oversized
        << ",\n  \"keepAliveReused\": " << s.keepAliveReused
        << ",\n  \"cacheDegraded\": "
        << (s.cacheDegraded ? "true" : "false")
        << ",\n  \"draining\": " << (s.draining ? "true" : "false")
        << "\n}\n";
    return out.str();
}

} // namespace mgx::serve
