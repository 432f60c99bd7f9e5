/**
 * @file
 * The experiment API: declare a workload x platform x scheme grid,
 * run it on a thread pool, and get a structured ResultSet back — the
 * programmatic form of "one paper figure".
 *
 *   ResultSet rs = Experiment()
 *                      .workloads({"dnn/ResNet", "dnn/BERT"})
 *                      .platforms({cloudPlatform(), edgePlatform()})
 *                      .schemes(trafficSchemes())
 *                      .run();
 *   double t = rs.trafficIncrease("dnn/ResNet", "Cloud",
 *                                 protection::Scheme::BP).value();
 *
 * Each grid cell simulates on a fresh DramSystem/ProtectionEngine, so
 * cells are independent and run embarrassingly parallel.
 *
 * Every cell replays through PerfModel::run(PhaseSource&). Registry
 * cells pull phases straight off a fresh kernel (or off the on-disk
 * trace cache, which phase 1 populates by streaming the kernel once
 * per traceCacheKey() without materializing), so memory stays bounded
 * by one phase regardless of workload size — RunResult::peakPhaseBytes
 * reports the high-water mark. Explicit traces added with trace()
 * stream out of their arena through core::TracePhaseSource, so they
 * report the same footprint fields as a registry cell of the same
 * phases. Results are deterministic and independent of the thread
 * count.
 */

#ifndef MGX_SIM_EXPERIMENT_H
#define MGX_SIM_EXPERIMENT_H

#include <chrono>
#include <optional>
#include <string>
#include <vector>

#include "runner.h"

namespace mgx::sim {

/** Grid coordinates of one simulated run. */
struct RunKey
{
    std::string workload;  ///< registry name or explicit-trace label
    std::string platform;  ///< Platform::name
    protection::Scheme scheme = protection::Scheme::NP;
};

/** One grid cell's coordinates and simulation outcome. */
struct RunRecord
{
    RunKey key;
    RunResult result;
};

/**
 * The results of one experiment, in deterministic grid order
 * (workloads x platforms x schemes as declared).
 *
 * The normalized accessors return std::nullopt when the cell or its
 * NP baseline is missing — never a plausible-looking 0.0.
 */
class ResultSet
{
  public:
    void add(RunRecord record);

    const std::vector<RunRecord> &records() const { return records_; }
    bool empty() const { return records_.empty(); }

    /** Trace-cache outcome of the run, one per distinct trace (0/0
     *  when caching was off). A file that failed verification and was
     *  regenerated counts as a miss. */
    u64 traceCacheHits() const { return traceCacheHits_; }
    u64 traceCacheMisses() const { return traceCacheMisses_; }

    /** Cache files that failed integrity verification this run and
     *  were renamed to `*.trace.bad`; the run regenerated and
     *  republished each one. */
    u64 traceCacheQuarantined() const { return traceCacheQuarantined_; }

    /** Abandoned `*.trace.tmp.*` / stale `*.trace.bad` files removed
     *  by the startup sweep. */
    u64 traceCacheSwept() const { return traceCacheSwept_; }

    /** Cache-machinery failures (unwritable dir, failed lock, failed
     *  publish) the run absorbed by streaming kernels directly. */
    u64 traceCacheFaults() const { return traceCacheFaults_; }

    /** True when any cell ran uncached because the cache misbehaved —
     *  results are still exact, only reuse was lost. */
    bool cacheDegraded() const { return traceCacheFaults_ > 0; }

    /** Record the trace-cache outcome (set by Experiment::run). */
    void
    setTraceCacheStats(u64 hits, u64 misses)
    {
        traceCacheHits_ = hits;
        traceCacheMisses_ = misses;
    }

    /** Record the cache-health outcome (set by Experiment::run). */
    void
    setTraceCacheHealth(u64 quarantined, u64 swept, u64 faults)
    {
        traceCacheQuarantined_ = quarantined;
        traceCacheSwept_ = swept;
        traceCacheFaults_ = faults;
    }

    /** The cell at @p key, or nullptr if it was never run. */
    const RunResult *find(const std::string &workload,
                          const std::string &platform,
                          protection::Scheme scheme) const;

    /**
     * Execution time of (workload, platform, scheme) normalized to the
     * same cell's NP run; nullopt if either run is missing.
     */
    std::optional<double> normalizedTime(const std::string &workload,
                                         const std::string &platform,
                                         protection::Scheme scheme) const;

    /** Total memory traffic normalized the same way. */
    std::optional<double>
    trafficIncrease(const std::string &workload,
                    const std::string &platform,
                    protection::Scheme scheme) const;

    /** Workload labels in first-seen order. */
    std::vector<std::string> workloads() const;

    /** Platform names in first-seen order. */
    std::vector<std::string> platforms() const;

    /** Schemes in first-seen order. */
    std::vector<protection::Scheme> schemes() const;

  private:
    std::vector<RunRecord> records_;
    u64 traceCacheHits_ = 0;
    u64 traceCacheMisses_ = 0;
    u64 traceCacheQuarantined_ = 0;
    u64 traceCacheSwept_ = 0;
    u64 traceCacheFaults_ = 0;
};

/** Builder for one workload x platform x scheme run grid. */
class Experiment
{
  public:
    /** Add one registry workload (see workload_registry.h). */
    Experiment &workload(const std::string &name);

    /** Add several registry workloads. */
    Experiment &workloads(const std::vector<std::string> &names);

    /**
     * Add an explicit pre-generated trace under @p label — for
     * schedules the registry cannot name (edited traces, replayed
     * files). Requires platforms() to be set.
     */
    Experiment &trace(const std::string &label, core::Trace trace);

    /** Add one platform to the grid. */
    Experiment &platform(const Platform &p);

    /**
     * Set the platform axis. When never called, each registry
     * workload runs on its domain's defaultPlatform().
     */
    Experiment &platforms(const std::vector<Platform> &ps);

    /** Set the scheme axis (default: allSchemes()). */
    Experiment &schemes(const std::vector<protection::Scheme> &ss);

    /** Protection parameters shared by every cell (scheme overwritten). */
    Experiment &config(const protection::ProtectionConfig &cfg);

    /** Worker threads: 0 = hardware concurrency, 1 = serial. */
    Experiment &threads(u32 n);

    /**
     * Cache generated traces on disk under @p dir (created if
     * missing), keyed by traceCacheKey(): a later run — including a
     * separate process — that needs the same trace deserializes it
     * instead of re-running the kernel. Equal keys guarantee equal
     * traces, so a cached cell is bit-identical to a generated one on
     * every RunResult field, the trace-footprint fields included.
     * Explicit traces added with trace() are never cached. Cache hits
     * refresh the file's mtime, so the LRU size cap (see
     * traceCacheMaxBytes) evicts the least recently *used* trace.
     *
     * The directory is safe to share between concurrent processes
     * (several experiments, a serving daemon plus mgx_run, ...):
     * publishes are atomic tmp+rename, a per-key flock
     * (TraceCacheLock) makes concurrent misses on one key generate
     * exactly once between all processes, a file that fails
     * verification is quarantined and regenerated under that lock, and
     * a reader racing a foreign eviction falls back to streaming the
     * kernel directly.
     */
    Experiment &traceCacheDir(const std::string &dir);

    /**
     * LRU size cap for the trace-cache directory: after the run,
     * evict the oldest-mtime *.trace files until the directory's
     * total is back under @p bytes (0 = unbounded, the default).
     * Requires traceCacheDir(). A long-lived checkout can leave the
     * cache on without it growing without bound.
     */
    Experiment &traceCacheMaxBytes(u64 bytes);

    /** Expand the grid, simulate every cell, return the results. */
    ResultSet run() const;

  private:
    struct Entry
    {
        std::string label;
        bool isExplicitTrace = false;
        core::Trace explicitTrace;
    };

    std::vector<Entry> entries_;
    std::vector<Platform> platforms_;
    std::vector<protection::Scheme> schemes_;
    protection::ProtectionConfig config_;
    u32 threads_ = 0;
    std::string traceCacheDir_;
    u64 traceCacheMaxBytes_ = 0;
};

/**
 * Enforce the trace-cache LRU size cap on @p dir: while the total
 * size of its *.trace files exceeds @p max_bytes, delete the one with
 * the oldest mtime (reads touch their file, so mtime order is LRU
 * order). Other files are never touched. Returns the number of files
 * evicted. Missing directories and racing deleters are tolerated —
 * the cache is shared across processes.
 */
u64 enforceTraceCacheLimit(const std::string &dir, u64 max_bytes);

/**
 * Remove trace-cache debris from @p dir: abandoned `*.trace.tmp.*`
 * temporaries (a writer that crashed between open and publish leaks
 * one forever) and stale `*.trace.bad` quarantine files, both only
 * when older than @p grace — a live writer's temporary is never
 * touched. Returns the number of files removed. Experiment::run
 * performs this sweep on its cache directory at startup; racing
 * sweepers across processes are tolerated.
 */
u64 sweepTraceCacheDebris(const std::string &dir,
                          std::chrono::seconds grace);

} // namespace mgx::sim

#endif // MGX_SIM_EXPERIMENT_H
