/**
 * @file
 * Shared types of the benchmark workloads (see README.md for what
 * each workload and metric means).
 */
#ifndef MGXBENCH_BENCH_H
#define MGXBENCH_BENCH_H

#include <map>
#include <string>
#include <vector>

#include "digest.h"
#include "protection/scheme.h"
#include "stats.h"

namespace mgxbench {

struct Options
{
    std::string workload;
    mgx::u64 seed = 11;
    double seconds = 10.0;
    bool trace = false;
    std::string digestPath;
    std::string workDir;     ///< scratch space, removed by the caller
    std::string serveBinary; ///< mgx_serve (serve workload)
    std::string fleetBinary; ///< mgx_fleet (serve workload)
};

struct Metric
{
    double value = 0.0;
    std::string unit;
};

/** What one workload run reports. */
struct Outcome
{
    mgx::u64 attempted = 0; ///< cells or requests attempted
    mgx::u64 failed = 0;    ///< failed, refused or drifted from the digest
    std::map<std::string, Metric> metrics;
    /// How many samples each median-reported metric was taken over.
    std::map<std::string, std::size_t> samples;

    void set(const std::string &name, double value, const char *unit)
    {
        metrics[name] = {value, unit};
    }
};

/** One cell replayed by the benchmark's own traced loop. */
struct TracedCell
{
    mgx::protection::Scheme scheme = mgx::protection::Scheme::NP;
    mgx::sim::RunResult result;
    double setupS = 0.0;  ///< makeKernel (registry parse + input synthesis)
    double genS = 0.0;    ///< in nextChunk, outside consume
    double replayS = 0.0; ///< in consume: engine + DRAM per phase
    double runS = 0.0;    ///< Kernel::stream + PerfModel::run, setup excluded
    double cellS = 0.0;   ///< whole cell, setup included
    mgx::u64 phases = 0;
    mgx::u64 accesses = 0;
};

/**
 * Replay one cell on its default platform through makeKernel,
 * Kernel::stream and PerfModel::run(PhaseSource&) on a fresh
 * DramSystem/ProtectionEngine, timing the source per chunk and the
 * sink per phase. Spans: cell > core.setup, sim.run. With @p spans
 * null the same loop runs unwrapped and untraced (only setupS, runS,
 * cellS and result are set): the baseline of trace.overhead_frac.
 */
TracedCell traceCell(const std::string &workload,
                     mgx::protection::Scheme scheme, SpanRecorder *spans,
                     mgx::u64 request);

/** Per-layer sums over traced cells. */
struct LayerTotals
{
    double setupS = 0.0, genS = 0.0, replayS = 0.0;
    mgx::u64 phases = 0, accesses = 0, lines = 0;
    mgx::u64 hits = 0, misses = 0, writebacks = 0;
    std::vector<double> cellS;
    /// NP replays: DRAM cost per request, since NP issues data
    /// requests only and its engine passes them straight through.
    double npReplayS = 0.0;
    mgx::u64 npLines = 0;

    void add(const TracedCell &c);  ///< NP cells also count in addNp
    void addNp(const TracedCell &np);

    /** The core/sim/dram/protection metrics. protection.self_s is an
     *  estimate: replay time minus NP's ns/request x this run's lines. */
    void report(Outcome &out) const;
};

/** Run one workload: the end-to-end metrics when @p spans is null
 *  (the measured run), the per-layer metrics otherwise. */
Outcome runGrid(const Options &opts, const Digest &digest,
                SpanRecorder *spans);
Outcome runCell(const Options &opts, const Digest &digest,
                const std::string &scheme, SpanRecorder *spans);
Outcome runServe(const Options &opts, const Digest &digest,
                 SpanRecorder *spans);

/** Write the digest of every cell the benchmark can run to @p path. */
int makeDigest(const std::string &path);

} // namespace mgxbench

#endif // MGXBENCH_BENCH_H
