/**
 * @file
 * The compute workloads: `grid` (every registry workload x all five
 * schemes, 4 threads, streamed, no trace cache — `mgx_run --all
 * --threads 4`) and `cell_bp` / `cell_mgx` (one full-scale pokec cell
 * under one scheme with mgx_run's single-cell defaults).
 *
 * Measured runs call Experiment::run exactly as mgx_run does. Traced
 * runs replay every cell through the benchmark's own loop — makeKernel,
 * Kernel::stream, PerfModel::run(PhaseSource&) on a fresh DramSystem
 * and ProtectionEngine — with the source and sink wrapped so that one
 * clock sample pair is taken per chunk and per phase, never per access.
 * The tracing overhead is taken against the same loop run unwrapped
 * and without spans, alternated with the traced loop.
 */
#include <algorithm>
#include <atomic>
#include <fstream>
#include <thread>

#include <sys/resource.h>

#include "bench.h"
#include "core/phase_stream.h"
#include "mix.h"
#include "sim/experiment.h"
#include "sim/report.h"
#include "sim/workload_registry.h"

namespace mgxbench {
namespace {

using mgx::u64;
using mgx::protection::Scheme;
using mgx::sim::RunResult;

constexpr unsigned kGridThreads = 4;
constexpr int kSetupRepeats = 5;
constexpr int kMinReps = 3;
constexpr int kOverheadSamples = 3;

/** Times the consumer side: each consume() is one sample pair. */
class TimedSink final : public mgx::core::PhaseSink
{
  public:
    void
    consume(const mgx::core::Phase &phase) override
    {
        const auto t0 = Clock::now();
        inner->consume(phase);
        busy += seconds(t0, Clock::now());
        ++phases;
        accesses += phase.accesses.size();
    }

    mgx::core::PhaseSink *inner = nullptr;
    double busy = 0.0;
    u64 phases = 0;
    u64 accesses = 0;
};

/** Times the producer side: each nextChunk() is one sample pair; the
 *  consumer's share of the chunk is subtracted by the caller. */
class TimedSource final : public mgx::core::PhaseSource
{
  public:
    explicit TimedSource(mgx::core::PhaseSource &inner) : inner_(&inner) {}

    bool
    nextChunk(mgx::core::PhaseSink &sink) override
    {
        sink_.inner = &sink;
        const auto t0 = Clock::now();
        const bool more = inner_->nextChunk(sink_);
        busy += seconds(t0, Clock::now());
        return more;
    }

    const TimedSink &sink() const { return sink_; }

    double busy = 0.0;

  private:
    mgx::core::PhaseSource *inner_;
    TimedSink sink_;
};

/** PerfModel::run of @p source on a fresh DramSystem/ProtectionEngine. */
RunResult
replay(mgx::core::PhaseSource &source, const mgx::sim::Platform &platform,
       Scheme scheme)
{
    mgx::dram::DramSystem dram(platform.dram);
    mgx::protection::ProtectionConfig cfg;
    cfg.scheme = scheme;
    mgx::protection::ProtectionEngine engine(cfg, &dram);
    mgx::sim::PerfModel model(&engine, platform.clockMhz);
    return model.run(source);
}

} // namespace

TracedCell
traceCell(const std::string &workload, Scheme scheme, SpanRecorder *spans,
          u64 request)
{
    const mgx::sim::Platform platform = mgx::sim::defaultPlatform(workload);
    TracedCell out;
    out.scheme = scheme;
    const auto t0 = Clock::now();
    ScopedSpan cell(spans, "cell", -1, request);
    std::unique_ptr<mgx::core::Kernel> kernel;
    {
        ScopedSpan s(spans, "core.setup", cell.id(), request);
        kernel = mgx::sim::makeKernel(workload, platform);
    }
    const auto t1 = Clock::now();
    {
        ScopedSpan s(spans, "sim.run", cell.id(), request);
        auto stream = kernel->stream();
        if (spans) {
            TimedSource source(*stream);
            out.result = replay(source, platform, scheme);
            out.replayS = source.sink().busy;
            out.genS = source.busy - out.replayS;
            out.phases = source.sink().phases;
            out.accesses = source.sink().accesses;
        } else {
            out.result = replay(*stream, platform, scheme);
        }
    }
    const auto t2 = Clock::now();
    out.setupS = seconds(t0, t1);
    out.runS = seconds(t1, t2);
    out.cellS = seconds(t0, t2);
    return out;
}

void
LayerTotals::add(const TracedCell &c)
{
    setupS += c.setupS;
    genS += c.genS;
    replayS += c.replayS;
    phases += c.phases;
    accesses += c.accesses;
    lines += c.result.dramAccesses;
    hits += c.result.metaCacheHits;
    misses += c.result.metaCacheMisses;
    writebacks += c.result.metaCacheWritebacks;
    cellS.push_back(c.cellS);
    if (c.scheme == Scheme::NP)
        addNp(c);
}

void
LayerTotals::addNp(const TracedCell &np)
{
    npReplayS += np.replayS;
    npLines += np.result.dramAccesses;
}

void
LayerTotals::report(Outcome &out) const
{
    const auto ratio = [](double num, double den) {
        return den == 0 ? 0.0 : num / den;
    };
    const double dram_ns =
        ratio(npReplayS * 1e9, static_cast<double>(npLines));
    out.set("core.setup_s", setupS, "s");
    out.set("core.gen_s", genS, "s");
    out.set("core.phases", static_cast<double>(phases), "count");
    out.set("core.accesses", static_cast<double>(accesses), "count");
    out.set("sim.replay_s", replayS, "s");
    out.set("sim.ns_per_line",
            ratio(replayS * 1e9, static_cast<double>(lines)), "ns");
    out.set("sim.cell_s_p50", median(cellS), "s");
    out.set("sim.cell_s_max",
            cellS.empty() ? 0.0 : *std::max_element(cellS.begin(), cellS.end()),
            "s");
    out.set("dram.ns_per_request", dram_ns, "ns");
    out.set("dram.requests", static_cast<double>(npLines), "count");
    out.set("protection.self_s",
            replayS - dram_ns * 1e-9 * static_cast<double>(lines), "s");
    out.set("protection.meta_hit_ratio",
            ratio(static_cast<double>(hits),
                  static_cast<double>(hits + misses)),
            "ratio");
    out.set("protection.meta_writebacks", static_cast<double>(writebacks),
            "count");
}

namespace {

/** Count the records of @p rs that drift from the digest. */
u64
countDrift(const mgx::sim::ResultSet &rs, const Digest &digest)
{
    u64 drift = 0;
    for (const auto &rec : rs.records())
        if (!digest.matches(cellKey(rec.key.workload, rec.key.platform,
                                    mgx::protection::schemeName(
                                        rec.key.scheme)),
                            cellStats(rec.result)))
            ++drift;
    return drift;
}

/** Median seconds of kSetupRepeats calls of @p fn. */
template <typename Fn>
double
medianSetup(Fn fn)
{
    std::vector<double> t;
    for (int i = 0; i < kSetupRepeats; ++i) {
        const auto t0 = Clock::now();
        fn();
        t.push_back(seconds(t0, Clock::now()));
    }
    return median(t);
}

/**
 * Repeat @p rep until the next repetition would end past @p budget
 * seconds (at least kMinReps times); returns each repetition's wall.
 */
template <typename Fn>
std::vector<double>
repeatFor(double budget, Fn rep)
{
    std::vector<double> walls;
    const auto start = Clock::now();
    for (;;) {
        const auto t0 = Clock::now();
        rep();
        walls.push_back(seconds(t0, Clock::now()));
        const double spent = seconds(start, Clock::now());
        if (static_cast<int>(walls.size()) >= kMinReps &&
            spent + median(walls) > budget)
            break;
    }
    return walls;
}

/** Mean NP-normalized time of @p scheme over the workloads whose name
 *  starts with @p prefix. */
double
meanNormalized(const mgx::sim::ResultSet &rs, const std::string &prefix,
               Scheme scheme)
{
    double sum = 0.0;
    int n = 0;
    for (const auto &rec : rs.records()) {
        if (rec.key.scheme != scheme ||
            rec.key.workload.compare(0, prefix.size(), prefix) != 0)
            continue;
        if (auto t = rs.normalizedTime(rec.key.workload, rec.key.platform,
                                       scheme)) {
            sum += *t;
            ++n;
        }
    }
    return n == 0 ? 0.0 : sum / n;
}

/** Peak resident set of this process, MiB. */
double
selfPeakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

} // namespace

Outcome
runGrid(const Options &opts, const Digest &digest, SpanRecorder *spans)
{
    Outcome out;
    const std::vector<std::string> workloads = mgx::sim::listWorkloads();
    const std::vector<Scheme> schemes = mgx::sim::allSchemes();

    // Set-up: construct every registry kernel once (name parse + input
    // synthesis) — the per-cell fixed cost the grid pays 215 times.
    out.set("setup_s", medianSetup([&] {
                for (const auto &w : workloads)
                    mgx::sim::makeKernel(w, mgx::sim::defaultPlatform(w));
            }),
            "s");

    const auto runOnce = [&] {
        const auto rs = mgx::sim::Experiment()
                            .workloads(workloads)
                            .threads(kGridThreads)
                            .run();
        out.attempted += rs.records().size();
        out.failed += countDrift(rs, digest);
        return rs;
    };

    if (!spans) {
        const auto walls = repeatFor(opts.seconds, runOnce);
        out.set("wall_s", median(walls), "s");
        out.samples = {{"setup_s", kSetupRepeats}, {"wall_s", walls.size()}};
        out.set("peak_rss_mb", selfPeakRssMb(), "MB");
        return out;
    }

    // Traced: one Experiment::run for the reference results and the
    // model figures, then rounds of the benchmark's own loop over every
    // cell on a 4-thread pool (cells claimed in grid order), untraced
    // then traced: the overhead baseline is the same pool and loop
    // without wrappers or spans.
    const mgx::sim::ResultSet rs = runOnce();

    struct Cell
    {
        std::string workload;
        Scheme scheme;
    };
    std::vector<Cell> cells;
    for (const auto &w : workloads)
        for (Scheme s : schemes)
            cells.push_back({w, s});
    struct Pass
    {
        double wall = 0.0;
        std::vector<TracedCell> cells;
    };
    const auto poolPass = [&](SpanRecorder *rec, u64 first_id) {
        Pass pass;
        pass.cells.resize(cells.size());
        std::atomic<std::size_t> next{0};
        const auto t0 = Clock::now();
        {
            std::vector<std::jthread> pool;
            for (unsigned t = 0; t < kGridThreads; ++t)
                pool.emplace_back([&] {
                    for (std::size_t i = next++; i < cells.size(); i = next++)
                        pass.cells[i] =
                            traceCell(cells[i].workload, cells[i].scheme, rec,
                                      first_id + i);
                });
        }
        pass.wall = seconds(t0, Clock::now());
        // The loop must reproduce Experiment::run exactly.
        for (std::size_t i = 0; i < cells.size(); ++i) {
            ++out.attempted;
            const auto *ref =
                rs.find(cells[i].workload,
                        mgx::sim::defaultPlatform(cells[i].workload).name,
                        cells[i].scheme);
            if (!ref || cellStats(*ref) != cellStats(pass.cells[i].result))
                ++out.failed;
        }
        return pass;
    };
    std::vector<double> plain;
    std::vector<Pass> traced;
    for (int i = 0; i < kOverheadSamples; ++i) {
        plain.push_back(poolPass(nullptr, 0).wall);
        traced.push_back(poolPass(spans, 1 + i * cells.size()));
    }
    // The layer figures come from the traced pass of median wall.
    std::sort(traced.begin(), traced.end(),
              [](const Pass &a, const Pass &b) { return a.wall < b.wall; });
    const Pass &median_pass = traced[traced.size() / 2];

    LayerTotals totals;
    for (const TracedCell &c : median_pass.cells)
        totals.add(c);
    totals.report(out);
    double busy = 0.0;
    for (double s : totals.cellS)
        busy += s;
    out.set("sim.pool_busy_frac", busy / (kGridThreads * median_pass.wall),
            "ratio");
    out.set("trace.overhead_frac", median_pass.wall / median(plain) - 1.0,
            "ratio");

    out.set("model.dnn_mgx_overhead_pct",
            100.0 * (meanNormalized(rs, "dnn/", Scheme::MGX) - 1.0), "%");
    out.set("model.dnn_bp_slowdown", meanNormalized(rs, "dnn/", Scheme::BP),
            "x");
    out.set("model.graph_mgx_overhead_pct",
            100.0 * (meanNormalized(rs, "graph/", Scheme::MGX) - 1.0), "%");
    out.set("model.graph_bp_slowdown",
            meanNormalized(rs, "graph/", Scheme::BP), "x");
    std::printf("# model vs paper: dnn_mgx_overhead_pct %.2f (paper 4), "
                "dnn_bp_slowdown %.3f (paper 1.28), "
                "graph_mgx_overhead_pct %.2f (paper 5), "
                "graph_bp_slowdown %.3f (paper 1.33)\n",
                out.metrics["model.dnn_mgx_overhead_pct"].value,
                out.metrics["model.dnn_bp_slowdown"].value,
                out.metrics["model.graph_mgx_overhead_pct"].value,
                out.metrics["model.graph_bp_slowdown"].value);
    return out;
}

Outcome
runCell(const Options &opts, const Digest &digest, const std::string &scheme,
        SpanRecorder *spans)
{
    Outcome out;
    const std::string workload = pokecCell(opts.seed);
    const Scheme s = mgx::sim::schemeByName(scheme);
    const std::string key =
        cellKey(workload, mgx::sim::defaultPlatform(workload).name, scheme);
    if (!digest.contains(key))
        mgx::fatal("mgxbench: digest has no entry for %s", key.c_str());

    // Set-up: registry parse + pokec tile synthesis.
    out.set("setup_s", medianSetup([&] { mgx::sim::makeKernel(workload); }),
            "s");

    mgx::sim::RunResult measured;
    const auto runOnce = [&] {
        // mgx_run's single-cell defaults: all cores, streamed, no cache.
        const auto rs =
            mgx::sim::Experiment().workload(workload).schemes({s}).run();
        ++out.attempted;
        if (rs.records().size() != 1 ||
            !digest.matches(key, cellStats(rs.records()[0].result)))
            ++out.failed;
        if (!rs.records().empty())
            measured = rs.records()[0].result;
    };

    if (!spans) {
        const auto walls = repeatFor(opts.seconds, runOnce);
        out.set("wall_s", median(walls), "s");
        out.samples = {{"setup_s", kSetupRepeats}, {"wall_s", walls.size()}};
        out.set("peak_rss_mb", selfPeakRssMb(), "MB");
        return out;
    }

    // Reference result: one Experiment::run, as measured.
    const auto u0 = Clock::now();
    runOnce();
    const double experiment_wall = seconds(u0, Clock::now());

    // The benchmark's own single-thread loop, untraced then traced:
    // the overhead baseline is the same loop without wrappers or spans.
    const auto check = [&](const TracedCell &c) {
        ++out.attempted;
        if (cellStats(c.result) != cellStats(measured))
            ++out.failed;
    };
    std::vector<double> plain;
    std::vector<TracedCell> traced;
    for (int i = 0; i < kOverheadSamples; ++i) {
        const TracedCell p = traceCell(workload, s, nullptr, 0);
        check(p);
        plain.push_back(p.runS);
        traced.push_back(traceCell(workload, s, spans, i + 1));
        check(traced.back());
    }
    // The layer figures come from the traced run of median time.
    std::sort(traced.begin(), traced.end(),
              [](const TracedCell &a, const TracedCell &b) {
                  return a.runS < b.runS;
              });
    const TracedCell &c = traced[traced.size() / 2];
    // DRAM cost per request from an NP replay of the same trace: NP
    // issues data requests only, so its replay is decode + channel
    // timing with a pass-through engine.
    const TracedCell np =
        traceCell(workload, Scheme::NP, spans, kOverheadSamples + 1);
    LayerTotals totals;
    totals.add(c);
    totals.addNp(np);
    totals.report(out);
    const double untraced = median(plain);
    out.set("trace.overhead_frac", c.runS / untraced - 1.0, "ratio");
    std::printf("# coverage: core.gen_s + sim.replay_s = %.1f%% of the "
                "untraced single-thread loop (median of %d, set-up "
                "excluded), %.1f%% of one Experiment::run (mgx_run's "
                "default mode, set-up included)\n",
                100.0 * (c.genS + c.replayS) / untraced, kOverheadSamples,
                100.0 * (c.genS + c.replayS) / experiment_wall);
    out.set("model.cycles", static_cast<double>(c.result.totalCycles),
            "cycles");
    return out;
}

int
makeDigest(const std::string &path)
{
    std::vector<std::string> workloads = mgx::sim::listWorkloads();
    std::vector<std::string> cell_workloads;
    for (unsigned g = 0; g < kPokecSeeds; ++g)
        cell_workloads.push_back(pokecCell(g));
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "mgxbench: cannot write %s\n", path.c_str());
        return 1;
    }
    out << "# mgxbench correctness digest: workload platform scheme cycles "
           "data expand mac vn tree dram metaHits metaMisses "
           "metaWritebacks\n";
    const auto emit = [&](const mgx::sim::ResultSet &rs) {
        for (const auto &rec : rs.records())
            out << Digest::line(rec.key.workload, rec.key.platform,
                                mgx::protection::schemeName(rec.key.scheme),
                                cellStats(rec.result))
                << "\n";
    };
    emit(mgx::sim::Experiment()
             .workloads(workloads)
             .threads(kGridThreads)
             .run());
    emit(mgx::sim::Experiment()
             .workloads(cell_workloads)
             .schemes({Scheme::MGX, Scheme::BP})
             .threads(kGridThreads)
             .run());
    emit(mgx::sim::Experiment()
             .workloads(poolWorkloads())
             .threads(kGridThreads)
             .run());
    return out ? 0 : 1;
}

} // namespace mgxbench
