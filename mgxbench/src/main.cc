/**
 * @file
 * mgxbench: the repository benchmark program (run through run.py).
 *
 *   mgxbench --workload grid|cell_bp|cell_mgx|serve --seed N
 *            --seconds S --trace 0|1 --digest FILE --work-dir DIR
 *            [--serve-binary P --fleet-binary P]
 *   mgxbench --make-digest FILE
 *
 * Prints a `# host:` line, then one JSON object as the last line:
 * {"correct", "attempted", "failed", "metrics"} — the end-to-end
 * metrics untraced, the per-layer metrics with --trace 1. A per-layer
 * metric whose layer the workload does not exercise reads 0.
 */
#include <cstdio>
#include <exception>
#include <fstream>
#include <string>
#include <thread>

#include "bench.h"

namespace {

using namespace mgxbench;

struct MetricDef
{
    const char *name;
    const char *unit;
};

constexpr MetricDef kPerLayer[] = {
    {"core.setup_s", "s"},
    {"core.gen_s", "s"},
    {"core.phases", "count"},
    {"core.accesses", "count"},
    {"sim.replay_s", "s"},
    {"sim.ns_per_line", "ns"},
    {"sim.cell_s_p50", "s"},
    {"sim.cell_s_max", "s"},
    {"sim.pool_busy_frac", "ratio"},
    {"dram.ns_per_request", "ns"},
    {"dram.requests", "count"},
    {"protection.self_s", "s"},
    {"protection.meta_hit_ratio", "ratio"},
    {"protection.meta_writebacks", "count"},
    {"trace_io.write_mb_per_s", "MB/s"},
    {"trace_io.read_mb_per_s", "MB/s"},
    {"trace_io.cache_hits", "count"},
    {"trace_io.cache_misses", "count"},
    {"serve_p50_ms", "ms"},
    {"serve_p95_ms", "ms"},
    {"serve_max_rps", "1/s"},
    {"serve.direct_p50_ms", "ms"},
    {"serve.engine_p50_ms", "ms"},
    {"serve.memo_hit_ratio", "ratio"},
    {"serve.dedup_collapsed", "count"},
    {"serve.rejected", "count"},
    {"fleet.hop_ms", "ms"},
    {"fleet.route_imbalance", "ratio"},
    {"fleet.failovers", "count"},
    {"loadgen.late_p95_ms", "ms"},
    {"loadgen.samples", "count"},
    {"trace.overhead_frac", "ratio"},
    {"model.dnn_mgx_overhead_pct", "%"},
    {"model.dnn_bp_slowdown", "x"},
    {"model.graph_mgx_overhead_pct", "%"},
    {"model.graph_bp_slowdown", "x"},
    {"model.cycles", "cycles"},
};

int
usage()
{
    std::fprintf(stderr,
                 "usage: mgxbench --workload grid|cell_bp|cell_mgx|serve "
                 "--seed N --seconds S --trace 0|1 --digest FILE "
                 "--work-dir DIR [--serve-binary P --fleet-binary P]\n"
                 "       mgxbench --make-digest FILE\n");
    return 2;
}

void
printResult(const Outcome &out)
{
    std::string m;
    char buf[96];
    for (const auto &[name, metric] : out.metrics) {
        std::snprintf(buf, sizeof buf, "%.17g", metric.value);
        m += (m.empty() ? "" : ", ") + std::string("\"") + name +
             "\": {\"value\": " + buf + ", \"unit\": \"" + metric.unit +
             "\"}";
    }
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                out.failed == 0 && out.attempted > 0 ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed), m.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            return usage();
        const std::string v = argv[++i];
        if (arg == "--make-digest")
            return makeDigest(v);
        if (arg == "--workload")
            opts.workload = v;
        else if (arg == "--seed")
            opts.seed = std::stoull(v);
        else if (arg == "--seconds")
            opts.seconds = std::stod(v);
        else if (arg == "--trace")
            opts.trace = v == "1";
        else if (arg == "--digest")
            opts.digestPath = v;
        else if (arg == "--work-dir")
            opts.workDir = v;
        else if (arg == "--serve-binary")
            opts.serveBinary = v;
        else if (arg == "--fleet-binary")
            opts.fleetBinary = v;
        else
            return usage();
    }
    if (opts.digestPath.empty() || opts.workDir.empty())
        return usage();

    const Digest digest = Digest::load(opts.digestPath);
    SpanRecorder recorder;
    SpanRecorder *spans = opts.trace ? &recorder : nullptr;

    Outcome out;
    try {
        if (opts.workload == "grid")
            out = runGrid(opts, digest, spans);
        else if (opts.workload == "cell_bp")
            out = runCell(opts, digest, "BP", spans);
        else if (opts.workload == "cell_mgx")
            out = runCell(opts, digest, "MGX", spans);
        else if (opts.workload == "serve" && !opts.serveBinary.empty() &&
                 !opts.fleetBinary.empty())
            out = runServe(opts, digest, spans);
        else
            return usage();
    } catch (const std::exception &e) {
        // Unwinding has stopped and reaped any fleet this run started.
        std::fprintf(stderr, "mgxbench: %s\n", e.what());
        return 1;
    }

    if (opts.trace) {
        // Every per-layer metric on every workload: 0 = not exercised.
        std::map<std::string, Metric> layer;
        for (const MetricDef &d : kPerLayer) {
            const auto it = out.metrics.find(d.name);
            layer[d.name] = {it == out.metrics.end() ? 0.0 : it->second.value,
                             d.unit};
        }
        out.metrics = std::move(layer);
        std::ofstream f(opts.workDir + "/../trace-" + opts.workload + "-" +
                        std::to_string(opts.seed) + ".jsonl");
        recorder.write(f);
    } else {
        out.set("ok_frac",
                out.attempted == 0
                    ? 0.0
                    : 1.0 - static_cast<double>(out.failed) /
                                static_cast<double>(out.attempted),
                "ratio");
    }

    std::string samples;
    for (const auto &[name, n] : out.samples)
        samples += (samples.empty() ? " medians over: " : " ") + name + "=" +
                   std::to_string(n);
    std::printf("# host: nproc=%u compiler=\"%s\" CMAKE_BUILD_TYPE=%s "
                "MGX_KEEP_ASSERTS=%s workload=%s seed=%llu trace=%d%s\n",
                std::thread::hardware_concurrency(), MGXBENCH_COMPILER,
                MGXBENCH_BUILD_TYPE, MGXBENCH_KEEP_ASSERTS,
                opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed), opts.trace ? 1 : 0,
                samples.c_str());
    printResult(out);
    return 0;
}
