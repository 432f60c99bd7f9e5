/**
 * @file
 * mgx_run: the experiment CLI. Runs any registry workload grid under
 * any scheme set and emits the fixed-width table and/or the
 * mgx-resultset-v1 JSON artifact — the machine-readable path for
 * tracking the repo's performance trajectory.
 *
 * Usage:
 *   mgx_run --list
 *   mgx_run --workload dnn/resnet50 --schemes NP,MGX,BP --json out.json
 *   mgx_run --all --platforms cloud,edge --threads 8 --json all.json
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <string>
#include <vector>

#include "common/cli.h"
#include "sim/experiment.h"
#include "sim/report.h"
#include "sim/workload_registry.h"

namespace {

using namespace mgx;

int
usage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: mgx_run [options]\n"
        "  --list                 print every registry workload and exit\n"
        "  --list-scaled          print the oversized streaming-only\n"
        "                         workload variants and exit\n"
        "  --workload NAME[,...]  add workloads (repeatable); see --list\n"
        "  --all                  run every registry workload\n"
        "  --platforms P[,...]    cloud, edge, graph, genome\n"
        "                         (default: each workload's paper platform)\n"
        "  --schemes S[,...]      NP, MGX, MGX_VN, MGX_MAC, BP\n"
        "                         (default: all five)\n"
        "  --threads N            worker threads, at most 1024\n"
        "                         (default 0: all cores)\n"
        "  --trace-cache DIR      reuse generated traces across runs:\n"
        "                         serialize each trace into DIR and\n"
        "                         replay from it instead of regenerating\n"
        "  --trace-cache-max-bytes N\n"
        "                         LRU size cap for the trace cache:\n"
        "                         after the run, evict oldest-mtime\n"
        "                         traces until DIR is back under N\n"
        "  --json FILE            write the mgx-resultset-v1 artifact\n"
        "  --quiet                suppress the table on stdout\n"
        "  --help                 this message\n"
        "\n"
        "example:\n"
        "  mgx_run --workload dnn/resnet50 --schemes NP,MGX,BP "
        "--json out.json\n");
    return out == stdout ? 0 : 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> workloads;
    std::vector<sim::Platform> platforms;
    std::vector<protection::Scheme> schemes;
    std::string json_path;
    std::string trace_cache_dir;
    u64 trace_cache_max_bytes = 0;
    u32 threads = 0;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "mgx_run: %s needs a value\n",
                             arg.c_str());
                std::exit(usage(stderr));
            }
            return argv[++i];
        };
        auto number = [&](u64 min, u64 max) -> u64 {
            const auto n =
                parseUnsignedOption("mgx_run", arg, value(), min, max);
            if (!n)
                std::exit(usage(stderr));
            return *n;
        };
        if (arg == "--help" || arg == "-h")
            return usage(stdout);
        if (arg == "--list") {
            for (const auto &name : sim::listWorkloads())
                std::printf("%s\n", name.c_str());
            return 0;
        }
        if (arg == "--list-scaled") {
            for (const auto &name : sim::listScaledWorkloads())
                std::printf("%s\n", name.c_str());
            return 0;
        }
        if (arg == "--workload" || arg == "-w") {
            for (auto &w : sim::splitCommas(value()))
                workloads.push_back(w);
        } else if (arg == "--all") {
            for (auto &w : sim::listWorkloads())
                workloads.push_back(w);
        } else if (arg == "--platforms" || arg == "--platform") {
            for (auto &p : sim::splitCommas(value())) {
                auto platform = sim::platformByName(p);
                if (!platform) {
                    std::fprintf(stderr,
                                 "mgx_run: unknown platform '%s'\n",
                                 p.c_str());
                    return usage(stderr);
                }
                platforms.push_back(std::move(*platform));
            }
        } else if (arg == "--schemes" || arg == "--scheme") {
            for (auto &s : sim::splitCommas(value()))
                schemes.push_back(sim::schemeByName(s));
        } else if (arg == "--threads") {
            threads = static_cast<u32>(number(0, kMaxThreadCount));
        } else if (arg == "--json") {
            json_path = value();
        } else if (arg == "--trace-cache") {
            trace_cache_dir = value();
        } else if (arg == "--trace-cache-max-bytes") {
            trace_cache_max_bytes =
                number(0, std::numeric_limits<u64>::max());
        } else if (arg == "--quiet" || arg == "-q") {
            quiet = true;
        } else {
            std::fprintf(stderr, "mgx_run: unknown option '%s'\n",
                         arg.c_str());
            return usage(stderr);
        }
    }

    if (workloads.empty()) {
        std::fprintf(stderr, "mgx_run: no workloads selected\n");
        return usage(stderr);
    }

    if (trace_cache_max_bytes != 0 && trace_cache_dir.empty()) {
        std::fprintf(stderr, "mgx_run: --trace-cache-max-bytes needs "
                             "--trace-cache\n");
        return usage(stderr);
    }

    sim::Experiment experiment;
    experiment.workloads(workloads).threads(threads);
    if (!platforms.empty())
        experiment.platforms(platforms);
    if (!schemes.empty())
        experiment.schemes(schemes);
    if (!trace_cache_dir.empty())
        experiment.traceCacheDir(trace_cache_dir);
    if (trace_cache_max_bytes != 0)
        experiment.traceCacheMaxBytes(trace_cache_max_bytes);

    sim::ResultSet rs = experiment.run();

    if (!trace_cache_dir.empty()) {
        // The "N hit(s), M miss(es)" prefix is a stable interface
        // (smoke scripts grep it); health detail is only appended
        // when something actually happened.
        std::printf("trace-cache: %llu hit(s), %llu miss(es)",
                    static_cast<unsigned long long>(rs.traceCacheHits()),
                    static_cast<unsigned long long>(
                        rs.traceCacheMisses()));
        if (rs.traceCacheQuarantined() != 0)
            std::printf(", %llu quarantined",
                        static_cast<unsigned long long>(
                            rs.traceCacheQuarantined()));
        if (rs.traceCacheSwept() != 0)
            std::printf(", %llu swept",
                        static_cast<unsigned long long>(
                            rs.traceCacheSwept()));
        if (rs.cacheDegraded())
            std::printf(", degraded (%llu fault(s))",
                        static_cast<unsigned long long>(
                            rs.traceCacheFaults()));
        std::printf("\n");
    }

    if (!quiet)
        sim::printTable(rs);

    if (!json_path.empty()) {
        std::ofstream out(json_path);
        sim::writeJson(rs, out);
        // Flush before checking: a full disk only fails the write-out.
        if (!out.flush()) {
            std::fprintf(stderr, "mgx_run: cannot write '%s'\n",
                         json_path.c_str());
            return 1;
        }
        if (!quiet)
            std::printf("\nwrote %zu records to %s\n",
                        rs.records().size(), json_path.c_str());
    }
    return 0;
}
