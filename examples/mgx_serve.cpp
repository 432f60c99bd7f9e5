/**
 * @file
 * mgx_serve: the experiment service daemon. Listens on a unix socket
 * (or TCP loopback), serves /run, /stats and /shutdown, and shares
 * the trace cache with every other mgx process pointed at the same
 * directory. See src/serve/server.h for semantics.
 *
 * Usage:
 *   mgx_serve --socket /tmp/mgx.sock --trace-cache ~/.cache/mgx
 *   mgx_serve --port 0 --workers 4          # prints the bound port
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include <poll.h>

#include "common/cli.h"
#include "serve/server.h"

namespace {

using mgx::u64;

constexpr u64 kIntMax = std::numeric_limits<int>::max();
constexpr u64 kSizeMax = std::numeric_limits<std::size_t>::max();
constexpr u64 kU64Max = std::numeric_limits<u64>::max();

volatile std::sig_atomic_t g_signaled = 0;

void
onSignal(int)
{
    g_signaled = 1;
}

int
usage(std::FILE *out)
{
    std::fprintf(
        out,
        "usage: mgx_serve [options]\n"
        "  --socket PATH          listen on a unix socket (default:\n"
        "                         TCP loopback)\n"
        "  --port N               TCP port (0 = kernel-assigned; the\n"
        "                         bound port is printed on startup)\n"
        "  --workers N            request handler threads, 1..1024\n"
        "                         (default 2)\n"
        "  --queue N              admission queue capacity before\n"
        "                         connections get 429 (default 16)\n"
        "  --trace-cache DIR      share generated traces on disk with\n"
        "                         other daemons and mgx_run\n"
        "  --trace-cache-max-bytes N\n"
        "                         LRU size cap for the trace cache\n"
        "  --deadline-ms N        wall-clock budget per /run request;\n"
        "                         503 on expiry (default 0 = none)\n"
        "  --result-memo N        finished cells memoized in memory\n"
        "                         (LRU; warm repeats skip the engine;\n"
        "                         default 64, 0 disables)\n"
        "  --keep-alive-idle-ms N close a kept-alive connection after\n"
        "                         N ms without a next request\n"
        "                         (default 2000)\n"
        "  --quiet                no startup/shutdown chatter\n"
        "  --help                 this message\n");
    return out == stdout ? 0 : 2;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace mgx;

    serve::ServerOptions opts;
    bool quiet = false;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "mgx_serve: %s needs a value\n",
                             arg.c_str());
                std::exit(usage(stderr));
            }
            return argv[++i];
        };
        auto number = [&](u64 min, u64 max) -> u64 {
            const auto n =
                parseUnsignedOption("mgx_serve", arg, value(), min, max);
            if (!n)
                std::exit(usage(stderr));
            return *n;
        };
        if (arg == "--help" || arg == "-h")
            return usage(stdout);
        if (arg == "--socket") {
            opts.listen.unixPath = value();
        } else if (arg == "--port") {
            opts.listen.port = static_cast<u16>(number(0, 65535));
        } else if (arg == "--workers") {
            opts.workers = static_cast<u32>(number(1, kMaxThreadCount));
        } else if (arg == "--queue") {
            opts.admissionCapacity = number(1, kSizeMax);
        } else if (arg == "--trace-cache") {
            opts.traceCacheDir = value();
        } else if (arg == "--trace-cache-max-bytes") {
            opts.traceCacheMaxBytes = number(0, kU64Max);
        } else if (arg == "--deadline-ms") {
            opts.requestDeadlineMs = static_cast<int>(number(0, kIntMax));
        } else if (arg == "--result-memo") {
            opts.resultMemoCapacity = number(0, kSizeMax);
        } else if (arg == "--keep-alive-idle-ms") {
            opts.keepAliveIdleMs = static_cast<int>(number(0, kIntMax));
        } else if (arg == "--quiet" || arg == "-q") {
            quiet = true;
        } else {
            std::fprintf(stderr, "mgx_serve: unknown option '%s'\n",
                         arg.c_str());
            return usage(stderr);
        }
    }

    serve::Server server(opts);
    server.start();

    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    if (!quiet)
        std::printf("mgx_serve: listening on %s\n",
                    server.addressDescription().c_str());
    std::fflush(stdout);

    // Sleep until a signal or a /shutdown request flips the flag.
    while (!g_signaled && !server.stopping())
        ::poll(nullptr, 0, 100);

    server.shutdown();

    if (!quiet) {
        const auto s = server.metricsSnapshot();
        std::printf("mgx_serve: drained; served %llu, rejected %llu, "
                    "cells %llu, collapsed %llu\n",
                    static_cast<unsigned long long>(s.served),
                    static_cast<unsigned long long>(s.rejected),
                    static_cast<unsigned long long>(s.cellsRun),
                    static_cast<unsigned long long>(s.dedupCollapsed));
    }
    return 0;
}
