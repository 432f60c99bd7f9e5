#include "experiment.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <map>
#include <mutex>
#include <thread>

#include "common/log.h"
#include "trace_io.h"
#include "workload_registry.h"

namespace mgx::sim {
namespace {

/**
 * Trace-generation version, folded into every cache file name so a
 * directory kept across code changes never serves stale traces. Bump
 * it whenever kernels generate different traces for the same
 * workload name or the trace_io format changes — equal keys only
 * guarantee equal traces within one generator version.
 *
 * v2: trace files carry the integrity envelope (magic header +
 * CRC32 footer); v1 files are unverifiable and simply never match.
 */
constexpr unsigned kTraceCacheVersion = 2;

/** Age below which sweepTraceCacheDebris leaves debris alone — far
 *  above any real trace write, so a live writer's temporary always
 *  survives the sweep. */
constexpr std::chrono::seconds kSweepGrace = std::chrono::minutes(15);

/**
 * File name a cached trace is stored under: the cache key with
 * filesystem-hostile characters flattened, plus an FNV-1a hash of the
 * unflattened key and generator version so distinct keys — or the
 * same key across trace-generation changes — never collide.
 */
std::string
traceCacheFileName(const std::string &key)
{
    u64 h = 14695981039346656037ull;
    const auto fold = [&h](char c) {
        h ^= static_cast<u8>(c);
        h *= 1099511628211ull;
    };
    fold(static_cast<char>('0' + kTraceCacheVersion));
    fold('|');
    for (char c : key)
        fold(c);
    std::string name;
    name.reserve(key.size() + 24);
    for (char c : key) {
        const bool keep = (c >= 'a' && c <= 'z') ||
                          (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '-' ||
                          c == '.' || c == '=';
        name += keep ? c : '_';
    }
    char hash[32];
    std::snprintf(hash, sizeof hash, "-v%u-%016llx", kTraceCacheVersion,
                  static_cast<unsigned long long>(h));
    return name + hash + ".trace";
}

/** Refresh a cache file's mtime on use, so mtime order is LRU order. */
void
touchCacheFile(const std::string &file)
{
    std::error_code ec;
    std::filesystem::last_write_time(
        file, std::filesystem::file_time_type::clock::now(), ec);
}

/**
 * Run body(0..n-1) on up to @p threads workers. Work is claimed from
 * one atomic counter, so any body(i) runs exactly once; callers must
 * make bodies independent and write to disjoint slots.
 */
template <typename Body>
void
parallelFor(std::size_t n, u32 threads, const Body &body)
{
    u32 workers = threads != 0 ? threads
                               : std::max(1u, std::thread::hardware_concurrency());
    workers = static_cast<u32>(
        std::min<std::size_t>(workers, n));
    if (workers <= 1) {
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    std::atomic<std::size_t> next{0};
    auto worker = [&] {
        for (std::size_t i = next.fetch_add(1); i < n;
             i = next.fetch_add(1))
            body(i);
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (u32 w = 0; w < workers; ++w)
        pool.emplace_back(worker);
    for (auto &t : pool)
        t.join();
}

} // namespace

void
ResultSet::add(RunRecord record)
{
    records_.push_back(std::move(record));
}

const RunResult *
ResultSet::find(const std::string &workload,
                const std::string &platform,
                protection::Scheme scheme) const
{
    for (const auto &r : records_) {
        if (r.key.scheme == scheme && r.key.workload == workload &&
            r.key.platform == platform)
            return &r.result;
    }
    return nullptr;
}

std::optional<double>
ResultSet::normalizedTime(const std::string &workload,
                          const std::string &platform,
                          protection::Scheme scheme) const
{
    const RunResult *np =
        find(workload, platform, protection::Scheme::NP);
    const RunResult *run = find(workload, platform, scheme);
    if (np == nullptr || run == nullptr || np->totalCycles == 0)
        return std::nullopt;
    return static_cast<double>(run->totalCycles) /
           static_cast<double>(np->totalCycles);
}

std::optional<double>
ResultSet::trafficIncrease(const std::string &workload,
                           const std::string &platform,
                           protection::Scheme scheme) const
{
    const RunResult *np =
        find(workload, platform, protection::Scheme::NP);
    const RunResult *run = find(workload, platform, scheme);
    if (np == nullptr || run == nullptr ||
        np->traffic.totalBytes() == 0)
        return std::nullopt;
    return static_cast<double>(run->traffic.totalBytes()) /
           static_cast<double>(np->traffic.totalBytes());
}

std::vector<std::string>
ResultSet::workloads() const
{
    std::vector<std::string> names;
    for (const auto &r : records_)
        if (std::find(names.begin(), names.end(), r.key.workload) ==
            names.end())
            names.push_back(r.key.workload);
    return names;
}

std::vector<std::string>
ResultSet::platforms() const
{
    std::vector<std::string> names;
    for (const auto &r : records_)
        if (std::find(names.begin(), names.end(), r.key.platform) ==
            names.end())
            names.push_back(r.key.platform);
    return names;
}

std::vector<protection::Scheme>
ResultSet::schemes() const
{
    std::vector<protection::Scheme> ss;
    for (const auto &r : records_)
        if (std::find(ss.begin(), ss.end(), r.key.scheme) == ss.end())
            ss.push_back(r.key.scheme);
    return ss;
}

Experiment &
Experiment::workload(const std::string &name)
{
    entries_.push_back({name, false, {}});
    return *this;
}

Experiment &
Experiment::workloads(const std::vector<std::string> &names)
{
    for (const auto &n : names)
        workload(n);
    return *this;
}

Experiment &
Experiment::trace(const std::string &label, core::Trace trace)
{
    entries_.push_back({label, true, std::move(trace)});
    return *this;
}

Experiment &
Experiment::platform(const Platform &p)
{
    platforms_.push_back(p);
    return *this;
}

Experiment &
Experiment::platforms(const std::vector<Platform> &ps)
{
    platforms_.insert(platforms_.end(), ps.begin(), ps.end());
    return *this;
}

Experiment &
Experiment::schemes(const std::vector<protection::Scheme> &ss)
{
    schemes_ = ss;
    return *this;
}

Experiment &
Experiment::config(const protection::ProtectionConfig &cfg)
{
    config_ = cfg;
    return *this;
}

Experiment &
Experiment::threads(u32 n)
{
    threads_ = n;
    return *this;
}

Experiment &
Experiment::traceCacheDir(const std::string &dir)
{
    traceCacheDir_ = dir;
    return *this;
}

Experiment &
Experiment::traceCacheMaxBytes(u64 bytes)
{
    traceCacheMaxBytes_ = bytes;
    return *this;
}

u64
enforceTraceCacheLimit(const std::string &dir, u64 max_bytes)
{
    namespace fs = std::filesystem;
    struct CacheFile
    {
        fs::path path;
        fs::file_time_type mtime;
        u64 bytes = 0;
    };
    std::vector<CacheFile> files;
    u64 total = 0;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (ec)
            break;
        if (!entry.is_regular_file(ec) || ec)
            continue;
        if (entry.path().extension() != ".trace")
            continue; // never delete anything the cache did not write
        std::error_code fec;
        const u64 bytes = entry.file_size(fec);
        if (fec)
            continue;
        const auto mtime = fs::last_write_time(entry.path(), fec);
        if (fec)
            continue;
        files.push_back({entry.path(), mtime, bytes});
        total += bytes;
    }
    std::sort(files.begin(), files.end(),
              [](const CacheFile &a, const CacheFile &b) {
                  return a.mtime != b.mtime ? a.mtime < b.mtime
                                            : a.path < b.path;
              });
    u64 evicted = 0;
    for (const auto &file : files) {
        if (total <= max_bytes)
            break;
        std::error_code rec;
        fs::remove(file.path, rec); // racing deleters are fine
        total -= file.bytes;
        ++evicted;
    }
    return evicted;
}

u64
sweepTraceCacheDebris(const std::string &dir,
                      std::chrono::seconds grace)
{
    namespace fs = std::filesystem;
    u64 removed = 0;
    std::error_code ec;
    const auto now = fs::file_time_type::clock::now();
    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (ec)
            break;
        if (!entry.is_regular_file(ec) || ec)
            continue;
        const std::string name = entry.path().filename().string();
        const bool tmp = name.find(".trace.tmp.") != std::string::npos;
        const bool bad =
            name.size() > 10 &&
            name.compare(name.size() - 10, 10, ".trace.bad") == 0;
        if (!tmp && !bad)
            continue;
        std::error_code fec;
        const auto mtime = fs::last_write_time(entry.path(), fec);
        if (fec || now - mtime < grace)
            continue; // young debris may still have a live writer
        std::error_code rec;
        if (fs::remove(entry.path(), rec) && !rec)
            ++removed;
    }
    return removed;
}

ResultSet
Experiment::run() const
{
    const std::vector<protection::Scheme> schemes =
        schemes_.empty() ? allSchemes() : schemes_;

    // Expand the grid: one cell per entry x platform x scheme, where
    // an entry's platforms are the declared axis or (registry
    // workloads only) its domain default.
    struct Cell
    {
        const Entry *entry;
        Platform platform;
        protection::Scheme scheme;
        std::size_t traceJob; ///< index into jobs
    };

    struct TraceJob
    {
        std::string name;     ///< registry name (generated jobs)
        Platform platform;    ///< platform it is generated for
        std::string cacheKey; ///< traceCacheKey (generated jobs)
        const core::Trace *explicitTrace = nullptr;
    };

    std::vector<Cell> cells;
    std::vector<TraceJob> jobs;
    std::map<std::string, std::size_t> jobByKey;

    for (const auto &entry : entries_) {
        std::vector<Platform> entry_platforms = platforms_;
        if (entry_platforms.empty()) {
            if (entry.isExplicitTrace)
                fatal("experiment trace '%s' needs platforms(...); "
                      "only registry workloads have a default platform",
                      entry.label.c_str());
            entry_platforms.push_back(defaultPlatform(entry.label));
        }
        for (const auto &platform : entry_platforms) {
            const std::string key =
                entry.isExplicitTrace
                    ? "trace:" + entry.label
                    : traceCacheKey(entry.label, platform);
            auto [it, inserted] =
                jobByKey.try_emplace(key, jobs.size());
            if (inserted)
                jobs.push_back({entry.label, platform,
                                entry.isExplicitTrace ? std::string{}
                                                      : key,
                                entry.isExplicitTrace
                                    ? &entry.explicitTrace
                                    : nullptr});
            else if (entry.isExplicitTrace &&
                     jobs[it->second].explicitTrace !=
                         &entry.explicitTrace)
                fatal("experiment has two different traces under the "
                      "label '%s'",
                      entry.label.c_str());
            for (protection::Scheme scheme : schemes)
                cells.push_back(
                    {&entry, platform, scheme, it->second});
        }
    }

    // Phase 1: fill the trace cache once per distinct key, in
    // parallel. A fresh kernel per job keeps generation deterministic
    // regardless of scheduling. A key that was serialized by an
    // earlier run (any process) is reused — its mtime is touched so
    // LRU eviction sees the use — and a missing key is streamed into
    // its file phase by phase (TraceFileWriteSink) exactly once;
    // distinct jobs write distinct files, so the parallel writers
    // never collide. Without a cache directory there is no phase 1 at
    // all — every cell streams its own fresh kernel.
    // The cache directory is treated as unreliable: if it cannot be
    // created (or later misbehaves), the run degrades to streaming
    // kernels directly — results are exact either way, only reuse is
    // lost — and the fault is reported through the ResultSet's
    // cache-health stats instead of killing the process (the serving
    // daemon must outlive a broken disk; the CLI prints a warning).
    std::string cacheDir = traceCacheDir_;
    u64 cache_swept = 0;
    u64 cache_faults = 0;
    if (!cacheDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(cacheDir, ec);
        if (ec) {
            MGX_WARN("cannot create trace-cache dir '%s' (%s); "
                     "running uncached",
                     cacheDir.c_str(), ec.message().c_str());
            ++cache_faults;
            cacheDir.clear();
        } else {
            // Startup sweep: crashed writers leak `*.trace.tmp.*`
            // forever, quarantined files pile up; both go once aged.
            cache_swept = sweepTraceCacheDebris(cacheDir, kSweepGrace);
        }
    }
    const auto cacheFilePath = [&cacheDir](const TraceJob &job) {
        return (std::filesystem::path(cacheDir) /
                traceCacheFileName(job.cacheKey))
            .string();
    };
    enum class CacheOutcome : u8 { None, Hit, Miss, Fault };
    // Make the job's cache file exist. The hit probe only checks that
    // the file exists: the cache is shared across processes, so a
    // foreign evictor may delete the file at any instant, and phase 2
    // falls back to the kernel. Integrity is verified during the
    // replay itself (phase 2 repairs a file that fails it).
    const auto fillCache = [&](const TraceJob &job) {
        const std::string file = cacheFilePath(job);
        const auto tryHit = [&]() -> bool {
            std::error_code ec;
            if (!std::filesystem::exists(file, ec) || ec)
                return false;
            touchCacheFile(file);
            return true;
        };
        if (tryHit())
            return CacheOutcome::Hit;
        // Miss: take the per-key cross-process lock so two processes
        // missing on the same key generate once between them — the
        // loser of the race waits here, then finds the winner's file
        // on the re-check. (In-process, distinct jobs have distinct
        // keys, so the lock never self-serializes a grid.) Any cache
        // I/O failure inside the boundary — lock, write, publish —
        // degrades this job to uncached: the cells find no file in
        // phase 2 and stream their own fresh kernel.
        try {
            TraceCacheLock lock(file);
            if (tryHit())
                return CacheOutcome::Hit;
            auto kernel = makeKernel(job.name, job.platform);
            TraceFileWriteSink sink(file);
            kernel->stream()->drainTo(sink);
            sink.finish();
            return CacheOutcome::Miss;
        } catch (const TraceIoError &) {
            return CacheOutcome::Fault;
        }
    };
    const u32 budget =
        threads_ != 0
            ? threads_
            : std::max(1u, std::thread::hardware_concurrency());
    std::vector<CacheOutcome> outcomes(jobs.size(), CacheOutcome::None);
    parallelFor(jobs.size(), budget, [&](std::size_t i) {
        if (!cacheDir.empty() && jobs[i].explicitTrace == nullptr)
            outcomes[i] = fillCache(jobs[i]);
    });

    // Phase 2: simulate every cell on fresh per-cell state, each
    // through one PerfModel::run(PhaseSource&). Explicit traces stream
    // out of their arena; registry cells pull phases from the cache
    // file (when caching) or from their own fresh kernel —
    // deterministic either way, so the two are bitwise-identical on
    // every RunResult field.
    //
    // A cache file that fails verification is repaired once per job,
    // under that job's mutex: the first cell to see it quarantines the
    // file and regenerates it through fillCache (the job then counts
    // as a miss); cells of the same job that saw the old file wait for
    // the repair and replay the fresh one.
    std::vector<std::mutex> repairLocks(jobs.size());
    std::vector<char> repaired(jobs.size(), 0);
    std::vector<RunResult> results(cells.size());
    parallelFor(cells.size(), budget, [&](std::size_t i) {
        const Cell &cell = cells[i];
        const TraceJob &job = jobs[cell.traceJob];
        // Model state is built fresh per simulation attempt: when a
        // cached replay dies mid-stream on a corrupt file, the retry
        // must not inherit half-replayed DRAM or metadata state.
        const auto simulate = [&](core::PhaseSource &source) {
            dram::DramSystem dram(cell.platform.dram);
            protection::ProtectionConfig cfg = config_;
            cfg.scheme = cell.scheme;
            protection::ProtectionEngine engine(cfg, &dram);
            PerfModel model(&engine, cell.platform.clockMhz);
            results[i] = model.run(source);
        };
        if (job.explicitTrace != nullptr) {
            core::TracePhaseSource source(*job.explicitTrace);
            simulate(source);
            return;
        }
        if (!cacheDir.empty()) {
            // The cache is shared across processes, so another run's
            // eviction may have deleted the file since phase 1 touched
            // it; fall back to streaming the kernel directly (equal
            // keys guarantee the identical phase stream). The checksum
            // footer is only reached at the end of the replay, so a
            // corrupt file is caught after the fact and the cell
            // restarts on fresh state.
            const std::string file = cacheFilePath(job);
            const auto replayCached = [&]() -> std::optional<bool> {
                auto source = FilePhaseSource::openIfReadable(
                    file, /*require_checksum=*/true);
                if (!source)
                    return std::nullopt; // gone: stream the kernel
                try {
                    simulate(*source);
                    return true;
                } catch (const TraceIoError &) {
                    return false; // failed verification
                }
            };
            std::optional<bool> replayed = replayCached();
            if (replayed == false) {
                {
                    std::lock_guard<std::mutex> guard(
                        repairLocks[cell.traceJob]);
                    if (!repaired[cell.traceJob]) {
                        repaired[cell.traceJob] = 1;
                        quarantineTraceFile(file);
                        outcomes[cell.traceJob] = fillCache(job);
                    }
                }
                replayed = replayCached();
            }
            if (replayed == true)
                return;
        }
        auto kernel = makeKernel(job.name, job.platform);
        simulate(*kernel->stream());
    });

    if (!cacheDir.empty() && traceCacheMaxBytes_ > 0)
        enforceTraceCacheLimit(cacheDir, traceCacheMaxBytes_);

    u64 cache_hits = 0;
    u64 cache_misses = 0;
    for (CacheOutcome outcome : outcomes) {
        cache_hits += outcome == CacheOutcome::Hit;
        cache_misses += outcome == CacheOutcome::Miss;
        cache_faults += outcome == CacheOutcome::Fault;
    }
    const u64 cache_quarantined = static_cast<u64>(
        std::count(repaired.begin(), repaired.end(), 1));
    ResultSet rs;
    rs.setTraceCacheStats(cache_hits, cache_misses);
    rs.setTraceCacheHealth(cache_quarantined, cache_swept, cache_faults);
    for (std::size_t i = 0; i < cells.size(); ++i)
        rs.add({{cells[i].entry->label, cells[i].platform.name,
                 cells[i].scheme},
                results[i]});
    return rs;
}

} // namespace mgx::sim
