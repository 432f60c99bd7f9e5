/**
 * @file
 * Summary statistics and the span recorder shared by every benchmark
 * workload.
 *
 * Timings are reported as a median plus the highest percentile that
 * still has at least ten samples beyond it; tailPercentile() refuses a
 * percentile the sample cannot support rather than quietly reporting
 * the maximum.
 *
 * Spans live in memory (one vector, appended under a mutex) and are
 * written once, when the run ends. A span's self time is its duration
 * minus the part of its interval that its children cover.
 */
#ifndef MGXBENCH_STATS_H
#define MGXBENCH_STATS_H

#include <chrono>
#include <cstddef>
#include <mutex>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/types.h"

namespace mgxbench {

using Clock = std::chrono::steady_clock;

/** Seconds between two clock samples. */
inline double
seconds(Clock::time_point from, Clock::time_point to)
{
    return std::chrono::duration<double>(to - from).count();
}

/** Median of @p v (mean of the middle two for even sizes); 0 if empty. */
double median(std::vector<double> v);

/** Samples needed beyond a reported tail percentile. */
constexpr std::size_t kTailBeyond = 10;

/**
 * Nearest-rank @p pct percentile (0 < pct < 100) of @p v, or nullopt
 * when fewer than @p beyond samples lie strictly above its rank — the
 * rule that keeps a p95 off a handful of outliers (p95 needs >= 200
 * samples).
 */
std::optional<double> tailPercentile(std::vector<double> v, double pct,
                                     std::size_t beyond = kTailBeyond);

/** One timed interval at a layer boundary. */
struct Span
{
    std::string name;
    double start = 0.0; ///< seconds since the recorder's epoch
    double end = 0.0;
    long parent = -1;   ///< index of the enclosing span, -1 for a root
    mgx::u64 request = 0; ///< spans of one request/cell share this id
};

/**
 * In-memory span store. begin()/end() take one clock sample each and
 * are safe to call from several threads.
 */
class SpanRecorder
{
  public:
    SpanRecorder() : epoch_(Clock::now()) {}

    /** Open a span; returns its id (pass it to end() and as a parent). */
    long begin(const std::string &name, long parent, mgx::u64 request);

    /** Close span @p id now. */
    void end(long id);

    /** Record an already-measured interval (clock samples taken by the
     *  caller, e.g. inside a load-generator thread). */
    long add(const std::string &name, Clock::time_point start,
             Clock::time_point end, long parent, mgx::u64 request);

    std::vector<Span> spans() const;

    /** Duration minus the union of the children's (clipped) intervals. */
    static double selfTime(const std::vector<Span> &spans, long id);

    /** selfTime() of every span, in one pass. */
    static std::vector<double> selfTimes(const std::vector<Span> &spans);

    /** One JSON object per line: name, start, end, parent, request, self. */
    void write(std::ostream &out) const;

  private:
    double at(Clock::time_point t) const { return seconds(epoch_, t); }

    Clock::time_point epoch_;
    mutable std::mutex mu_;
    std::vector<Span> spans_; ///< guarded by mu_
};

/** Scoped span: begin on construction, end on destruction. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder *rec, const std::string &name, long parent,
               mgx::u64 request)
        : rec_(rec), id_(rec ? rec->begin(name, parent, request) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (rec_)
            rec_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    long id() const { return id_; }

  private:
    SpanRecorder *rec_;
    long id_;
};

} // namespace mgxbench

#endif // MGXBENCH_STATS_H
