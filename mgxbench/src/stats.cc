#include "stats.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace mgxbench {

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::optional<double>
tailPercentile(std::vector<double> v, double pct, std::size_t beyond)
{
    const std::size_t n = v.size();
    if (n == 0 || pct <= 0.0 || pct >= 100.0)
        return std::nullopt;
    // Nearest rank: the smallest value with at least pct% of the
    // sample at or below it (1-based rank ceil(pct/100 * n)).
    const auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
    const std::size_t r = std::max<std::size_t>(rank, 1);
    if (n - r < beyond)
        return std::nullopt;
    std::nth_element(v.begin(), v.begin() + static_cast<long>(r - 1),
                     v.end());
    return v[r - 1];
}

long
SpanRecorder::begin(const std::string &name, long parent,
                    mgx::u64 request)
{
    const double t = at(Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, t, t, parent, request});
    return static_cast<long>(spans_.size() - 1);
}

void
SpanRecorder::end(long id)
{
    const double t = at(Clock::now());
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(id)].end = t;
}

long
SpanRecorder::add(const std::string &name, Clock::time_point start,
                  Clock::time_point end, long parent, mgx::u64 request)
{
    const double s = at(start);
    const double e = at(end);
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, s, e, parent, request});
    return static_cast<long>(spans_.size() - 1);
}

std::vector<Span>
SpanRecorder::spans() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

namespace {

/** Duration of @p s minus the union of @p kids' intervals clipped to it. */
double
uncovered(const Span &s, std::vector<std::pair<double, double>> kids)
{
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = s.start;
    for (const auto &[a, b] : kids) {
        const double from = std::max({a, reach, s.start});
        const double to = std::min(b, s.end);
        if (to > from)
            covered += to - from;
        reach = std::max(reach, to);
    }
    return (s.end - s.start) - covered;
}

} // namespace

std::vector<double>
SpanRecorder::selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
    for (const Span &c : spans)
        if (c.parent >= 0 && static_cast<std::size_t>(c.parent) < spans.size())
            kids[static_cast<std::size_t>(c.parent)].emplace_back(c.start,
                                                                  c.end);
    std::vector<double> out(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[i] = uncovered(spans[i], std::move(kids[i]));
    return out;
}

double
SpanRecorder::selfTime(const std::vector<Span> &spans, long id)
{
    std::vector<std::pair<double, double>> kids;
    for (const Span &c : spans)
        if (c.parent == id)
            kids.emplace_back(c.start, c.end);
    return uncovered(spans[static_cast<std::size_t>(id)], std::move(kids));
}

void
SpanRecorder::write(std::ostream &out) const
{
    const std::vector<Span> all = spans();
    const std::vector<double> self = selfTimes(all);
    char buf[160];
    for (std::size_t i = 0; i < all.size(); ++i) {
        const Span &s = all[i];
        std::snprintf(buf, sizeof buf,
                      "\", \"start\": %.9f, \"end\": %.9f, \"parent\": %ld"
                      ", \"request\": %llu, \"self\": %.9f}\n",
                      s.start, s.end, s.parent,
                      static_cast<unsigned long long>(s.request),
                      self[i]);
        out << "{\"id\": " << i << ", \"name\": \"" << s.name << buf;
    }
}

} // namespace mgxbench
