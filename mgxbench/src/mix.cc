#include "mix.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <numeric>

#include "serve/http.h"

namespace mgxbench {
namespace {

/** splitmix64: a fixed, portable generator (std distributions are not). */
class SplitMix
{
  public:
    explicit SplitMix(mgx::u64 seed) : s_(seed) {}

    mgx::u64
    next()
    {
        mgx::u64 z = (s_ += 0x9E3779B97F4A7C15ull);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
        return z ^ (z >> 31);
    }

    /** Uniform in [0, n). */
    mgx::u64 below(mgx::u64 n) { return next() % n; }

    /** Uniform in [0, 1). */
    double unit() { return static_cast<double>(next() >> 11) * 0x1p-53; }

  private:
    mgx::u64 s_;
};

constexpr const char *kDiskSchemes[] = {"MGX", "BP", "MGX_VN", "MGX_MAC"};
// Assumed shares and lag (see mix.h): no recorded traffic backs them.
constexpr double kFirstShare = 0.08;
constexpr double kDiskShare = 0.12;
constexpr std::size_t kDiskLag = 8;

} // namespace

const char *
kindName(RequestKind k)
{
    switch (k) {
    case RequestKind::Hot: return "hot";
    case RequestKind::First: return "first";
    case RequestKind::Disk: return "disk";
    }
    return "?";
}

std::vector<Request>
hotCells()
{
    std::vector<Request> out;
    for (const char *s : {"NP", "MGX", "MGX_VN", "MGX_MAC", "BP"})
        out.push_back({RequestKind::Hot, "core/matmul", s});
    for (const char *s : {"NP", "MGX", "BP"})
        out.push_back({RequestKind::Hot, "video/h264", s});
    return out;
}

std::vector<std::string>
poolWorkloads()
{
    // Small scaled graphs: ~10 ms engine runs with a real trace to
    // cache, and an unbounded supply of distinct inputs via seed=.
    std::vector<std::string> out;
    const char *algs[] = {"pagerank", "bfs", "sssp"};
    for (int i = 0; i < 96; ++i)
        out.push_back(std::string("graph/google-plus/") + algs[i % 3] +
                      "?seed=" + std::to_string(100 + i / 3));
    return out;
}

Mix::Mix(mgx::u64 seed) : seed_(seed), order_(poolWorkloads().size())
{
    // The run-wide pool order depends on the seed only.
    std::iota(order_.begin(), order_.end(), 0);
    SplitMix perm(seed * 0x2545F4914F6CDD1Dull + 1);
    for (std::size_t i = order_.size(); i > 1; --i)
        std::swap(order_[i - 1], order_[perm.below(i)]);
}

std::vector<Request>
Mix::next(std::size_t n)
{
    const std::vector<Request> hot = hotCells();
    const std::vector<std::string> pool = poolWorkloads();
    const auto firsts = static_cast<std::size_t>(
        std::lround(kFirstShare * static_cast<double>(n)));
    const mgx::u64 batch = batch_++;

    SplitMix rng(seed_ ^ (0x9E3779B97F4A7C15ull * (batch + 1)));
    struct Open
    {
        std::size_t workload;
        std::size_t position; ///< index of its First request
        std::size_t used = 0; ///< Disk schemes already requested
    };
    std::deque<Open> open; // generated workloads with schemes left
    std::size_t firsts_left = firsts;

    std::vector<Request> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const double u = rng.unit();
        const std::size_t remaining = n - i;
        // Spread the First requests evenly: force one when the rest of
        // the batch can only just hold them.
        const bool want_first =
            firsts_left > 0 &&
            (u < kFirstShare || firsts_left >= remaining);
        if (want_first) {
            const std::size_t w = order_[nextFirst_++ % order_.size()];
            out.push_back({RequestKind::First, pool[w], "NP"});
            open.push_back({w, i});
            --firsts_left;
            continue;
        }
        if (u < kFirstShare + kDiskShare && !open.empty() &&
            i - open.front().position >= kDiskLag) {
            Open &o = open.front();
            out.push_back({RequestKind::Disk, pool[o.workload],
                           kDiskSchemes[o.used++]});
            if (o.used == std::size(kDiskSchemes))
                open.pop_front();
            continue;
        }
        out.push_back(hot[rng.below(hot.size())]);
    }
    return out;
}

std::string
runTarget(const Request &r)
{
    return "/run?workload=" + mgx::serve::percentEncode(r.workload) +
           "&schemes=" + r.scheme;
}

} // namespace mgxbench
