/**
 * @file
 * Unit tests of the benchmark's own arithmetic: the tail-percentile
 * rule, span self time, and the seeded serve mix. Built with the
 * benchmark (`run.py --selftest` runs it); exits non-zero on failure.
 */
#include <cmath>
#include <cstdio>
#include <set>

#include "mix.h"
#include "stats.h"

namespace {

int failures = 0;

void
check(bool ok, const char *what, int line)
{
    if (!ok) {
        std::fprintf(stderr, "bench_test.cc:%d: FAILED: %s\n", line, what);
        ++failures;
    }
}

#define CHECK(x) check((x), #x, __LINE__)

bool
near(double a, double b)
{
    return std::fabs(a - b) < 1e-9;
}

void
testMedian()
{
    using mgxbench::median;
    CHECK(median({}) == 0.0);
    CHECK(median({3.0}) == 3.0);
    CHECK(median({5.0, 1.0, 3.0}) == 3.0);
    CHECK(median({4.0, 1.0, 3.0, 2.0}) == 2.5);
}

void
testTailPercentile()
{
    using mgxbench::tailPercentile;
    std::vector<double> v;
    for (int i = 1; i <= 200; ++i)
        v.push_back(i);
    // 200 samples: p95 is rank 190, with exactly 10 samples beyond.
    CHECK(tailPercentile(v, 95).has_value());
    CHECK(tailPercentile(v, 95).value() == 190.0);
    // 199 samples: rank ceil(189.05) = 190 leaves only 9 beyond.
    v.pop_back();
    CHECK(!tailPercentile(v, 95).has_value());
    // p50 of 199 is rank 100; p99 of 1000 is rank 990 with 10 beyond.
    CHECK(tailPercentile(v, 50).value() == 100.0);
    std::vector<double> big;
    for (int i = 1000; i >= 1; --i)
        big.push_back(i);
    CHECK(tailPercentile(big, 99).value() == 990.0);
    CHECK(!tailPercentile(big, 99.5).has_value());
    CHECK(!tailPercentile({}, 50).has_value());
    CHECK(!tailPercentile(big, 100).has_value());
}

void
testSelfTime()
{
    using mgxbench::Span;
    using mgxbench::SpanRecorder;
    // root [0,10] with children [1,3], [2,5] (overlapping -> [1,5]),
    // [8,12] (clipped to [8,10]); a grandchild never counts against
    // the root.
    std::vector<Span> s = {
        {"root", 0, 10, -1, 1}, {"a", 1, 3, 0, 1}, {"b", 2, 5, 0, 1},
        {"c", 8, 12, 0, 1},     {"d", 1.5, 2.5, 1, 1},
    };
    CHECK(near(SpanRecorder::selfTime(s, 0), 10 - 4 - 2));
    CHECK(near(SpanRecorder::selfTime(s, 1), 2 - 1));
    CHECK(near(SpanRecorder::selfTime(s, 3), 4));
    const auto all = SpanRecorder::selfTimes(s);
    for (std::size_t i = 0; i < s.size(); ++i)
        CHECK(near(all[i], SpanRecorder::selfTime(s, static_cast<long>(i))));

    SpanRecorder rec;
    const long root = rec.begin("root", -1, 7);
    const long child = rec.begin("child", root, 7);
    rec.end(child);
    rec.end(root);
    const auto live = rec.spans();
    CHECK(live.size() == 2 && live[1].parent == root && live[1].request == 7);
    CHECK(SpanRecorder::selfTime(live, root) >= 0.0);
    CHECK(SpanRecorder::selfTime(live, root) <=
          live[0].end - live[0].start);
}

bool
sameRequests(const std::vector<mgxbench::Request> &a,
             const std::vector<mgxbench::Request> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].workload != b[i].workload || a[i].scheme != b[i].scheme ||
            a[i].kind != b[i].kind)
            return false;
    return true;
}

void
testMix()
{
    using namespace mgxbench;
    Mix m11(11), again(11), m12(12);
    std::vector<Request> a, c;
    for (int b = 0; b < 4; ++b) {
        a = m11.next(400);
        CHECK(sameRequests(a, again.next(400)));
        c = m12.next(400);
    }
    CHECK(a.size() == 400);
    CHECK(!sameRequests(a, c));

    std::size_t first = 0, disk = 0;
    std::set<std::string> firsts;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].kind == RequestKind::First) {
            ++first;
            firsts.insert(a[i].workload);
            CHECK(a[i].scheme == "NP");
        } else if (a[i].kind == RequestKind::Disk) {
            ++disk;
            // A Disk request follows its workload's First request.
            bool seen = false;
            for (std::size_t j = 0; j + 8 <= i; ++j)
                seen = seen || (a[j].kind == RequestKind::First &&
                                a[j].workload == a[i].workload);
            CHECK(seen);
        }
    }
    CHECK(first == 32);            // 8% of 400, exactly
    CHECK(firsts.size() == first); // no workload twice in one batch
    CHECK(disk > 20 && disk < 80);

    // Consecutive batches walk on through the pool.
    for (const auto &r : m11.next(400))
        if (r.kind == RequestKind::First)
            CHECK(firsts.count(r.workload) == 0);
    CHECK(runTarget({RequestKind::First, "graph/x/bfs?seed=1", "NP"}) ==
          "/run?workload=graph/x/bfs%3Fseed%3D1&schemes=NP");
}

void
testMixNeverRepeatsWithinMemoReach()
{
    using namespace mgxbench;
    // The traced serve run's batch sizes: overhead batches, the
    // open-loop ladder (smaller batches), then the engine-path batch.
    const std::size_t sizes[] = {400, 400, 400, 400, 400, 400,
                                 200, 300, 400, 400, 400};
    // Both workers' result memos together (mgx_serve's default 64).
    const std::size_t memo_reach = 2 * 64;
    Mix mix(11);
    std::vector<std::string> cells; // First and Disk cells, in order
    std::set<std::string> first_seen;
    bool repeated = false;
    for (std::size_t n : sizes) {
        for (const Request &r : mix.next(n)) {
            if (r.kind == RequestKind::Hot)
                continue;
            const std::string key = r.workload + " " + r.scheme;
            // A cell asked again has had more distinct cells between
            // its two requests than the memos hold: a memo miss again.
            for (std::size_t j = cells.size(); j-- > 0;)
                if (cells[j] == key) {
                    repeated = true;
                    std::set<std::string> between(cells.begin() + j + 1,
                                                  cells.end());
                    CHECK(between.size() >= memo_reach);
                    break;
                }
            if (r.kind == RequestKind::First)
                first_seen.insert(r.workload);
            cells.push_back(key);
        }
    }
    CHECK(repeated); // the sequence does wrap around the pool
    CHECK(first_seen.size() == poolWorkloads().size());
}

} // namespace

int
main()
{
    testMedian();
    testTailPercentile();
    testSelfTime();
    testMix();
    testMixNeverRepeatsWithinMemoReach();
    if (failures == 0)
        std::printf("mgxbench_test: all checks passed\n");
    return failures == 0 ? 0 : 1;
}
