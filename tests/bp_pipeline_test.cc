/**
 * @file
 * Tests for the BP metadata-pipeline overhaul: same-line memo
 * coalescing, tree-walk memoization, the deferred MAC queue's batch
 * replay, and the metadata-range walker — all of which must be
 * invisible in the model's outputs.
 *
 * Three layers:
 *  - unit: memo arming/invalidation semantics in MetaCache, and the
 *    BaselineWalker's bit-equality with the point queries;
 *  - property: a touch-then-access stream and an access-only stream
 *    drive two caches identically, and DramSystem::accessBatch
 *    matches per-request access() cycle for cycle;
 *  - golden: BP/MGX_MAC cells under a deliberately tiny (2 KB)
 *    metadata cache — constant evictions, so memos go stale at the
 *    highest possible rate — pinned against numbers captured from the
 *    pre-overhaul engine (commit 2e6544b).
 */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "common/rng.h"
#include "dram/dram_system.h"
#include "protection/meta_cache.h"
#include "protection/metadata_layout.h"
#include "sim/experiment.h"

namespace mgx {
namespace {

using protection::CacheResult;
using protection::MetaCache;
using protection::MetaClass;
using protection::MetadataLayout;
using protection::ProtectionConfig;
using protection::Scheme;

// ---------------------------------------------------------------------
// MetaCache memos
// ---------------------------------------------------------------------

TEST(MetaCacheMemo, DefaultMemoNeverMatches)
{
    MetaCache cache(1 << 10, 4);
    MetaCache::Memo memo;
    EXPECT_FALSE(cache.touch(memo, 0x0, false));
}

TEST(MetaCacheMemo, AccessArmsMemoForFollowUpTouches)
{
    MetaCache cache(1 << 10, 4);
    MetaCache::Memo memo;
    EXPECT_FALSE(cache.access(0x40, false, MetaClass::Vn, &memo).hit);
    // Same line: the memo short-circuits, and it is a real hit (the
    // line was just allocated).
    EXPECT_TRUE(cache.touch(memo, 0x40, false));
    // A different line never matches the memo.
    EXPECT_FALSE(cache.touch(memo, 0x80, false));
}

TEST(MetaCacheMemo, EvictionBumpsGenerationAndKillsStaleMemo)
{
    // 256 B, 2 ways => 2 sets; lines 0x0, 0x100, 0x200 share set 0.
    MetaCache cache(256, 2);
    MetaCache::Memo memo;
    cache.access(0x0, false, MetaClass::Vn, &memo);
    const u64 gen0 = cache.generation();
    EXPECT_TRUE(cache.touch(memo, 0x0, false));

    // Fill the set until 0x0 is the LRU victim.
    cache.access(0x100, false, MetaClass::Tree);
    cache.access(0x200, false, MetaClass::Tree);
    EXPECT_GT(cache.generation(), gen0)
        << "an eviction must bump the generation";
    EXPECT_FALSE(cache.touch(memo, 0x0, false))
        << "a memo whose line was evicted must not touch";
    // The full access path recovers (and re-arms the memo).
    EXPECT_FALSE(cache.access(0x0, false, MetaClass::Vn, &memo).hit);
    EXPECT_TRUE(cache.touch(memo, 0x0, false));
}

TEST(MetaCacheMemo, ColdFillsDoNotBumpGeneration)
{
    // Filling invalid ways replaces nothing a memo can point at, so
    // the generation — and with it the memo fast-accept — survives.
    MetaCache cache(1 << 10, 4);
    MetaCache::Memo memo;
    cache.access(0x0, false, MetaClass::Vn, &memo);
    const u64 gen0 = cache.generation();
    cache.access(0x40, false, MetaClass::Vn);
    cache.access(0x80, false, MetaClass::Vn);
    EXPECT_EQ(cache.generation(), gen0);
    EXPECT_TRUE(cache.touch(memo, 0x0, false));
}

TEST(MetaCacheMemo, FlushAndResetKillMemos)
{
    MetaCache cache(1 << 10, 4);
    MetaCache::Memo memo;
    cache.access(0x0, true, MetaClass::Vn, &memo);
    std::vector<MetaCache::FlushedLine> dirty;
    cache.flush(dirty);
    ASSERT_EQ(dirty.size(), 1u);
    EXPECT_FALSE(cache.touch(memo, 0x0, false))
        << "flush invalidates every line, so every memo is stale";

    cache.access(0x0, false, MetaClass::Vn, &memo);
    cache.reset();
    EXPECT_FALSE(cache.touch(memo, 0x0, false));
}

TEST(MetaCacheMemo, TouchAccumulatesDirtyForLaterWriteback)
{
    // A read arms the memo clean; a touched write must still mark the
    // line dirty, or the overhaul would silently drop a writeback.
    MetaCache cache(1 << 10, 4);
    MetaCache::Memo memo;
    cache.access(0x0, false, MetaClass::Mac, &memo);
    EXPECT_TRUE(cache.touch(memo, 0x0, true));
    std::vector<MetaCache::FlushedLine> dirty;
    cache.flush(dirty);
    ASSERT_EQ(dirty.size(), 1u);
    EXPECT_EQ(dirty[0].addr, 0x0u);
    EXPECT_EQ(dirty[0].cls, MetaClass::Mac);
}

TEST(MetaCacheMemo, TouchStreamIsBitwiseEquivalentToAccessStream)
{
    // Replay one random line stream through two caches: plain
    // access() on one; touch-with-access-fallback (the engine's
    // pattern) on the other. Every CacheResult, counter, and the
    // final flush set must match — touch is the hit path, not an
    // approximation of it.
    StatGroup stats_a("a"), stats_b("b");
    MetaCache plain(2 << 10, 8, &stats_a);
    MetaCache memoized(2 << 10, 8, &stats_b);
    MetaCache::Memo memos[3]; // one per class, like the engine
    Rng rng(0xb9);

    for (int i = 0; i < 20000; ++i) {
        // A few hot lines plus a long tail forces hits, misses,
        // evictions, and memo staleness in one stream.
        const u32 cls_idx = static_cast<u32>(rng.next() % 3);
        const auto cls = static_cast<MetaClass>(cls_idx);
        const u64 span = (rng.next() & 1) ? 8 : 1024;
        const Addr addr =
            (0x10000 * cls_idx + 0x40 * (rng.next() % span));
        const bool dirty = (rng.next() & 3) == 0;

        const CacheResult want = plain.access(addr, dirty, cls);
        if (memoized.touch(memos[cls_idx], addr, dirty)) {
            EXPECT_TRUE(want.hit) << "touch succeeded on a miss";
            EXPECT_FALSE(want.writeback);
        } else {
            const CacheResult got =
                memoized.access(addr, dirty, cls, &memos[cls_idx]);
            EXPECT_EQ(want.hit, got.hit);
            EXPECT_EQ(want.writeback, got.writeback);
            if (want.writeback) {
                EXPECT_EQ(want.victimAddr, got.victimAddr);
                EXPECT_EQ(want.victimClass, got.victimClass);
            }
        }
    }
    EXPECT_EQ(stats_a.get("meta_cache_hits"),
              stats_b.get("meta_cache_hits"));
    EXPECT_EQ(stats_a.get("meta_cache_misses"),
              stats_b.get("meta_cache_misses"));
    EXPECT_EQ(stats_a.get("meta_cache_writebacks"),
              stats_b.get("meta_cache_writebacks"));

    std::vector<MetaCache::FlushedLine> da, db;
    plain.flush(da);
    memoized.flush(db);
    ASSERT_EQ(da.size(), db.size());
    for (std::size_t i = 0; i < da.size(); ++i) {
        EXPECT_EQ(da[i].addr, db[i].addr);
        EXPECT_EQ(da[i].cls, db[i].cls);
    }
}

// ---------------------------------------------------------------------
// MetadataLayout::BaselineWalker
// ---------------------------------------------------------------------

TEST(BaselineWalker, MatchesPointQueriesAcrossTheRange)
{
    ProtectionConfig cfg;
    cfg.scheme = Scheme::BP;
    const MetadataLayout layout(cfg);
    ASSERT_GE(layout.treeLevels(), 1u);

    // An unaligned-to-anything start exercises the offset seeding.
    const Addr begin = 37 * 64 * cfg.baselineGranularity;
    MetadataLayout::BaselineWalker walker =
        layout.baselineWalker(begin);
    for (u64 i = 0; i < 4096; ++i, walker.next()) {
        const Addr block = begin + i * cfg.baselineGranularity;
        ASSERT_EQ(walker.vnLine(), layout.vnLineAddr(block))
            << "block " << i;
        ASSERT_EQ(walker.treeNode1(), layout.treeNodeAddr(1, block))
            << "block " << i;
        ASSERT_EQ(walker.macLine(),
                  layout.macLineAddr(block, cfg.baselineGranularity))
            << "block " << i;
    }
}

// ---------------------------------------------------------------------
// DramSystem::accessBatch
// ---------------------------------------------------------------------

TEST(AccessBatch, MatchesSequentialAccessCycleForCycle)
{
    // One system serves a batch, the other the same requests one by
    // one; completion times, access counts, and every DRAM statistic
    // must agree. The stream interleaves two ascending line runs with
    // same-line repeats and random jumps, the shapes of a metadata
    // queue with its fills and dirty victims.
    dram::Ddr4Config dcfg;
    dram::DramSystem batched(dcfg);
    dram::DramSystem sequential(dcfg);

    std::mt19937_64 rng(0x5eed);
    Addr run_a = 0x100000, run_b = 0x9000000;
    std::vector<dram::Request> reqs;
    Cycles arrival = 0;
    for (int i = 0; i < 5000; ++i) {
        Addr addr;
        switch (rng() % 8) {
          case 0: addr = run_a; break;            // same line again
          case 1: case 2: addr = run_a += 64; break;
          case 3: case 4: addr = run_b += 64; break;
          default: addr = (rng() % (1u << 30)) & ~63ull; break;
        }
        const bool write = (rng() & 1) != 0;
        arrival += rng() % 32;
        reqs.push_back({addr, write, arrival});
    }

    Cycles seq_done = 0;
    for (const dram::Request &req : reqs)
        seq_done = std::max(seq_done, sequential.access(req));
    const Cycles batch_done = batched.accessBatch(reqs);

    EXPECT_EQ(batch_done, seq_done);
    EXPECT_EQ(batched.accessCount(), sequential.accessCount());
    EXPECT_EQ(batched.lastCompletion(), sequential.lastCompletion());
    EXPECT_EQ(batched.stats().counters(),
              sequential.stats().counters());
}

TEST(AccessBatch, EmptyBatchIsANoOp)
{
    dram::Ddr4Config dcfg;
    dram::DramSystem dram(dcfg);
    EXPECT_EQ(dram.accessBatch({}), 0u);
    EXPECT_EQ(dram.accessCount(), 0u);
}

// ---------------------------------------------------------------------
// Golden small-cache BP cells
// ---------------------------------------------------------------------

struct GoldenRow
{
    const char *workload;
    const char *platform;
    Scheme scheme;
    Cycles cycles;
    u64 data, expand, mac, vn, tree;
};

// Captured from the pre-overhaul engine (commit 2e6544b) with
// metaCacheBytes = 2 KB; regenerate only when the *model* changes.
constexpr GoldenRow kSmallCacheGolden[] = {
    {"core/matmul", "Cloud", Scheme::BP, 1222951, 8388608, 0, 1580032,
     1587200, 474112},
    {"core/matmul", "Cloud", Scheme::MGX_MAC, 943745, 8388608, 0,
     131072, 1580032, 458752},
    {"dnn/DLRM?task=inference", "Cloud", Scheme::BP, 429009, 3921664,
     0, 780352, 786368, 1190720},
    {"dnn/DLRM?task=inference", "Cloud", Scheme::MGX_MAC, 361256,
     3921664, 0, 271296, 779968, 1150912},
    // Random single-block gathers: with this cache nearly every
    // gather's VN/tree fills interleave with dirty victims. Captured
    // (commit b7bcdf3) while those requests were still queued behind
    // the loop; issuing them as they resolve keeps the same order.
    {"graph/google-plus/pagerank?vector=random", "Graph", Scheme::BP,
     4898931, 46296660, 108, 10166336, 10191872, 7707264},
    {"graph/google-plus/pagerank?vector=random", "Graph",
     Scheme::MGX_MAC, 4512244, 46296660, 108, 5808384, 10015424,
     5958848},
    {"video/h264?frames=2", "Genome", Scheme::BP, 3867202, 3110400, 0,
     777600, 778112, 205184},
    {"video/h264?frames=2", "Genome", Scheme::MGX_MAC, 3667906,
     3110400, 0, 48704, 777600, 187008},
    {"genome/chr1PacBio?reads=2", "Genome", Scheme::BP, 166376,
     153600, 0, 37184, 37312, 78272},
    {"genome/chr1PacBio?reads=2", "Genome", Scheme::MGX_MAC, 156273,
     153600, 0, 20800, 32320, 24000},
};

TEST(GoldenSmallCache, EvictionHeavyCellsMatchPreOverhaulEngine)
{
    // A 2 KB cache (32 lines) under multi-MB metadata footprints
    // evicts on nearly every miss, so memos stale constantly and
    // victim writebacks interleave with the fills — the worst case
    // for every mechanism of the overhaul.
    ProtectionConfig cfg;
    cfg.metaCacheBytes = 2 << 10;
    sim::ResultSet rs =
        sim::Experiment()
            .workloads({"core/matmul", "dnn/DLRM?task=inference",
                        "graph/google-plus/pagerank?vector=random",
                        "video/h264?frames=2",
                        "genome/chr1PacBio?reads=2"})
            .schemes({Scheme::BP, Scheme::MGX_MAC})
            .config(cfg)
            .run();
    for (const GoldenRow &row : kSmallCacheGolden) {
        const sim::RunResult *r =
            rs.find(row.workload, row.platform, row.scheme);
        ASSERT_NE(r, nullptr)
            << row.workload << " " << protection::schemeName(row.scheme);
        EXPECT_EQ(r->totalCycles, row.cycles) << row.workload;
        EXPECT_EQ(r->traffic.dataBytes, row.data) << row.workload;
        EXPECT_EQ(r->traffic.expandBytes, row.expand) << row.workload;
        EXPECT_EQ(r->traffic.macBytes, row.mac) << row.workload;
        EXPECT_EQ(r->traffic.vnBytes, row.vn) << row.workload;
        EXPECT_EQ(r->traffic.treeBytes, row.tree) << row.workload;
    }
}

} // namespace
} // namespace mgx
