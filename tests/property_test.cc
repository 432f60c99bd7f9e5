/**
 * @file
 * Property-based tests: randomized access sequences and kernel
 * schedules checked against invariants that must hold for *any*
 * input —
 *
 *  - protection traffic is always >= data traffic, and the scheme
 *    ordering NP <= MGX <= {MGX_VN, MGX_MAC} <= BP holds for traffic;
 *  - the functional SecureMemory and the timing engine agree on the
 *    VN discipline: whatever the random kernel writes/reads with
 *    consistent VNs round-trips, and any stale VN fails;
 *  - the metadata cache behaves identically to a reference
 *    fully-associative-per-set model;
 *  - DRAM completion times are monotone in arrival time, and serving
 *    a contiguous range as per-channel row runs is indistinguishable
 *    from serving it block by block.
 */

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "common/rng.h"
#include "core/invariant_checker.h"
#include "protection/protection_engine.h"
#include "protection/secure_memory.h"

namespace mgx {
namespace {

using core::LogicalAccess;
using protection::ProtectionConfig;
using protection::Scheme;

/** A random but VN-consistent access sequence over a small heap. */
std::vector<LogicalAccess>
randomConsistentSequence(u64 seed, unsigned count)
{
    Rng rng(seed);
    std::map<Addr, Vn> last_vn; // per 4 KB chunk
    std::vector<LogicalAccess> seq;
    Vn next_vn = 1;
    for (unsigned i = 0; i < count; ++i) {
        const Addr chunk = rng.below(64) * 4096;
        const bool write = last_vn.count(chunk) == 0 || rng.chance(0.5);
        LogicalAccess acc;
        acc.addr = chunk;
        // Writes cover the whole chunk so all its blocks share one VN;
        // reads may take any prefix.
        acc.bytes = write ? 4096 : (512u << rng.below(4));
        acc.cls = DataClass::Generic;
        if (write) {
            acc.type = AccessType::Write;
            acc.vn = core::makeVn(DataClass::Generic, next_vn);
            last_vn[chunk] = next_vn;
            ++next_vn;
        } else {
            acc.type = AccessType::Read;
            acc.vn = core::makeVn(DataClass::Generic, last_vn[chunk]);
        }
        seq.push_back(acc);
    }
    return seq;
}

class RandomSequenceTest : public ::testing::TestWithParam<u64>
{
};

TEST_P(RandomSequenceTest, TrafficOrderingHolds)
{
    auto seq = randomConsistentSequence(GetParam(), 120);
    std::map<Scheme, u64> totals;
    for (Scheme s :
         {Scheme::NP, Scheme::MGX, Scheme::MGX_VN, Scheme::MGX_MAC,
          Scheme::BP}) {
        dram::DramSystem dram(dram::ddr4_2400(1));
        ProtectionConfig cfg;
        cfg.scheme = s;
        cfg.protectedBytes = 1ull << 30;
        protection::ProtectionEngine engine(cfg, &dram);
        Cycles t = 0;
        for (const auto &acc : seq)
            t = engine.access(acc, t);
        engine.flush(t);
        totals[s] = engine.traffic().totalBytes();
        // Metadata can only add traffic.
        EXPECT_GE(engine.traffic().totalBytes(),
                  engine.traffic().dataBytes);
    }
    EXPECT_LE(totals[Scheme::NP], totals[Scheme::MGX]);
    EXPECT_LE(totals[Scheme::MGX], totals[Scheme::MGX_VN]);
    EXPECT_LE(totals[Scheme::MGX], totals[Scheme::MGX_MAC]);
    EXPECT_LE(totals[Scheme::MGX_VN], totals[Scheme::BP]);
}

TEST_P(RandomSequenceTest, InvariantCheckerAcceptsConsistent)
{
    auto seq = randomConsistentSequence(GetParam() ^ 0xabcd, 300);
    core::InvariantChecker checker(64);
    for (const auto &acc : seq)
        checker.observe(acc);
    EXPECT_TRUE(checker.report().ok);
}

TEST_P(RandomSequenceTest, SecureMemoryRoundTripsConsistentVns)
{
    Rng rng(GetParam() * 31 + 7);
    protection::SecureMemoryConfig mcfg;
    mcfg.encKey[0] = static_cast<u8>(GetParam());
    mcfg.macKey[0] = static_cast<u8>(GetParam() >> 8);
    mcfg.macGranularity = 512;
    protection::SecureMemory mem(mcfg);

    std::map<Addr, std::pair<Vn, u8>> shadow; // chunk -> (vn, fill)
    Vn next_vn = 1;
    for (int i = 0; i < 60; ++i) {
        const Addr chunk = rng.below(16) * 4096;
        if (shadow.count(chunk) == 0 || rng.chance(0.5)) {
            const u8 fill = static_cast<u8>(rng.below(256));
            mem.write(chunk, std::vector<u8>(4096, fill), next_vn);
            shadow[chunk] = {next_vn, fill};
            ++next_vn;
        } else {
            auto [vn, fill] = shadow[chunk];
            std::vector<u8> out(4096);
            ASSERT_TRUE(mem.read(chunk, out, vn));
            EXPECT_EQ(out, std::vector<u8>(4096, fill));
            // A stale VN must always fail once the chunk was
            // rewritten at least once.
            if (vn > 1) {
                EXPECT_FALSE(mem.read(chunk, out, vn - 1));
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomSequenceTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u,
                                           21u, 34u));

// -- cache vs reference model ---------------------------------------------------------

/** Simple reference: per-set vector with true LRU. */
class ReferenceCache
{
  public:
    ReferenceCache(u32 sets, u32 ways) : sets_(sets), ways_(ways),
                                         data_(sets)
    {
    }

    protection::CacheResult
    access(Addr addr, bool dirty)
    {
        const Addr line = addr & ~Addr{63};
        auto &set = data_[(line / 64) % sets_];
        for (auto it = set.begin(); it != set.end(); ++it) {
            if (it->first == line) {
                auto entry = *it;
                entry.second |= dirty;
                set.erase(it);
                set.push_back(entry); // move to MRU
                return {true, false, 0};
            }
        }
        protection::CacheResult r;
        if (set.size() == ways_) {
            if (set.front().second) {
                r.writeback = true;
                r.victimAddr = set.front().first;
            }
            set.erase(set.begin());
        }
        set.push_back({line, dirty});
        return r;
    }

  private:
    u32 sets_, ways_;
    std::vector<std::vector<std::pair<Addr, bool>>> data_;
};

TEST(MetaCacheProperty, MatchesReferenceModel)
{
    protection::MetaCache cache(8 << 10, 8); // 16 sets x 8 ways
    ReferenceCache ref(16, 8);
    Rng rng(99);
    for (int i = 0; i < 20000; ++i) {
        const Addr addr = rng.below(1024) * 64;
        const bool dirty = rng.chance(0.3);
        auto got = cache.access(addr, dirty);
        auto want = ref.access(addr, dirty);
        ASSERT_EQ(got.hit, want.hit) << "op " << i;
        ASSERT_EQ(got.writeback, want.writeback) << "op " << i;
        if (want.writeback) {
            ASSERT_EQ(got.victimAddr, want.victimAddr) << "op " << i;
        }
    }
}

// -- DRAM monotonicity ------------------------------------------------------------------

TEST(DramProperty, CompletionMonotoneInArrival)
{
    Rng rng(5);
    for (int trial = 0; trial < 20; ++trial) {
        const Addr addr = rng.below(1 << 20) * 64;
        dram::DramSystem a(dram::ddr4_2400(1));
        dram::DramSystem b(dram::ddr4_2400(1));
        const Cycles t0 = rng.below(10000);
        const Cycles c1 = a.access({addr, false, t0});
        const Cycles c2 = b.access({addr, false, t0 + 500});
        EXPECT_LE(c1, c2);
        EXPECT_GE(c1, t0);
    }
}

TEST(DramProperty, ThroughputNeverExceedsPeak)
{
    Rng rng(6);
    for (u32 channels : {1u, 2u, 4u}) {
        dram::Ddr4Config cfg = dram::ddr4_2400(channels);
        dram::DramSystem sys(cfg);
        const u64 bytes = 1 << 20;
        Cycles done = sys.accessRange(0, bytes, rng.chance(0.5), 0);
        const double min_cycles =
            static_cast<double>(bytes) / cfg.peakBytesPerCycle();
        EXPECT_GE(static_cast<double>(done), min_cycles * 0.999);
    }
}

TEST(DramProperty, RangeRunsMatchLineByLine)
{
    // Two systems see the same random mix of contiguous ranges and
    // single accesses; one serves each range with accessRange, the
    // other one block at a time. Addresses stay within a few row
    // strides, so rows conflict and reopen; arrivals jump around,
    // often landing in refresh blackouts.
    for (u64 seed : {21u, 22u, 23u, 24u}) {
        Rng rng(seed);
        dram::Ddr4Config cfg = dram::ddr4_2400(1u << rng.below(3));
        cfg.ranksPerChannel = rng.chance(0.5) ? 2 : 1;
        dram::DramSystem range_sys(cfg);
        dram::DramSystem line_sys(cfg);
        const u64 row_stride = u64{cfg.rowBytes} * cfg.channels *
                               cfg.banksPerRank * cfg.ranksPerChannel;
        Cycles now = 0;
        for (int op = 0; op < 400; ++op) {
            SCOPED_TRACE(testing::Message() << "seed " << seed << " op "
                                            << op);
            now += rng.below(3000);
            const Addr addr = rng.below(4 * row_stride);
            const bool write = rng.chance(0.4);
            if (rng.chance(0.3)) {
                const dram::Request req{addr, write, now};
                ASSERT_EQ(range_sys.access(req), line_sys.access(req));
                continue;
            }
            const u64 bytes = 1 + rng.below(3 * cfg.rowBytes * cfg.channels);
            const Cycles got = range_sys.accessRange(addr, bytes, write, now);
            Cycles want = now;
            for (Addr a = addr & ~Addr{63}; a < addr + bytes; a += 64)
                want = std::max(want, line_sys.access({a, write, now}));
            ASSERT_EQ(got, want);
        }
        for (const char *name :
             {"row_hits", "row_misses", "row_conflicts", "reads", "writes",
              "refresh_stall_cycles"})
            EXPECT_EQ(range_sys.stats().get(name),
                      line_sys.stats().get(name))
                << name;
        EXPECT_EQ(range_sys.accessCount(), line_sys.accessCount());
        EXPECT_EQ(range_sys.lastCompletion(), line_sys.lastCompletion());
    }
}

} // namespace
} // namespace mgx
