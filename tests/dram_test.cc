/**
 * @file
 * DRAM model tests: address-map properties, row-buffer behaviour,
 * bank-level parallelism, bus saturation, refresh, and channel
 * scaling.
 */

#include <gtest/gtest.h>

#include <set>

#include "dram/dram_system.h"

namespace mgx::dram {
namespace {

TEST(AddressMap, ConsecutiveBlocksInterleaveChannels)
{
    Ddr4Config cfg = ddr4_2400(4);
    AddressMap map(cfg);
    std::set<u32> channels;
    for (Addr a = 0; a < 4 * 64; a += 64)
        channels.insert(map.decode(a).channel);
    EXPECT_EQ(channels.size(), 4u);
}

TEST(AddressMap, SameRowForSequentialAccesses)
{
    Ddr4Config cfg = ddr4_2400(1);
    AddressMap map(cfg);
    Coord first = map.decode(0);
    // A full row is rowBytes; everything below maps to the same row.
    Coord last = map.decode(cfg.rowBytes - 64);
    EXPECT_EQ(first.row, last.row);
    EXPECT_EQ(first.bank, last.bank);
    EXPECT_NE(first.column, last.column);
}

TEST(AddressMap, DistinctCoordsForDistinctBlocks)
{
    Ddr4Config cfg = ddr4_2400(2);
    AddressMap map(cfg);
    std::set<std::tuple<u32, u32, u32, u32, u32>> seen;
    for (Addr a = 0; a < 1 << 20; a += 64) {
        Coord c = map.decode(a);
        auto key = std::make_tuple(c.channel, c.rank, c.bank, c.row,
                                   c.column);
        EXPECT_TRUE(seen.insert(key).second)
            << "alias at address " << a;
    }
}

TEST(AddressMap, LineWalkerMatchesDecodePerLine)
{
    // The incremental carry-chain decode must agree with the full
    // decode for every consecutive block — across channel, column,
    // bank, rank and row carries.
    for (u32 channels : {1u, 4u}) {
        Ddr4Config cfg = ddr4_2400(channels);
        cfg.ranksPerChannel = 2;
        AddressMap map(cfg);
        // Enough blocks to cross several rows on every bank.
        const u64 blocks =
            static_cast<u64>(cfg.rowBytes / 64) * cfg.banksPerRank *
                cfg.ranksPerChannel * channels * 3 +
            17;
        const Addr start = 0x12340; // unaligned start, mid-row
        AddressMap::LineWalker w = map.walkerAt(start);
        for (u64 i = 0; i < blocks; ++i, w.next()) {
            const Coord ref = map.decode(start + i * 64);
            const Coord &got = w.coord();
            ASSERT_EQ(got.channel, ref.channel) << "block " << i;
            ASSERT_EQ(got.column, ref.column) << "block " << i;
            ASSERT_EQ(got.bank, ref.bank) << "block " << i;
            ASSERT_EQ(got.rank, ref.rank) << "block " << i;
            ASSERT_EQ(got.row, ref.row) << "block " << i;
        }
    }
}

/** Every aggregate DRAM statistic must agree between two systems. */
void
expectSameStats(const DramSystem &a, const DramSystem &b)
{
    for (const char *name : {"row_hits", "row_misses", "row_conflicts",
                             "reads", "writes", "refresh_stall_cycles"})
        EXPECT_EQ(a.stats().get(name), b.stats().get(name)) << name;
    EXPECT_EQ(a.accessCount(), b.accessCount());
    EXPECT_EQ(a.lastCompletion(), b.lastCompletion());
}

/** One range served by accessRange and, on @p lines, block by block. */
void
expectRangeMatchesLines(DramSystem &range_sys, DramSystem &line_sys,
                        Addr base, u64 bytes, bool is_write,
                        Cycles arrival)
{
    const Cycles range_done =
        range_sys.accessRange(base, bytes, is_write, arrival);
    Cycles line_done = arrival;
    const Addr first = base & ~Addr{63};
    const Addr last = (base + bytes - 1) & ~Addr{63};
    for (Addr a = first; a <= last; a += 64)
        line_done = std::max(line_done,
                             line_sys.access({a, is_write, arrival}));
    EXPECT_EQ(range_done, line_done)
        << "base " << base << " bytes " << bytes;
}

TEST(DramSystem, AccessRangeMatchesPerLineAccesses)
{
    // The lane/row-run range path must time and count exactly like
    // issuing each 64 B request through the decode-per-line path —
    // across column, bank, rank and row carries, for reads and
    // writes, and with arrivals inside a refresh blackout. Ranges run
    // back to back on the same systems, so each one also starts from
    // the open rows, bus direction and refresh phase the last left.
    for (u32 channels : {1u, 2u, 4u}) {
        SCOPED_TRACE(channels);
        Ddr4Config cfg = ddr4_2400(channels);
        cfg.ranksPerChannel = 2;
        DramSystem range_sys(cfg);
        DramSystem line_sys(cfg);
        const u64 row_span = u64{cfg.rowBytes} * channels; // one row/bank
        const u64 rank_span = row_span * cfg.banksPerRank;
        const u64 row_stride = rank_span * cfg.ranksPerChannel;
        const Cycles blackout = 5 * Cycles{cfg.tREFI} + 7;
        struct Range
        {
            Addr base;
            u64 bytes;
            bool write;
            Cycles arrival;
        };
        const Range ranges[] = {
            {0x7ff40, 3 * row_span + 100, false, 5}, // column -> bank
            {rank_span - 2 * row_span - 40, 4 * row_span, true, 900},
            {row_stride - row_span + 8, 2 * row_span, false, blackout},
            {row_stride - 64 * 3, 64 * 7, true, blackout + 30},
            {0x7ff40 + 64, 2 * row_span, true, 2 * blackout},
            {row_stride + 4096, 64, false, 3 * blackout}, // one block
            {3 * row_stride - 5 * row_span, 9 * row_span + 1, false,
             4 * blackout - 200}, // crosses a tREFI boundary
        };
        for (const Range &r : ranges)
            expectRangeMatchesLines(range_sys, line_sys, r.base, r.bytes,
                                    r.write, r.arrival);
        expectSameStats(range_sys, line_sys);
        EXPECT_GT(range_sys.stats().get("refresh_stall_cycles"), 0u);
        EXPECT_GT(range_sys.stats().get("row_conflicts"), 0u);
    }
}

/**
 * accessRun(n) must equal n access() calls on consecutive columns:
 * the return value, lastCompletion(), every counter, and one probe
 * access afterwards (a conflicting row in the same bank, opposite
 * direction), which exposes any bank, bus or activate-window state
 * the run left behind differently.
 */
void
expectRunMatchesAccesses(const Ddr4Config &cfg,
                         void (*prelude)(DramChannel &),
                         const Coord &coord, u32 n, bool is_write,
                         Cycles arrival)
{
    DramChannel run(cfg);
    DramChannel ref(cfg);
    if (prelude != nullptr) {
        prelude(run);
        prelude(ref);
    }
    const Cycles got = run.accessRun(coord, n, is_write, arrival);
    Cycles want = 0;
    for (u32 i = 0; i < n; ++i) {
        Coord c = coord;
        c.column += i;
        want = ref.access(c, is_write, arrival);
    }
    EXPECT_EQ(got, want);
    EXPECT_EQ(run.lastCompletion(), ref.lastCompletion());
    const ChannelCounters &a = run.counters();
    const ChannelCounters &b = ref.counters();
    EXPECT_EQ(a.rowHits, b.rowHits);
    EXPECT_EQ(a.rowMisses, b.rowMisses);
    EXPECT_EQ(a.rowConflicts, b.rowConflicts);
    EXPECT_EQ(a.reads, b.reads);
    EXPECT_EQ(a.writes, b.writes);
    EXPECT_EQ(a.refreshStallCycles, b.refreshStallCycles);
    Coord probe = coord;
    probe.row += 1;
    EXPECT_EQ(run.access(probe, !is_write, arrival),
              ref.access(probe, !is_write, arrival));
}

constexpr Coord kRunCoord{0, 0, 3, 5, 0};

TEST(DramChannel, AccessRunMatchesAccessesOnPrechargedBank)
{
    const Ddr4Config cfg = ddr4_2400(1);
    expectRunMatchesAccesses(cfg, nullptr, kRunCoord, 64, false, 1000);
    expectRunMatchesAccesses(cfg, nullptr, kRunCoord, 64, true, 1000);
    expectRunMatchesAccesses(cfg, nullptr, kRunCoord, 1, false, 1000);
}

TEST(DramChannel, AccessRunMatchesAccessesInRefreshBlackout)
{
    const Ddr4Config cfg = ddr4_2400(1);
    const Cycles in_blackout = 3 * Cycles{cfg.tREFI} + 5;
    // Row already open: even the first access starts in the blackout.
    auto open_row = [](DramChannel &ch) {
        ch.access(kRunCoord, false, 0);
    };
    for (bool write : {false, true}) {
        expectRunMatchesAccesses(cfg, open_row, kRunCoord, 48, write,
                                 in_blackout);
        expectRunMatchesAccesses(cfg, nullptr, kRunCoord, 48, write,
                                 in_blackout);
    }
    DramChannel ch(cfg);
    ch.accessRun(kRunCoord, 8, false, in_blackout);
    EXPECT_GT(ch.counters().refreshStallCycles, 0u);
}

TEST(DramChannel, AccessRunMatchesAccessesAcrossRefreshBoundary)
{
    // 128 bursts take several hundred cycles, so a run that starts 50
    // cycles before a tREFI boundary leaves its refresh window and
    // stalls partway through.
    const Ddr4Config cfg = ddr4_2400(1);
    const Cycles near_boundary = 2 * Cycles{cfg.tREFI} - 50;
    for (bool write : {false, true})
        expectRunMatchesAccesses(cfg, nullptr, kRunCoord, 128, write,
                                 near_boundary);
    DramChannel ch(cfg);
    ch.access(kRunCoord, false, near_boundary);
    const u64 before = ch.counters().refreshStallCycles;
    ch.accessRun(kRunCoord, 127, false, near_boundary);
    EXPECT_GT(ch.counters().refreshStallCycles, before);
}

TEST(DramChannel, AccessRunMatchesAccessesAfterBusSwitch)
{
    const Ddr4Config cfg = ddr4_2400(1);
    // The open row's last burst went the other way: the run's first
    // access pays the turnaround, the rest must not.
    auto write_first = [](DramChannel &ch) {
        ch.access(kRunCoord, true, 0);
    };
    auto read_first = [](DramChannel &ch) {
        ch.access(kRunCoord, false, 0);
    };
    expectRunMatchesAccesses(cfg, write_first, kRunCoord, 40, false, 10);
    expectRunMatchesAccesses(cfg, read_first, kRunCoord, 40, true, 10);
}

TEST(DramChannel, AccessRunMatchesAccessesOnConflictingBank)
{
    const Ddr4Config cfg = ddr4_2400(1);
    // Another row is open in the run's bank, plus activity on other
    // banks to fill the activate windows.
    auto conflict = [](DramChannel &ch) {
        Coord other = kRunCoord;
        other.row = 9;
        ch.access(other, true, 0);
        for (u32 b = 0; b < 4; ++b)
            ch.access({0, 0, b + 8, 2, 0}, false, 20);
    };
    for (bool write : {false, true})
        expectRunMatchesAccesses(cfg, conflict, kRunCoord, 96, write, 30);
}

TEST(DramChannel, RowHitIsFasterThanMiss)
{
    Ddr4Config cfg = ddr4_2400(1);
    DramSystem sys(cfg);
    // First access opens the row (miss); the second hits it.
    Cycles t1 = sys.access({0, false, 0});
    Cycles t2 = sys.access({64, false, t1});
    const Cycles miss_latency = t1;
    const Cycles hit_latency = t2 - t1;
    EXPECT_LT(hit_latency, miss_latency);
    EXPECT_EQ(sys.stats().get("row_hits"), 1u);
}

TEST(DramChannel, RowConflictCostsPrechargeActivate)
{
    Ddr4Config cfg = ddr4_2400(1);
    DramSystem sys(cfg);
    AddressMap map(cfg);
    // Two rows in the same bank: row stride = one full bank sweep.
    Coord a = map.decode(0);
    Addr conflict = 0;
    for (Addr cand = 64; cand < (1ull << 30); cand += 64) {
        Coord c = map.decode(cand);
        if (c.channel == a.channel && c.bank == a.bank &&
            c.rank == a.rank && c.row != a.row) {
            conflict = cand;
            break;
        }
    }
    ASSERT_NE(conflict, 0u);
    Cycles t1 = sys.access({0, false, 0});
    Cycles t2 = sys.access({conflict, false, t1});
    EXPECT_EQ(sys.stats().get("row_conflicts"), 1u);
    // Conflict pays tRAS residue + tRP + tRCD + CL; far more than a hit.
    EXPECT_GT(t2 - t1, static_cast<Cycles>(cfg.tRP + cfg.tRCD));
}

TEST(DramChannel, StreamSaturatesBusBandwidth)
{
    Ddr4Config cfg = ddr4_2400(1);
    DramSystem sys(cfg);
    const u64 blocks = 4096;
    Cycles done = sys.accessRange(0, blocks * 64, false, 0);
    // Ideal: 4 cycles per 64 B burst. Allow overheads (activates,
    // refresh) but require >70% bus utilization for a pure stream.
    const double ideal = static_cast<double>(blocks) *
                         cfg.burstCycles();
    EXPECT_LT(static_cast<double>(done), ideal / 0.7);
}

TEST(DramChannel, MoreChannelsMoreBandwidth)
{
    const u64 bytes = 1 << 20;
    DramSystem one(ddr4_2400(1));
    DramSystem four(ddr4_2400(4));
    Cycles t1 = one.accessRange(0, bytes, false, 0);
    Cycles t4 = four.accessRange(0, bytes, false, 0);
    EXPECT_GT(t1, 3 * t4); // ~4x, allow slack
}

TEST(DramChannel, RefreshStallsAppear)
{
    Ddr4Config cfg = ddr4_2400(1);
    DramSystem sys(cfg);
    // Stream long enough to cross several tREFI windows.
    sys.accessRange(0, 8ull << 20, false, 0);
    EXPECT_GT(sys.stats().get("refresh_stall_cycles"), 0u);
}

TEST(DramChannel, WritesTracked)
{
    DramSystem sys(ddr4_2400(1));
    sys.accessRange(0, 1024, true, 0);
    EXPECT_EQ(sys.stats().get("writes"), 16u);
    EXPECT_EQ(sys.stats().get("reads"), 0u);
}

TEST(DramSystem, AccessRangeCountsBlocks)
{
    DramSystem sys(ddr4_2400(2));
    sys.accessRange(100, 1, false, 0); // 1 byte -> 1 block
    EXPECT_EQ(sys.accessCount(), 1u);
    sys.accessRange(0, 64 * 7, false, 0);
    EXPECT_EQ(sys.accessCount(), 8u);
    // Unaligned range spanning a block boundary.
    sys.accessRange(60, 8, false, 0);
    EXPECT_EQ(sys.accessCount(), 10u);
}

TEST(DramSystem, CompletionMonotoneWithArrival)
{
    DramSystem sys(ddr4_2400(1));
    Cycles t1 = sys.access({0, false, 1000});
    EXPECT_GE(t1, 1000u);
}

/** Channel-count sweep: utilization must stay high for streams. */
class ChannelSweepTest : public ::testing::TestWithParam<u32>
{
};

TEST_P(ChannelSweepTest, StreamingEfficiency)
{
    const u32 channels = GetParam();
    Ddr4Config cfg = ddr4_2400(channels);
    DramSystem sys(cfg);
    const u64 bytes = 4ull << 20;
    Cycles done = sys.accessRange(0, bytes, false, 0);
    const double ideal_cycles =
        static_cast<double>(bytes) / cfg.peakBytesPerCycle();
    EXPECT_LT(static_cast<double>(done), ideal_cycles / 0.65)
        << "channels=" << channels;
}

INSTANTIATE_TEST_SUITE_P(Channels, ChannelSweepTest,
                         ::testing::Values(1u, 2u, 4u, 8u));

} // namespace
} // namespace mgx::dram
