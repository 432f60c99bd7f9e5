#include "dram_system.h"

#include <algorithm>

#include "common/bitops.h"

namespace mgx::dram {

DramSystem::DramSystem(const Ddr4Config &cfg)
    : cfg_(cfg), map_(cfg), stats_("dram")
{
    channels_.reserve(cfg_.channels);
    for (u32 c = 0; c < cfg_.channels; ++c)
        channels_.push_back(std::make_unique<DramChannel>(cfg_));
}

Cycles
DramSystem::access(const Request &req)
{
    Coord coord = map_.decode(req.addr);
    ++accessCount_;
    return channels_[coord.channel]->access(coord, req.isWrite,
                                            req.arrival);
}

Cycles
DramSystem::accessRange(Addr addr, u64 bytes, bool is_write, Cycles arrival)
{
    if (bytes == 0)
        return arrival;
    const u32 block = map_.blockBytes();
    const Addr first = alignDown(addr, block);
    const u64 blocks =
        (alignDown(addr + bytes - 1, block) - first) / block + 1;
    accessCount_ += blocks;
    if (blocks == 1) {
        const Coord coord = map_.decode(first);
        return channels_[coord.channel]->access(coord, is_write, arrival);
    }

    // Lane j holds blocks j, j+C, j+2C, ... (C channels): all on one
    // channel, at consecutive columns until a row ends. Channels share
    // no timing state, so serving lane by lane keeps every channel's
    // command order — and so every cycle and counter — of serving the
    // blocks in address order; each lane's row runs then go through
    // accessRun.
    const u64 channels = cfg_.channels;
    const u64 lanes = std::min<u64>(blocks, channels);
    Cycles done = arrival;
    for (u64 j = 0; j < lanes; ++j) {
        Coord coord = map_.decode(first + j * block);
        DramChannel &channel = *channels_[coord.channel];
        u64 left = (blocks - j + channels - 1) / channels;
        while (true) {
            const u32 n = static_cast<u32>(std::min<u64>(
                left, map_.blocksPerRow() - coord.column));
            done = std::max(done,
                            channel.accessRun(coord, n, is_write, arrival));
            left -= n;
            if (left == 0)
                break;
            map_.nextRow(coord);
        }
    }
    return done;
}

Cycles
DramSystem::accessBatch(std::span<const Request> reqs)
{
    // Requests are served strictly in the order given: each channel's
    // command stream is timing-visible state (bus direction, open
    // rows, activate windows), so physically regrouping same-row
    // requests here would change cycle counts. The grouping the model
    // wants is already done by the caller's deferred queue.
    Cycles done = 0;
    for (const Request &req : reqs)
        done = std::max(done, access(req));
    return done;
}

Cycles
DramSystem::lastCompletion() const
{
    Cycles t = 0;
    for (const auto &ch : channels_)
        t = std::max(t, ch->lastCompletion());
    return t;
}

const StatGroup &
DramSystem::stats() const
{
    ChannelCounters sum;
    for (const auto &ch : channels_) {
        const ChannelCounters &c = ch->counters();
        sum.rowHits += c.rowHits;
        sum.rowMisses += c.rowMisses;
        sum.rowConflicts += c.rowConflicts;
        sum.reads += c.reads;
        sum.writes += c.writes;
        sum.refreshStallCycles += c.refreshStallCycles;
    }
    stats_.set("row_hits", sum.rowHits);
    stats_.set("row_misses", sum.rowMisses);
    stats_.set("row_conflicts", sum.rowConflicts);
    stats_.set("reads", sum.reads);
    stats_.set("writes", sum.writes);
    stats_.set("refresh_stall_cycles", sum.refreshStallCycles);
    return stats_;
}

} // namespace mgx::dram
