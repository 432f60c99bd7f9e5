#include "dram_channel.h"

#include <algorithm>

namespace mgx::dram {

DramChannel::DramChannel(const Ddr4Config &cfg)
    : cfg_(cfg),
      banks_(static_cast<std::size_t>(cfg.banksPerRank) *
             cfg.ranksPerChannel)
{
}

Cycles
DramChannel::refreshAdjust(Cycles t)
{
    // All banks are blocked for tRFC at every tREFI boundary. A command
    // that would start inside the blackout is pushed past it. The
    // division only happens when t leaves the cached tREFI window;
    // streaming accesses stay inside it for thousands of bursts.
    if (t < refreshWinStart_ || t - refreshWinStart_ >= cfg_.tREFI)
        refreshWinStart_ = t / cfg_.tREFI * cfg_.tREFI;
    const Cycles phase = t - refreshWinStart_;
    if (phase < cfg_.tRFC) {
        counters_.refreshStallCycles += cfg_.tRFC - phase;
        return t + (cfg_.tRFC - phase);
    }
    return t;
}

Cycles
DramChannel::earliestActivate(Cycles t) const
{
    Cycles earliest = std::max(t, lastActivate_ + cfg_.tRRD);
    // tFAW: at most four activates per rolling window.
    Cycles fourth = activateWindow_[activateIdx_];
    if (fourth + cfg_.tFAW > earliest)
        earliest = fourth + cfg_.tFAW;
    return earliest;
}

void
DramChannel::recordActivate(Cycles t)
{
    lastActivate_ = t;
    activateWindow_[activateIdx_] = t;
    activateIdx_ = (activateIdx_ + 1) % 4;
}

Cycles
DramChannel::access(const Coord &coord, bool is_write, Cycles arrival)
{
    const u32 bank_id = coord.rank * cfg_.banksPerRank + coord.bank;
    BankState &bank = banks_[bank_id];

    // Same-open-row fast path: a row hit with no bus-direction switch
    // whose start cycle falls inside the cached refresh window (past
    // its blackout) reduces to max/add arithmetic — the activate/
    // precharge machinery below cannot change the outcome. Bitwise
    // identical to the general path.
    if (bank.openRow == coord.row && is_write == lastBurstWrite_) {
        const Cycles start = std::max(arrival, bank.readyAt);
        if (start >= refreshWinStart_ + cfg_.tRFC &&
            start - refreshWinStart_ < cfg_.tREFI) {
            ++counters_.rowHits;
            const Cycles burst_start = std::max(
                start + (is_write ? cfg_.tCWL : cfg_.tCL), busFreeAt_);
            const Cycles burst_end = burst_start + cfg_.burstCycles();
            busFreeAt_ = burst_end;
            bank.readyAt = start + cfg_.tCCD;
            if (is_write) {
                bank.readyAt =
                    std::max(bank.readyAt, burst_end + cfg_.tWR);
                ++counters_.writes;
            } else {
                ++counters_.reads;
            }
            lastCompletion_ = std::max(lastCompletion_, burst_end);
            return burst_end;
        }
    }

    Cycles start = refreshAdjust(std::max(arrival, bank.readyAt));

    Cycles column_cmd; // cycle the RD/WR command issues
    if (bank.openRow == coord.row) {
        // Row hit: column command can go immediately.
        ++counters_.rowHits;
        column_cmd = start;
    } else {
        Cycles act_at;
        if (bank.openRow == BankState::kNoRow) {
            // Bank precharged: just activate.
            ++counters_.rowMisses;
            act_at = earliestActivate(start);
        } else {
            // Conflict: precharge (respecting tRAS), then activate.
            ++counters_.rowConflicts;
            Cycles pre_at =
                std::max(start, bank.activatedAt + cfg_.tRAS);
            act_at = earliestActivate(pre_at + cfg_.tRP);
        }
        recordActivate(act_at);
        bank.openRow = coord.row;
        bank.activatedAt = act_at;
        column_cmd = act_at + cfg_.tRCD;
    }

    const u32 cas = is_write ? cfg_.tCWL : cfg_.tCL;
    // The data burst occupies the shared bus after the CAS latency;
    // switching the bus direction costs a turnaround gap.
    Cycles bus_ready = busFreeAt_;
    if (is_write != lastBurstWrite_)
        bus_ready += lastBurstWrite_ ? cfg_.tWTR : cfg_.tRTW;
    Cycles burst_start = std::max(column_cmd + cas, bus_ready);
    Cycles burst_end = burst_start + cfg_.burstCycles();
    busFreeAt_ = burst_end;
    lastBurstWrite_ = is_write;

    // Next command to this bank must respect column-to-column timing and,
    // for writes, the write-recovery time before a future precharge. The
    // simplified model folds tWR into bank readiness.
    bank.readyAt = column_cmd + cfg_.tCCD;
    if (is_write)
        bank.readyAt = std::max(bank.readyAt, burst_end + cfg_.tWR);

    ++(is_write ? counters_.writes : counters_.reads);
    lastCompletion_ = std::max(lastCompletion_, burst_end);
    return burst_end;
}

Cycles
DramChannel::accessRun(const Coord &coord, u32 n, bool is_write,
                       Cycles arrival)
{
    // The first access opens the row and sets the bus direction, so
    // every later one meets the fast path's row-hit/same-direction
    // test; only its refresh-window test is left to check. Bank and
    // bus times stay in locals and the counters are bumped once.
    access(coord, is_write, arrival);
    BankState &bank = banks_[coord.rank * cfg_.banksPerRank + coord.bank];
    const Cycles cas = is_write ? cfg_.tCWL : cfg_.tCL;
    Cycles ready = bank.readyAt;
    Cycles bus = busFreeAt_;
    u64 fast = 0;
    for (u32 i = 1; i < n; ++i) {
        const Cycles start = std::max(arrival, ready);
        if (start < refreshWinStart_ + cfg_.tRFC ||
            start - refreshWinStart_ >= cfg_.tREFI) {
            // Refresh blackout or a new tREFI window: general path.
            bank.readyAt = ready;
            busFreeAt_ = bus;
            access(coord, is_write, arrival);
            ready = bank.readyAt;
            bus = busFreeAt_;
            continue;
        }
        bus = std::max(start + cas, bus) + cfg_.burstCycles();
        ready = start + cfg_.tCCD;
        if (is_write)
            ready = std::max(ready, bus + cfg_.tWR);
        ++fast;
    }
    bank.readyAt = ready;
    busFreeAt_ = bus;
    counters_.rowHits += fast;
    (is_write ? counters_.writes : counters_.reads) += fast;
    // Bursts complete in issue order, so the last one ends latest.
    lastCompletion_ = std::max(lastCompletion_, bus);
    return bus;
}

} // namespace mgx::dram
