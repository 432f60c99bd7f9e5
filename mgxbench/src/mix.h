/**
 * @file
 * The seeded request mix of the `serve` workload. Every /run request
 * asks for one cell, and is one of three kinds:
 *
 *   Hot    a repeat of one of a few fixed cells that were run before
 *          the timed part: answered from the worker's result memo
 *          (HTTP + proxy path only)
 *   First  the first request for a pool workload since the trace
 *          cache was cleared: engine run + trace-cache write
 *   Disk   another scheme of a workload a First request of the same
 *          batch already generated: memo miss, trace-cache read + CRC
 *
 * A batch draws kinds with fixed shares and walks the workload pool
 * in a seeded order, so the same seed always yields the same batches.
 * Every cell of the mix is in the committed digest.
 *
 * The shares (80% Hot, 8% First, about 12% Disk), the 8-cell hot set,
 * the 96-workload pool and the Disk lag are assumptions, not
 * measurements: no recorded /run traffic exists to base them on, and
 * their only basis is "mostly hot repeats, some first-touch cells, some
 * disk re-reads". First and Disk requests cost about 100x a memo hit,
 * so the serve workload's wall_s mostly follows the First and Disk
 * shares; read it as a synthetic probe of the serve path until a
 * recorded mix replaces these constants.
 */
#ifndef MGXBENCH_MIX_H
#define MGXBENCH_MIX_H

#include <string>
#include <vector>

#include "common/types.h"

namespace mgxbench {

enum class RequestKind { Hot, First, Disk };

const char *kindName(RequestKind k);

struct Request
{
    RequestKind kind = RequestKind::Hot;
    std::string workload;
    std::string scheme;
};

/** Fixed cells answered from the memo once primed. */
std::vector<Request> hotCells();

/** Workloads First/Disk requests draw from (each run under 5 schemes). */
std::vector<std::string> poolWorkloads();

/**
 * The batches of one benchmark run for seed @p seed. First requests of
 * successive batches, whatever their sizes, walk one seeded
 * permutation of the pool, so a workload's First request comes back
 * only after every other pool workload has had one (the trace cache is
 * cleared between batches, and the pool's 5 x 96 cells are far more
 * than the workers' result memos hold).
 */
class Mix
{
  public:
    explicit Mix(mgx::u64 seed);

    /**
     * The next @p n requests: round(8% of n) First, about 12% Disk,
     * the rest Hot. A Disk request names a workload whose First request
     * is at least 8 positions earlier in the batch, so its trace is
     * usually on disk by then.
     */
    std::vector<Request> next(std::size_t n);

  private:
    mgx::u64 seed_;
    mgx::u64 batch_ = 0;
    std::size_t nextFirst_ = 0; ///< position in order_ of the next First
    std::vector<std::size_t> order_;
};

/** Percent-encoded /run target for one request. */
std::string runTarget(const Request &r);

} // namespace mgxbench

#endif // MGXBENCH_MIX_H
