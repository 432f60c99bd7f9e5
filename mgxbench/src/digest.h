/**
 * @file
 * The committed correctness digest: for every cell the benchmark can
 * run, the simulated statistics a correct build must reproduce
 * exactly — cycles, the traffic breakdown, DRAM accesses and the
 * metadata-cache hits/misses/writebacks.
 *
 * digest.tsv holds one tab-separated line per cell:
 *   workload platform scheme cycles data expand mac vn tree dram
 *   metaHits metaMisses metaWritebacks
 * Regenerate it with `mgxbench --make-digest FILE` only when a change
 * is meant to move simulated results.
 */
#ifndef MGXBENCH_DIGEST_H
#define MGXBENCH_DIGEST_H

#include <array>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/perf_model.h"

namespace mgxbench {

/** The checked model fields of one cell, in digest column order. */
using CellStats = std::array<mgx::u64, 10>;

CellStats cellStats(const mgx::sim::RunResult &r);

/** "workload|platform|scheme". */
std::string cellKey(const std::string &workload,
                    const std::string &platform,
                    const std::string &scheme);

class Digest
{
  public:
    /** Load @p path; fatal on a missing or malformed file. */
    static Digest load(const std::string &path);

    /** True when @p key is in the digest with exactly @p stats. */
    bool matches(const std::string &key, const CellStats &stats) const;

    bool contains(const std::string &key) const
    {
        return cells_.count(key) != 0;
    }

    /** One digest line (no newline) for a cell. */
    static std::string line(const std::string &workload,
                            const std::string &platform,
                            const std::string &scheme,
                            const CellStats &stats);

  private:
    std::unordered_map<std::string, CellStats> cells_;
};

/** The pokec cell the cell_* workloads run, for a benchmark seed. */
std::string pokecCell(unsigned long long seed);

/** Graph seeds the digest covers for the cell workloads: seed % this. */
constexpr unsigned kPokecSeeds = 64;

} // namespace mgxbench

#endif // MGXBENCH_DIGEST_H
