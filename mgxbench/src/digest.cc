#include "digest.h"

#include <fstream>
#include <sstream>

#include "common/log.h"

namespace mgxbench {

CellStats
cellStats(const mgx::sim::RunResult &r)
{
    return {r.totalCycles,          r.traffic.dataBytes,
            r.traffic.expandBytes,  r.traffic.macBytes,
            r.traffic.vnBytes,      r.traffic.treeBytes,
            r.dramAccesses,         r.metaCacheHits,
            r.metaCacheMisses,      r.metaCacheWritebacks};
}

std::string
cellKey(const std::string &workload, const std::string &platform,
        const std::string &scheme)
{
    return workload + "|" + platform + "|" + scheme;
}

Digest
Digest::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        mgx::fatal("mgxbench: cannot read digest '%s'", path.c_str());
    Digest d;
    std::string text;
    std::size_t lineno = 0;
    while (std::getline(in, text)) {
        ++lineno;
        if (text.empty() || text[0] == '#')
            continue;
        std::istringstream fields(text);
        std::string workload, platform, scheme;
        std::getline(fields, workload, '\t');
        std::getline(fields, platform, '\t');
        std::getline(fields, scheme, '\t');
        CellStats s{};
        for (auto &v : s)
            fields >> v;
        if (!fields || workload.empty() || scheme.empty())
            mgx::fatal("mgxbench: %s:%zu: malformed digest line",
                       path.c_str(), lineno);
        d.cells_[cellKey(workload, platform, scheme)] = s;
    }
    return d;
}

bool
Digest::matches(const std::string &key, const CellStats &stats) const
{
    const auto it = cells_.find(key);
    return it != cells_.end() && it->second == stats;
}

std::string
Digest::line(const std::string &workload, const std::string &platform,
             const std::string &scheme, const CellStats &stats)
{
    std::string out = workload + "\t" + platform + "\t" + scheme;
    for (mgx::u64 v : stats) {
        out += '\t';
        out += std::to_string(v);
    }
    return out;
}

std::string
pokecCell(unsigned long long seed)
{
    return "graph/pokec/pagerank?scale=1&vector=random&seed=" +
           std::to_string(seed % kPokecSeeds);
}

} // namespace mgxbench
