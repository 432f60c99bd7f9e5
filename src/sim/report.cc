#include "report.h"

#include <ostream>
#include <sstream>

#include "common/log.h"

namespace mgx::sim {
namespace {

/** JSON string escaping (control chars, quote, backslash). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

/** Shortest round-trip double representation. */
std::string
jsonNumber(double v)
{
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
jsonOptional(const std::optional<double> &v)
{
    return v ? jsonNumber(*v) : "null";
}

} // namespace

std::optional<protection::Scheme>
trySchemeByName(const std::string &name)
{
    for (protection::Scheme s : protection::kAllSchemes)
        if (name == protection::schemeName(s))
            return s;
    return std::nullopt;
}

protection::Scheme
schemeByName(const std::string &name)
{
    if (auto s = trySchemeByName(name))
        return *s;
    fatal("unknown scheme '%s' (expected NP, MGX, MGX_VN, MGX_MAC "
          "or BP)",
          name.c_str());
}

std::optional<Platform>
platformByName(const std::string &name)
{
    if (name == "cloud")
        return cloudPlatform();
    if (name == "edge")
        return edgePlatform();
    if (name == "graph")
        return graphPlatform();
    if (name == "genome")
        return genomePlatform();
    return std::nullopt;
}

std::vector<std::string>
splitCommas(const std::string &arg)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (start <= arg.size()) {
        std::size_t pos = arg.find(',', start);
        if (pos == std::string::npos)
            pos = arg.size();
        if (pos > start)
            parts.push_back(arg.substr(start, pos - start));
        start = pos + 1;
    }
    return parts;
}

void
printTable(const ResultSet &rs, std::FILE *out)
{
    std::fprintf(out, "%-36s %-8s %-8s %12s %10s %10s %10s\n",
                 "workload", "platform", "scheme", "time(ms)",
                 "norm.time", "traffic", "peak(KB)");
    std::fprintf(out,
                 "--------------------------------------------------"
                 "-----------------------------------------\n");
    for (const auto &r : rs.records()) {
        const auto norm = rs.normalizedTime(
            r.key.workload, r.key.platform, r.key.scheme);
        const auto traffic = rs.trafficIncrease(
            r.key.workload, r.key.platform, r.key.scheme);
        std::fprintf(out, "%-36s %-8s %-8s %12.3f ",
                     r.key.workload.c_str(), r.key.platform.c_str(),
                     protection::schemeName(r.key.scheme),
                     r.result.seconds * 1e3);
        if (norm)
            std::fprintf(out, "%10.3f ", *norm);
        else
            std::fprintf(out, "%10s ", "n/a");
        if (traffic)
            std::fprintf(out, "%10.3f ", *traffic);
        else
            std::fprintf(out, "%10s ", "n/a");
        // The replay's phase-buffer high-water mark: the largest
        // single phase the cell's source handed the model.
        std::fprintf(out, "%10.1f\n",
                     static_cast<double>(r.result.peakPhaseBytes) /
                         1024.0);
    }
}

void
writeJson(const ResultSet &rs, std::ostream &out)
{
    out << "{\n  \"schema\": \"mgx-resultset-v1\",\n  \"records\": [";
    bool first = true;
    for (const auto &r : rs.records()) {
        const auto &t = r.result.traffic;
        out << (first ? "\n" : ",\n") << "    {"
            << "\"workload\": \"" << jsonEscape(r.key.workload)
            << "\", \"platform\": \"" << jsonEscape(r.key.platform)
            << "\", \"scheme\": \""
            << protection::schemeName(r.key.scheme) << "\",\n"
            << "     \"cycles\": " << r.result.totalCycles
            << ", \"computeCycles\": " << r.result.computeCycles
            << ", \"memoryCycles\": " << r.result.memoryCycles
            << ", \"seconds\": " << jsonNumber(r.result.seconds)
            << ", \"dramAccesses\": " << r.result.dramAccesses
            << ", \"logicalAccesses\": " << r.result.logicalAccesses
            << ", \"traceBytes\": " << r.result.traceBytes
            << ", \"peakPhaseBytes\": " << r.result.peakPhaseBytes
            << ",\n"
            << "     \"metaCache\": {\"hits\": "
            << r.result.metaCacheHits
            << ", \"misses\": " << r.result.metaCacheMisses
            << ", \"writebacks\": " << r.result.metaCacheWritebacks
            << "},\n"
            << "     \"traffic\": {\"data\": " << t.dataBytes
            << ", \"expand\": " << t.expandBytes
            << ", \"mac\": " << t.macBytes << ", \"vn\": " << t.vnBytes
            << ", \"tree\": " << t.treeBytes
            << ", \"total\": " << t.totalBytes() << "},\n"
            << "     \"normalizedTime\": "
            << jsonOptional(rs.normalizedTime(
                   r.key.workload, r.key.platform, r.key.scheme))
            << ", \"trafficIncrease\": "
            << jsonOptional(rs.trafficIncrease(
                   r.key.workload, r.key.platform, r.key.scheme))
            << "}";
        first = false;
    }
    out << "\n  ]\n}\n";
}

std::string
toJson(const ResultSet &rs)
{
    std::ostringstream out;
    writeJson(rs, out);
    return out.str();
}

} // namespace mgx::sim
