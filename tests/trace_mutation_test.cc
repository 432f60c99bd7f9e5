/**
 * @file
 * Seeded mutation test for the trace parser: a small real trace,
 * serialized with and without the v2 integrity envelope, is mutated
 * (byte flips, inserts, deletes, truncation, numeric-field edits)
 * under a fixed seed, and every mutant is parsed through
 * traceFromString and through FilePhaseSource with require_checksum
 * off and on. Each parse must either throw TraceIoError or yield
 * phases whose every access has bytes > 0 and an end (addr + bytes)
 * that does not wrap past 2^64. Mutants are parsed only, never
 * replayed: a mutated length can legitimately ask for terabytes of
 * simulated traffic.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <unistd.h>

#include "common/rng.h"
#include "sim/trace_io.h"
#include "sim/workload_registry.h"

namespace mgx::sim {
namespace {

namespace fs = std::filesystem;

constexpr u64 kSeed = 0x6d67782d66757a7aull;
constexpr int kMutantsPerBase = 1500;

/** Values a numeric-field edit substitutes: edges first, then noise. */
const char *const kFieldValues[] = {
    "0",  "1", "-1", "40", "ffffffffffffffff", "ffffffffffffffc0",
    "fffffffffffffff0", "18446744073709551615", "99999999999999999999",
    "8000000000000000", "",
};

bool
isFieldChar(char c)
{
    return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') || c == '-';
}

/** Replace one whitespace-delimited numeric-looking field. */
void
editField(std::string &text, Rng &rng)
{
    std::vector<std::pair<std::size_t, std::size_t>> fields;
    for (std::size_t i = 0; i < text.size();) {
        std::size_t j = i;
        while (j < text.size() && isFieldChar(text[j]))
            ++j;
        const bool delimited = (i == 0 || text[i - 1] == ' ') &&
                               (j == text.size() || text[j] == ' ' ||
                                text[j] == '\n');
        if (j > i && delimited)
            fields.emplace_back(i, j - i);
        i = j > i ? j : i + 1;
    }
    if (fields.empty())
        return;
    const auto [pos, len] = fields[rng.below(fields.size())];
    std::string value;
    const u64 pick = rng.below(std::size(kFieldValues) + 1);
    if (pick < std::size(kFieldValues)) {
        value = kFieldValues[pick];
    } else {
        for (u64 n = 1 + rng.below(20); n > 0; --n)
            value += "0123456789abcdef"[rng.below(16)];
    }
    text.replace(pos, len, value);
}

/** Apply one to three random mutations to @p text. */
std::string
mutate(std::string text, Rng &rng)
{
    static const char kAlphabet[] = "0123456789abcdefPAMCrw -\n#x";
    for (u64 n = 1 + rng.below(3); n > 0; --n) {
        const std::size_t pos =
            text.empty() ? 0 : rng.below(text.size());
        switch (rng.below(5)) {
          case 0: // bit flip
            if (!text.empty())
                text[pos] = static_cast<char>(
                    static_cast<u8>(text[pos]) ^ (1u << rng.below(8)));
            break;
          case 1: // insert
            text.insert(text.begin() + static_cast<std::ptrdiff_t>(pos),
                        kAlphabet[rng.below(sizeof kAlphabet - 1)]);
            break;
          case 2: // delete a short run
            text.erase(pos, 1 + rng.below(8));
            break;
          case 3: // truncate
            text.resize(pos);
            break;
          default:
            editField(text, rng);
            break;
        }
    }
    return text;
}

/** Checks every access of every phase it consumes. */
class WellFormedSink final : public core::PhaseSink
{
  public:
    void
    consume(const core::Phase &phase) override
    {
        for (const auto &acc : phase.accesses)
            check(acc);
    }

    void
    check(const core::LogicalAccess &acc)
    {
        bad_ += acc.bytes == 0 || acc.bytes > ~acc.addr;
    }

    u64 bad() const { return bad_; }

  private:
    u64 bad_ = 0;
};

/** Outcome counts over all mutants (for the non-vacuity checks). */
struct Tally
{
    u64 accepted = 0;
    u64 rejected = 0;
};

/**
 * Parse @p text one way: a TraceIoError counts as a rejection, any
 * ill-formed access in an accepted parse is a test failure, and any
 * other exception escapes and fails the test.
 */
template <typename Parse>
void
expectThrowsOrWellFormed(const std::string &text, const char *how,
                         Tally &tally, const Parse &parse)
{
    WellFormedSink sink;
    try {
        parse(sink);
    } catch (const TraceIoError &) {
        ++tally.rejected;
        return;
    }
    ++tally.accepted;
    EXPECT_EQ(sink.bad(), 0u) << how << " accepted an ill-formed access in:\n"
                              << text;
}

std::string
readFile(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

TEST(TraceMutation, SeededMutantsThrowOrParseWellFormed)
{
    const fs::path dir =
        fs::temp_directory_path() /
        ("mgx_trace_mutation_" + std::to_string(::getpid()));
    fs::create_directories(dir);
    const fs::path file = dir / "mutant.trace";

    const core::Trace trace =
        makeKernel("core/matmul?m=64&n=64&k=64&ktiles=1")->generate();
    ASSERT_FALSE(trace.empty());
    writeTraceFile(trace, file.string());
    const std::string bases[] = {traceToString(trace), readFile(file)};
    ASSERT_EQ(bases[1].compare(0, 2, "M "), 0); // the v2 envelope

    Rng rng(kSeed);
    Tally tally;
    for (const std::string &base : bases) {
        for (int i = 0; i < kMutantsPerBase; ++i) {
            const std::string text = mutate(base, rng);
            expectThrowsOrWellFormed(
                text, "traceFromString", tally,
                [&](WellFormedSink &sink) {
                    for (const auto &phase : traceFromString(text))
                        for (const auto &acc : phase.accesses)
                            sink.check(acc);
                });
            {
                std::ofstream out(file, std::ios::binary | std::ios::trunc);
                out << text;
            }
            for (bool require_checksum : {false, true}) {
                expectThrowsOrWellFormed(
                    text,
                    require_checksum ? "FilePhaseSource(checksum)"
                                     : "FilePhaseSource",
                    tally, [&](WellFormedSink &sink) {
                        FilePhaseSource(file.string(), require_checksum)
                            .drainTo(sink);
                    });
            }
            if (HasFailure())
                break; // one counterexample is enough to read
        }
    }
    fs::remove_all(dir);

    // Non-vacuity: the mutants must reach both outcomes.
    EXPECT_GT(tally.accepted, 0u);
    EXPECT_GT(tally.rejected, 0u);
}

} // namespace
} // namespace mgx::sim
