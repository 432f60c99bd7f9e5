/**
 * @file
 * Seeded mutation test for workload names, the one untrusted string
 * mgx_serve hands to the registry. Every listWorkloads() and
 * listScaledWorkloads() name is mutated (byte flips, digit edits, sign
 * edits, dropped '=' '&' '?', and appended parameters with edge
 * values) under a fixed seed, and each mutant goes to tryMakeKernel.
 * It must return a kernel or nullptr with a non-empty error; a crash,
 * fatal() or hang fails the test. Mutants are constructed only, never
 * generated: a valid mutant can legitimately ask for billions of
 * frames.
 *
 * Numeric edits stay near the values the names carry: a digit edit
 * replaces, inserts or deletes one digit, and a substituted or
 * appended value comes from a fixed list of range edges. Unbounded
 * digit strings would only exercise parseUnsigned's overflow branch,
 * which http_mutation_test already covers, and a valid mutant must not
 * ask a constructor for an outsized input (graph tile synthesis is
 * linear in the vertices left after scale=).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <vector>

#include "common/rng.h"
#include "sim/workload_registry.h"

namespace mgx::sim {
namespace {

constexpr u64 kSeed = 0x6d67782d6e616d65ull;
constexpr int kMutantsPerBase = 60;

/** Every parameter key some domain accepts. */
const char *const kKeys[] = {
    "task",   "accel", "batch",  "seed",  "density", "iters", "scale",
    "vector", "reads", "frames", "width", "height",  "gop",   "m",
    "n",      "k",     "mtiles", "ntiles", "ktiles",
};

/** Values an edit substitutes or appends: range edges and junk. */
const char *const kValues[] = {
    "0", "1", "2", "3", "-1", "+1", " 1", "1 ", "", "4294967295",
    "4294967296", "18446744073709551615", "18446744073709551616",
    "65536", "65537", "nan", "inf", "-inf", "1e-3", "0.5", "-0",
    "0x10", "random", "training", "edge",
};

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

/** Positions of the characters of @p text that satisfy @p pred. */
template <typename Pred>
std::vector<std::size_t>
positions(const std::string &text, Pred pred)
{
    std::vector<std::size_t> at;
    for (std::size_t i = 0; i < text.size(); ++i)
        if (pred(text[i]))
            at.push_back(i);
    return at;
}

/** Replace the value after one '=' (up to the next '&') with an edge. */
void
editValue(std::string &text, Rng &rng)
{
    const auto eqs = positions(text, [](char c) { return c == '='; });
    if (eqs.empty())
        return;
    const std::size_t begin = eqs[rng.below(eqs.size())] + 1;
    const std::size_t end = std::min(text.find('&', begin), text.size());
    text.replace(begin, end - begin, kValues[rng.below(std::size(kValues))]);
}

/** Apply one to three random mutations to @p text. */
std::string
mutate(std::string text, Rng &rng)
{
    for (u64 n = 1 + rng.below(3); n > 0; --n) {
        const auto digits = positions(text, isDigit);
        switch (rng.below(7)) {
          case 0: // bit flip
            if (!text.empty()) {
                const std::size_t pos = rng.below(text.size());
                text[pos] = static_cast<char>(
                    static_cast<u8>(text[pos]) ^ (1u << rng.below(8)));
            }
            break;
          case 1: // digit edit: replace, insert or delete one digit
            if (!digits.empty()) {
                const std::size_t pos = digits[rng.below(digits.size())];
                const char digit = static_cast<char>('0' + rng.below(10));
                switch (rng.below(3)) {
                  case 0: text[pos] = digit; break;
                  case 1: text.insert(pos, 1, digit); break;
                  default: text.erase(pos, 1); break;
                }
            }
            break;
          case 2: // sign edit before a digit
            if (!digits.empty()) {
                const std::size_t pos = digits[rng.below(digits.size())];
                text.insert(pos, 1, "-+ "[rng.below(3)]);
            }
            break;
          case 3: { // drop one separator
            const auto seps = positions(text, [](char c) {
                return c == '=' || c == '&' || c == '?';
            });
            if (!seps.empty())
                text.erase(seps[rng.below(seps.size())], 1);
            break;
          }
          case 4: // append a parameter with an edge value
            text += text.find('?') == std::string::npos ? '?' : '&';
            text += kKeys[rng.below(std::size(kKeys))];
            text += '=';
            text += kValues[rng.below(std::size(kValues))];
            break;
          case 5:
            editValue(text, rng);
            break;
          default: // truncate
            text.resize(rng.below(text.size() + 1));
            break;
        }
    }
    return text;
}

TEST(RegistryMutation, SeededNameMutantsBuildOrGiveAnError)
{
    std::vector<std::string> bases = listWorkloads();
    for (const std::string &name : listScaledWorkloads())
        bases.push_back(name);

    Rng rng(kSeed);
    u64 built = 0, rejected = 0;
    for (const std::string &base : bases) {
        for (int i = 0; i < kMutantsPerBase; ++i) {
            const std::string name = mutate(base, rng);
            std::string error;
            const auto kernel =
                tryMakeKernel(name, cloudPlatform(), &error);
            if (kernel) {
                ++built;
            } else {
                ++rejected;
                EXPECT_FALSE(error.empty()) << "'" << name << "'";
            }
        }
    }
    // Non-vacuity: the mutants must reach both outcomes.
    EXPECT_GT(built, 0u);
    EXPECT_GT(rejected, 0u);
}

} // namespace
} // namespace mgx::sim
