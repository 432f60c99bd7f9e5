#include "cli.h"

#include <cstdio>
#include <limits>

namespace mgx {

std::optional<u64>
parseUnsigned(std::string_view text, u64 min, u64 max)
{
    if (text.empty())
        return std::nullopt;
    u64 value = 0;
    for (char c : text) {
        if (c < '0' || c > '9')
            return std::nullopt;
        const u64 digit = static_cast<u64>(c - '0');
        if (value > (std::numeric_limits<u64>::max() - digit) / 10)
            return std::nullopt; // overflow
        value = value * 10 + digit;
    }
    if (value < min || value > max)
        return std::nullopt;
    return value;
}

std::optional<u64>
parseUnsignedOption(const char *prog, std::string_view option,
                    const char *text, u64 min, u64 max)
{
    const auto value = parseUnsigned(text, min, max);
    if (!value)
        std::fprintf(stderr,
                     "%s: %.*s needs a number in [%llu, %llu], got '%s'\n",
                     prog, static_cast<int>(option.size()), option.data(),
                     static_cast<unsigned long long>(min),
                     static_cast<unsigned long long>(max), text);
    return value;
}

} // namespace mgx
