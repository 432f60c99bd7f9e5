/**
 * @file
 * Seeded mutation test for the service's wire parsers and the CLI's
 * number parser. Valid HTTP requests and responses are mutated (byte
 * flips, inserts of framing characters, deletes, truncation,
 * duplicated runs, Content-Length edits) under a fixed seed, then
 *
 *   - fed to HttpRequestParser whole and one byte at a time,
 *   - fed to HttpResponseParser whole and one byte at a time (then
 *     finishEof), and parsed by parseHttpResponse,
 *
 * and mutated numeric strings go to parseUnsigned. Each input must end
 * in Error / false / std::nullopt or in a well-formed result, and the
 * two chunkings must agree: how the bytes arrive off the socket must
 * not change what was parsed. A crash or hang fails the test.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/cli.h"
#include "common/rng.h"
#include "serve/http.h"

namespace mgx::serve {
namespace {

constexpr u64 kSeed = 0x6d67782d68747470ull;
constexpr int kMutantsPerBase = 2000;

/** Values a Content-Length edit substitutes. */
const char *const kLengthValues[] = {
    "0", "1", "5", "-1", "", " 7", "7 ", "1048576", "1048577",
    "18446744073709551615", "18446744073709551616",
    "99999999999999999999", "0x10", "+3",
};

/** Replace the value of one Content-Length header, if any. */
void
editLength(std::string &text, Rng &rng)
{
    const std::string key = "Content-Length:";
    const std::size_t at = text.find(key);
    if (at == std::string::npos)
        return;
    std::size_t begin = at + key.size();
    while (begin < text.size() && text[begin] == ' ')
        ++begin;
    std::size_t end = begin;
    while (end < text.size() && text[end] != '\r' && text[end] != '\n')
        ++end;
    text.replace(begin, end - begin,
                 kLengthValues[rng.below(std::size(kLengthValues))]);
}

/** Apply one to three random mutations to @p text. */
std::string
mutate(std::string text, Rng &rng)
{
    static const char kAlphabet[] = "GET /?&=%+:0123456789aF\r\n\t ";
    for (u64 n = 1 + rng.below(3); n > 0; --n) {
        const std::size_t pos = text.empty() ? 0 : rng.below(text.size());
        switch (rng.below(6)) {
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
          case 4: // duplicate a run (back-to-back messages, repeats)
            text.insert(pos, text.substr(pos, 1 + rng.below(64)));
            break;
          default:
            editLength(text, rng);
            break;
        }
    }
    return text;
}

/** A header name is one non-empty token (visible ASCII, no colon),
 *  lower-cased by the parser; a value is one line. */
void
expectWellFormedHeaders(
    const std::vector<std::pair<std::string, std::string>> &headers,
    const std::string &text)
{
    for (const auto &[name, value] : headers) {
        EXPECT_FALSE(name.empty()) << text;
        for (char c : name) {
            EXPECT_TRUE(c > ' ' && c < 0x7f && c != ':') << text;
            EXPECT_FALSE(c >= 'A' && c <= 'Z') << text;
        }
        EXPECT_EQ(value.find('\n'), std::string::npos) << text;
    }
}

/** The last declared Content-Length, when it is a decimal count. */
std::optional<u64>
declaredLength(
    const std::vector<std::pair<std::string, std::string>> &headers)
{
    std::optional<u64> length;
    for (const auto &[name, value] : headers)
        if (name == "content-length")
            length = parseUnsigned(value, 0, ~u64{0});
    return length;
}

HttpRequestParser
feedRequest(const std::string &text, bool byte_by_byte)
{
    HttpRequestParser p;
    if (!byte_by_byte) {
        p.feed(text.data(), text.size());
        return p;
    }
    for (std::size_t i = 0;
         i < text.size() &&
         p.status() == HttpRequestParser::Status::Incomplete;
         ++i)
        p.feed(text.data() + i, 1);
    return p;
}

/** Outcome counts over all mutants (for the non-vacuity checks). */
struct Tally
{
    u64 complete = 0;
    u64 error = 0;
    u64 incomplete = 0;
};

void
checkRequest(const std::string &text, Tally &tally)
{
    using Status = HttpRequestParser::Status;
    const HttpRequestParser whole = feedRequest(text, false);
    const HttpRequestParser bytes = feedRequest(text, true);
    ASSERT_EQ(whole.status(), bytes.status()) << text;
    if (whole.status() == Status::Error) {
        ++tally.error;
        EXPECT_FALSE(whole.error().empty()) << text;
        return;
    }
    if (whole.status() == Status::Incomplete) {
        ++tally.incomplete;
        return;
    }
    ++tally.complete;
    const HttpRequest &req = whole.request();
    EXPECT_FALSE(req.method.empty()) << text;
    EXPECT_EQ(req.method.find(' '), std::string::npos) << text;
    ASSERT_FALSE(req.target.empty()) << text;
    EXPECT_EQ(req.target[0], '/') << text;
    EXPECT_EQ(req.path,
              percentDecode(req.target.substr(0, req.target.find('?'))))
        << text;
    expectWellFormedHeaders(req.headers, text);
    EXPECT_EQ(req.body.size(), declaredLength(req.headers).value_or(0))
        << text;
    EXPECT_LE(req.body.size() + whole.surplus().size(), text.size())
        << text;

    const HttpRequest &other = bytes.request();
    EXPECT_EQ(other.method, req.method) << text;
    EXPECT_EQ(other.target, req.target) << text;
    EXPECT_EQ(other.query, req.query) << text;
    EXPECT_EQ(other.headers, req.headers) << text;
    EXPECT_EQ(other.body, req.body) << text;
}

HttpResponseParser
feedResponse(const std::string &text, bool byte_by_byte)
{
    HttpResponseParser p;
    if (!byte_by_byte) {
        p.feed(text.data(), text.size());
    } else {
        for (std::size_t i = 0;
             i < text.size() &&
             p.status() == HttpResponseParser::Status::Incomplete;
             ++i)
            p.feed(text.data() + i, 1);
    }
    p.finishEof();
    return p;
}

void
checkResponse(const std::string &text, Tally &tally)
{
    using Status = HttpResponseParser::Status;
    const HttpResponseParser whole = feedResponse(text, false);
    const HttpResponseParser bytes = feedResponse(text, true);
    ASSERT_EQ(whole.status(), bytes.status()) << text;
    // finishEof always settles the status.
    ASSERT_NE(whole.status(), Status::Incomplete) << text;
    if (whole.status() == Status::Error) {
        ++tally.error;
        EXPECT_FALSE(whole.error().empty()) << text;
    } else {
        ++tally.complete;
        const HttpResponse &resp = whole.response();
        expectWellFormedHeaders(resp.headers, text);
        if (const auto length = declaredLength(resp.headers)) {
            EXPECT_EQ(resp.body.size(), *length) << text;
        }
        EXPECT_LE(resp.body.size(), text.size()) << text;
        const HttpResponse &other = bytes.response();
        EXPECT_EQ(other.status, resp.status) << text;
        EXPECT_EQ(other.reason, resp.reason) << text;
        EXPECT_EQ(other.headers, resp.headers) << text;
        EXPECT_EQ(other.body, resp.body) << text;
    }

    // The read-to-EOF parser: an error with a message, or the same
    // status line and headers the incremental parser framed.
    HttpResponse resp;
    std::string error;
    if (!parseHttpResponse(text, &resp, &error)) {
        EXPECT_FALSE(error.empty()) << text;
        return;
    }
    expectWellFormedHeaders(resp.headers, text);
    EXPECT_LE(resp.body.size(), text.size()) << text;
    if (whole.status() == Status::Complete) {
        EXPECT_EQ(resp.status, whole.response().status) << text;
        EXPECT_EQ(resp.headers, whole.response().headers) << text;
    }
}

TEST(HttpMutation, SeededRequestMutantsErrorOrParseWellFormed)
{
    const std::string bases[] = {
        "GET /run?workload=core%2Fmatmul&schemes=NP,BP HTTP/1.1\r\n"
        "Host: localhost\r\nConnection: keep-alive\r\n\r\n",
        "GET /stats HTTP/1.0\n\n",
        "POST /run?workload=a&workload=b HTTP/1.1\r\n"
        "Content-Length: 5\r\n\r\nhello",
        "GET /healthz HTTP/1.1\r\nContent-Length: 0\r\n\r\n"
        "GET /stats HTTP/1.1\r\n\r\n",
    };
    Rng rng(kSeed);
    Tally tally;
    for (const std::string &base : bases) {
        checkRequest(base, tally);
        for (int i = 0; i < kMutantsPerBase && !HasFailure(); ++i)
            checkRequest(mutate(base, rng), tally);
    }
    // Non-vacuity: the mutants must reach every outcome.
    EXPECT_GT(tally.complete, 0u);
    EXPECT_GT(tally.error, 0u);
    EXPECT_GT(tally.incomplete, 0u);
}

TEST(HttpMutation, SeededResponseMutantsErrorOrParseWellFormed)
{
    const std::string bases[] = {
        httpResponse(200, "application/json", "{\"ok\": true}\n", {},
                     true),
        httpResponse(503, "application/json",
                     "{\"error\": \"draining\"}\n", {"Retry-After: 1"}),
        "HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nbody to eof",
        "HTTP/1.0 404\nContent-Length: 2\n\nno",
    };
    Rng rng(kSeed + 1);
    Tally tally;
    for (const std::string &base : bases) {
        checkResponse(base, tally);
        for (int i = 0; i < kMutantsPerBase && !HasFailure(); ++i)
            checkResponse(mutate(base, rng), tally);
    }
    EXPECT_GT(tally.complete, 0u);
    EXPECT_GT(tally.error, 0u);
}

/** Independent oracle: decimal digits only, compared as strings. */
std::optional<u64>
referenceUnsigned(const std::string &text, u64 min, u64 max)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos)
        return std::nullopt;
    const std::size_t nz = text.find_first_not_of('0');
    const std::string digits =
        nz == std::string::npos ? "0" : text.substr(nz);
    const std::string u64max = "18446744073709551615";
    if (digits.size() > u64max.size() ||
        (digits.size() == u64max.size() && digits > u64max))
        return std::nullopt;
    const u64 value = std::stoull(digits);
    if (value < min || value > max)
        return std::nullopt;
    return value;
}

TEST(HttpMutation, SeededNumberMutantsMatchAReferenceParser)
{
    const std::string bases[] = {
        "0", "7", "1024", "65535", "000042",
        "18446744073709551615", "18446744073709551616",
    };
    const std::pair<u64, u64> ranges[] = {
        {0, ~u64{0}}, {1, 1024}, {0, 65535}, {5, 5},
    };
    Rng rng(kSeed + 2);
    u64 accepted = 0, rejected = 0;
    for (const std::string &base : bases) {
        for (int i = 0; i < kMutantsPerBase && !HasFailure(); ++i) {
            const std::string text = i == 0 ? base : mutate(base, rng);
            for (const auto &[min, max] : ranges) {
                const auto got = parseUnsigned(text, min, max);
                EXPECT_EQ(got, referenceUnsigned(text, min, max))
                    << "'" << text << "' in [" << min << ", " << max
                    << "]";
                got ? ++accepted : ++rejected;
            }
        }
    }
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
}

} // namespace
} // namespace mgx::serve
