#include "http.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

#include "common/cli.h"

namespace mgx::serve {
namespace {

/// Total request size cap: request line + headers + body.
constexpr std::size_t kMaxRequestBytes = 1u << 20;

std::string
toLower(std::string s)
{
    std::transform(s.begin(), s.end(), s.begin(), [](unsigned char c) {
        return static_cast<char>(std::tolower(c));
    });
    return s;
}

/** Strip one trailing '\r' (we split on '\n' and tolerate bare LF). */
std::string_view
stripCr(std::string_view line)
{
    if (!line.empty() && line.back() == '\r')
        line.remove_suffix(1);
    return line;
}

using Headers = std::vector<std::pair<std::string, std::string>>;

/** RFC 9110 token characters: all a header name may contain. */
bool
isTokenChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) ||
           std::string_view("!#$%&'*+-.^_`|~").find(c) !=
               std::string_view::npos;
}

/** Append one `Name: value` line to @p headers (name lower-cased,
 *  value left-trimmed); false when the name is empty or not a token. */
bool
appendHeader(std::string_view line, Headers &headers)
{
    const std::size_t colon = line.find(':');
    if (colon == std::string_view::npos || colon == 0 ||
        !std::all_of(line.begin(), line.begin() + colon, isTokenChar))
        return false;
    std::string_view value = line.substr(colon + 1);
    const std::size_t ns = value.find_first_not_of(" \t");
    value = ns == std::string_view::npos ? "" : value.substr(ns);
    headers.emplace_back(toLower(std::string(line.substr(0, colon))),
                         std::string(value));
    return true;
}

/** The last Content-Length in @p headers into @p length (untouched
 *  when there is none); false when its value is not a plain decimal
 *  count. */
bool
readContentLength(const Headers &headers, std::size_t *length)
{
    for (const auto &h : headers) {
        if (h.first != "content-length")
            continue;
        const auto n = parseUnsigned(h.second, 0, ~std::size_t{0});
        if (!n)
            return false;
        *length = static_cast<std::size_t>(*n);
    }
    return true;
}

/** Where the header block of @p buf ends (at its blank line) and the
 *  body starts; npos while the blank line has not arrived. Bare-LF
 *  and CRLF line endings are both accepted, so the earliest blank
 *  line of either kind ends the block. */
std::pair<std::size_t, std::size_t>
headerBlockEnd(const std::string &buf)
{
    const std::size_t crlf = buf.find("\r\n\r\n");
    const std::size_t lf = buf.find("\n\n");
    if (lf < crlf)
        return {lf, lf + 2};
    if (crlf != std::string::npos)
        return {crlf, crlf + 4};
    return {std::string::npos, std::string::npos};
}

int
hexValue(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

/** Split `key=value&key=value` into decoded pairs. */
std::vector<std::pair<std::string, std::string>>
parseQueryString(const std::string &raw)
{
    std::vector<std::pair<std::string, std::string>> out;
    std::size_t start = 0;
    while (start <= raw.size()) {
        std::size_t amp = raw.find('&', start);
        if (amp == std::string::npos)
            amp = raw.size();
        const std::string kv = raw.substr(start, amp - start);
        if (!kv.empty()) {
            const std::size_t eq = kv.find('=');
            if (eq == std::string::npos)
                out.emplace_back(percentDecode(kv), "");
            else
                out.emplace_back(percentDecode(kv.substr(0, eq)),
                                 percentDecode(kv.substr(eq + 1)));
        }
        start = amp + 1;
    }
    return out;
}

} // namespace

std::optional<std::string>
HttpRequest::queryValue(const std::string &key) const
{
    for (const auto &kv : query)
        if (kv.first == key)
            return kv.second;
    return std::nullopt;
}

std::vector<std::string>
HttpRequest::queryValues(const std::string &key) const
{
    std::vector<std::string> out;
    for (const auto &kv : query)
        if (kv.first == key)
            out.push_back(kv.second);
    return out;
}

std::optional<std::string>
HttpRequest::header(const std::string &name) const
{
    const std::string key = toLower(name);
    for (const auto &kv : headers)
        if (kv.first == key)
            return kv.second;
    return std::nullopt;
}

std::optional<std::string>
HttpResponse::header(const std::string &name) const
{
    const std::string key = toLower(name);
    for (const auto &kv : headers)
        if (kv.first == key)
            return kv.second;
    return std::nullopt;
}

HttpRequestParser::Status
HttpRequestParser::fail(const std::string &message)
{
    error_ = message;
    status_ = Status::Error;
    return status_;
}

HttpRequestParser::Status
HttpRequestParser::feed(const char *data, std::size_t n)
{
    if (status_ != Status::Incomplete)
        return status_;
    buffer_.append(data, n);
    if (buffer_.size() > kMaxRequestBytes) {
        tooLarge_ = true;
        return fail("request exceeds 1 MiB");
    }
    return parseBuffered();
}

HttpRequestParser::Status
HttpRequestParser::parseBuffered()
{
    // Wait for the end of the header block before parsing anything;
    // requests are tiny, so re-scanning per feed() is fine.
    const auto [header_end, body_start] = headerBlockEnd(buffer_);
    if (header_end == std::string::npos)
        return status_;

    HttpRequest req;
    std::size_t pos = 0;
    bool first_line = true;
    while (pos < header_end) {
        std::size_t eol = buffer_.find('\n', pos);
        if (eol == std::string::npos || eol > header_end)
            eol = header_end;
        const std::string_view line =
            stripCr({buffer_.data() + pos, eol - pos});
        pos = eol + 1;
        if (first_line) {
            first_line = false;
            const std::size_t sp1 = line.find(' ');
            const std::size_t sp2 =
                sp1 == std::string_view::npos ? sp1
                                              : line.find(' ', sp1 + 1);
            if (sp1 == std::string_view::npos ||
                sp2 == std::string_view::npos || sp1 == 0 ||
                !std::all_of(line.begin(), line.begin() + sp1,
                             isTokenChar))
                return fail("malformed request line");
            req.method = std::string(line.substr(0, sp1));
            req.target =
                std::string(line.substr(sp1 + 1, sp2 - sp1 - 1));
            const std::string_view version = line.substr(sp2 + 1);
            if (version.rfind("HTTP/1.", 0) != 0)
                return fail("unsupported HTTP version");
            if (req.target.empty() || req.target[0] != '/')
                return fail("request target must be absolute path");
            continue;
        }
        if (!line.empty() && !appendHeader(line, req.headers))
            return fail("malformed header line");
    }

    std::size_t content_length = 0;
    if (!readContentLength(req.headers, &content_length))
        return fail("malformed Content-Length");
    if (content_length > kMaxRequestBytes) {
        tooLarge_ = true;
        return fail("request exceeds 1 MiB");
    }
    if (buffer_.size() - body_start < content_length)
        return status_; // body still in flight
    req.body = buffer_.substr(body_start, content_length);
    consumed_ = body_start + content_length;

    const std::size_t qpos = req.target.find('?');
    req.path = percentDecode(req.target.substr(0, qpos));
    if (qpos != std::string::npos)
        req.query = parseQueryString(req.target.substr(qpos + 1));

    request_ = std::move(req);
    status_ = Status::Complete;
    return status_;
}

bool
parseHttpResponse(const std::string &raw, HttpResponse *out,
                  std::string *error)
{
    const auto fail = [&](const char *msg) {
        if (error)
            *error = msg;
        return false;
    };
    const auto [header_end, body_start] = headerBlockEnd(raw);
    if (header_end == std::string::npos)
        return fail("no header terminator");

    HttpResponse resp;
    std::size_t pos = 0;
    bool first_line = true;
    while (pos < header_end) {
        std::size_t eol = raw.find('\n', pos);
        if (eol == std::string::npos || eol > header_end)
            eol = header_end;
        const std::string_view line =
            stripCr({raw.data() + pos, eol - pos});
        pos = eol + 1;
        if (first_line) {
            first_line = false;
            if (line.rfind("HTTP/1.", 0) != 0)
                return fail("malformed status line");
            const std::size_t sp1 = line.find(' ');
            if (sp1 == std::string_view::npos)
                return fail("malformed status line");
            const std::size_t sp2 = line.find(' ', sp1 + 1);
            const std::string code(line.substr(
                sp1 + 1, sp2 == std::string_view::npos ? sp2
                                                       : sp2 - sp1 - 1));
            char *end = nullptr;
            resp.status =
                static_cast<int>(std::strtol(code.c_str(), &end, 10));
            if (end == code.c_str() || *end != '\0')
                return fail("malformed status code");
            if (sp2 != std::string_view::npos)
                resp.reason = std::string(line.substr(sp2 + 1));
            continue;
        }
        if (!line.empty() && !appendHeader(line, resp.headers))
            return fail("malformed header line");
    }
    resp.body = raw.substr(body_start);
    if (out)
        *out = std::move(resp);
    return true;
}

HttpResponseParser::Status
HttpResponseParser::fail(const std::string &message)
{
    error_ = message;
    status_ = Status::Error;
    return status_;
}

std::size_t
HttpResponseParser::bodyBytes() const
{
    if (!headers_done_ || buffer_.size() < body_start_)
        return 0;
    return buffer_.size() - body_start_;
}

HttpResponseParser::Status
HttpResponseParser::feed(const char *data, std::size_t n)
{
    if (status_ != Status::Incomplete)
        return status_;
    buffer_.append(data, n);
    return parseBuffered();
}

HttpResponseParser::Status
HttpResponseParser::finishEof()
{
    if (status_ != Status::Incomplete)
        return status_;
    if (!headers_done_)
        return fail(buffer_.empty()
                        ? "connection closed before any response"
                        : "connection closed inside response headers");
    if (has_length_)
        return fail("connection closed mid-response (" +
                    std::to_string(bodyBytes()) + " of " +
                    std::to_string(content_length_) + " body bytes)");
    // Length-less body: EOF is the terminator.
    response_.body = buffer_.substr(body_start_);
    status_ = Status::Complete;
    return status_;
}

HttpResponseParser::Status
HttpResponseParser::parseBuffered()
{
    if (!headers_done_) {
        const auto [header_end, body_start] = headerBlockEnd(buffer_);
        if (header_end == std::string::npos)
            return status_;
        body_start_ = body_start;
        HttpResponse resp;
        std::string error;
        // The header block is complete: the batch parser's header
        // logic applies verbatim (body handled incrementally below).
        if (!parseHttpResponse(buffer_.substr(0, body_start_), &resp,
                               &error))
            return fail(error);
        resp.body.clear();
        if (!readContentLength(resp.headers, &content_length_))
            return fail("malformed Content-Length");
        has_length_ = resp.header("content-length").has_value();
        response_ = std::move(resp);
        headers_done_ = true;
    }
    if (!has_length_)
        return status_; // only finishEof() can complete this one
    if (buffer_.size() - body_start_ < content_length_)
        return status_;
    response_.body = buffer_.substr(body_start_, content_length_);
    status_ = Status::Complete;
    return status_;
}

const char *
httpReason(int status)
{
    switch (status) {
      case 200: return "OK";
      case 400: return "Bad Request";
      case 404: return "Not Found";
      case 405: return "Method Not Allowed";
      case 429: return "Too Many Requests";
      case 431: return "Request Header Fields Too Large";
      case 500: return "Internal Server Error";
      case 503: return "Service Unavailable";
      default: return "Unknown";
    }
}

std::string
httpResponse(int status, const std::string &content_type,
             const std::string &body,
             const std::vector<std::string> &extra_headers,
             bool keep_alive)
{
    std::string out = "HTTP/1.1 " + std::to_string(status) + " " +
                      httpReason(status) + "\r\n";
    out += "Content-Type: " + content_type + "\r\n";
    out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
    for (const auto &h : extra_headers)
        out += h + "\r\n";
    out += keep_alive ? "Connection: keep-alive\r\n\r\n"
                      : "Connection: close\r\n\r\n";
    out += body;
    return out;
}

std::string
percentDecode(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (s[i] == '+') {
            out += ' ';
            continue;
        }
        if (s[i] == '%' && i + 2 < s.size()) {
            const int hi = hexValue(s[i + 1]);
            const int lo = hexValue(s[i + 2]);
            if (hi >= 0 && lo >= 0) {
                out += static_cast<char>(hi * 16 + lo);
                i += 2;
                continue;
            }
        }
        out += s[i];
    }
    return out;
}

std::string
percentEncode(const std::string &s)
{
    static const char *hex = "0123456789ABCDEF";
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        const bool safe = (c >= 'a' && c <= 'z') ||
                          (c >= 'A' && c <= 'Z') ||
                          (c >= '0' && c <= '9') || c == '-' ||
                          c == '_' || c == '.' || c == '~' || c == '/';
        if (safe) {
            out += static_cast<char>(c);
        } else {
            out += '%';
            out += hex[c >> 4];
            out += hex[c & 0xf];
        }
    }
    return out;
}

} // namespace mgx::serve
