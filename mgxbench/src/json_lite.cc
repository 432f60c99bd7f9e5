#include "json_lite.h"

#include <cctype>
#include <cstdlib>

namespace mgxbench::json {
namespace {

class Parser
{
  public:
    explicit Parser(const std::string &s) : s_(s) {}

    bool
    value(Value &out, int depth = 0)
    {
        if (depth > 64)
            return false;
        ws();
        if (i_ >= s_.size())
            return false;
        const char c = s_[i_];
        if (c == '{')
            return object(out, depth);
        if (c == '[')
            return array(out, depth);
        if (c == '"') {
            out.kind = Value::Kind::String;
            return string(out.text);
        }
        if (literal("true") || literal("false")) {
            out.kind = Value::Kind::Bool;
            return true;
        }
        if (literal("null"))
            return true;
        return number(out);
    }

    bool
    atEnd()
    {
        ws();
        return i_ == s_.size();
    }

  private:
    void
    ws()
    {
        while (i_ < s_.size() &&
               (s_[i_] == ' ' || s_[i_] == '\n' || s_[i_] == '\t' ||
                s_[i_] == '\r'))
            ++i_;
    }

    bool
    literal(const char *word)
    {
        const std::string w(word);
        if (s_.compare(i_, w.size(), w) != 0)
            return false;
        i_ += w.size();
        return true;
    }

    bool
    number(Value &out)
    {
        const std::size_t start = i_;
        while (i_ < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[i_])) ||
                s_[i_] == '-' || s_[i_] == '+' || s_[i_] == '.' ||
                s_[i_] == 'e' || s_[i_] == 'E'))
            ++i_;
        if (i_ == start)
            return false;
        out.kind = Value::Kind::Number;
        out.text = s_.substr(start, i_ - start);
        return true;
    }

    bool
    string(std::string &out)
    {
        ++i_; // opening quote
        while (i_ < s_.size()) {
            const char c = s_[i_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (i_ >= s_.size())
                return false;
            const char e = s_[i_++];
            switch (e) {
            case 'n': out += '\n'; break;
            case 't': out += '\t'; break;
            case 'r': out += '\r'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'u':
                // Only ASCII escapes occur in the documents read here.
                if (i_ + 4 > s_.size())
                    return false;
                out += static_cast<char>(
                    std::strtol(s_.substr(i_, 4).c_str(), nullptr, 16));
                i_ += 4;
                break;
            default: out += e; break;
            }
        }
        return false;
    }

    bool
    array(Value &out, int depth)
    {
        out.kind = Value::Kind::Array;
        ++i_;
        ws();
        if (i_ < s_.size() && s_[i_] == ']') {
            ++i_;
            return true;
        }
        for (;;) {
            Value item;
            if (!value(item, depth + 1))
                return false;
            out.items.push_back(std::move(item));
            ws();
            if (i_ >= s_.size())
                return false;
            if (s_[i_] == ',') {
                ++i_;
                continue;
            }
            if (s_[i_] == ']') {
                ++i_;
                return true;
            }
            return false;
        }
    }

    bool
    object(Value &out, int depth)
    {
        out.kind = Value::Kind::Object;
        ++i_;
        ws();
        if (i_ < s_.size() && s_[i_] == '}') {
            ++i_;
            return true;
        }
        for (;;) {
            ws();
            std::string key;
            if (i_ >= s_.size() || s_[i_] != '"' || !string(key))
                return false;
            ws();
            if (i_ >= s_.size() || s_[i_] != ':')
                return false;
            ++i_;
            Value item;
            if (!value(item, depth + 1))
                return false;
            out.fields[key] = std::move(item);
            ws();
            if (i_ >= s_.size())
                return false;
            if (s_[i_] == ',') {
                ++i_;
                continue;
            }
            if (s_[i_] == '}') {
                ++i_;
                return true;
            }
            return false;
        }
    }

    const std::string &s_;
    std::size_t i_ = 0;
};

} // namespace

const Value *
Value::get(const std::string &key) const
{
    const auto it = fields.find(key);
    return it == fields.end() ? nullptr : &it->second;
}

mgx::u64
Value::u64() const
{
    if (kind != Kind::Number || text.empty() || text[0] == '-')
        return 0;
    return std::strtoull(text.c_str(), nullptr, 10);
}

std::optional<Value>
parse(const std::string &text)
{
    Parser p(text);
    Value v;
    if (!p.value(v) || !p.atEnd())
        return std::nullopt;
    return v;
}

mgx::u64
sumField(const Value &v, const std::string &key)
{
    mgx::u64 sum = 0;
    for (const auto &[k, f] : v.fields)
        sum += k == key ? f.u64() : sumField(f, key);
    for (const auto &item : v.items)
        sum += sumField(item, key);
    return sum;
}

} // namespace mgxbench::json
