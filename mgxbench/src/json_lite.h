/**
 * @file
 * A small JSON reader for the documents the benchmark checks: served
 * `mgx-resultset-v1` bodies and `/stats` documents. Numbers keep their
 * source text so 64-bit counters compare exactly.
 */
#ifndef MGXBENCH_JSON_LITE_H
#define MGXBENCH_JSON_LITE_H

#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.h"

namespace mgxbench::json {

struct Value
{
    enum class Kind { Null, Bool, Number, String, Array, Object };
    Kind kind = Kind::Null;
    std::string text; ///< string contents, or a number's source text
    std::vector<Value> items;
    std::map<std::string, Value> fields;

    /** Field @p key of an object, or nullptr. */
    const Value *get(const std::string &key) const;

    /** Number as u64 (0 when not an unsigned integer). */
    mgx::u64 u64() const;
};

/** Parse @p text; nullopt on malformed input. */
std::optional<Value> parse(const std::string &text);

/** Σ of numeric field @p key over every object in @p v, recursively. */
mgx::u64 sumField(const Value &v, const std::string &key);

} // namespace mgxbench::json

#endif // MGXBENCH_JSON_LITE_H
