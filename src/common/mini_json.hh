/**
 * @file
 * Minimal recursive-descent JSON reader: just enough to read the
 * simulator's own JSON output back (job records, the BENCH_batch.json
 * perf log, the Chrome trace_event export, serve requests) and
 * validate its schema. Not a general-purpose parser -- it accepts
 * exactly the JSON subset we emit (objects, arrays, strings with
 * backslash escapes, numbers, booleans, null), plus the typed member
 * lookups every record reader shares.
 */

#ifndef MSSR_COMMON_MINI_JSON_HH
#define MSSR_COMMON_MINI_JSON_HH

#include <cctype>
#include <cmath>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <vector>

namespace mssr::minijson
{

struct JsonValue
{
    enum Kind { Null, Bool, Number, String, Array, Object } kind = Null;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;
};

class JsonParser
{
  public:
    explicit JsonParser(std::string text) : text_(std::move(text)) {}

    JsonValue
    parse()
    {
        JsonValue v = value();
        skipWs();
        if (pos_ != text_.size())
            fail("trailing garbage");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what)
    {
        throw std::runtime_error("JSON error at offset " +
                                 std::to_string(pos_) + ": " + what);
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        skipWs();
        if (pos_ >= text_.size())
            fail("unexpected end");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    JsonValue
    value()
    {
        const char c = peek();
        if (c == '{')
            return object();
        if (c == '[')
            return array();
        if (c == '"')
            return string();
        if (c == 't' || c == 'f')
            return boolean();
        if (c == 'n')
            return null();
        return number();
    }

    JsonValue
    object()
    {
        JsonValue v;
        v.kind = JsonValue::Object;
        expect('{');
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        for (;;) {
            JsonValue key = string();
            expect(':');
            v.object[key.string] = value();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue
    array()
    {
        JsonValue v;
        v.kind = JsonValue::Array;
        expect('[');
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        for (;;) {
            v.array.push_back(value());
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    JsonValue
    string()
    {
        JsonValue v;
        v.kind = JsonValue::String;
        expect('"');
        while (pos_ < text_.size() && text_[pos_] != '"') {
            if (text_[pos_] == '\\') {
                ++pos_;
                if (pos_ >= text_.size())
                    fail("bad escape");
            }
            v.string += text_[pos_++];
        }
        if (pos_ >= text_.size())
            fail("unterminated string");
        ++pos_; // closing quote
        return v;
    }

    JsonValue
    boolean()
    {
        JsonValue v;
        v.kind = JsonValue::Bool;
        if (text_.compare(pos_, 4, "true") == 0) {
            v.number = 1.0;
            pos_ += 4;
        } else if (text_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
        } else {
            fail("bad literal");
        }
        return v;
    }

    JsonValue
    null()
    {
        if (text_.compare(pos_, 4, "null") != 0)
            fail("bad literal");
        pos_ += 4;
        return JsonValue{};
    }

    JsonValue
    number()
    {
        JsonValue v;
        v.kind = JsonValue::Number;
        std::size_t end = pos_;
        while (end < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[end])) ||
                text_[end] == '-' || text_[end] == '+' ||
                text_[end] == '.' || text_[end] == 'e' ||
                text_[end] == 'E'))
            ++end;
        if (end == pos_)
            fail("expected number");
        v.number = std::stod(text_.substr(pos_, end - pos_));
        pos_ = end;
        return v;
    }

    std::string text_;
    std::size_t pos_ = 0;
};

/** A record whose shape or invariants are not its writer's. */
struct FormatError : std::runtime_error
{
    using std::runtime_error::runtime_error;
};

/** Member @p key of @p obj, which must exist and be a @p kind. */
inline const JsonValue &
field(const JsonValue &obj, const std::string &key, JsonValue::Kind kind)
{
    const auto it = obj.object.find(key);
    if (it == obj.object.end())
        throw FormatError("missing field '" + key + "'");
    if (it->second.kind != kind)
        throw FormatError("field '" + key + "' has the wrong type");
    return it->second;
}

/** @p v, the value of field @p key, as an unsigned integer. */
inline std::uint64_t
asU64(const JsonValue &v, const std::string &key)
{
    if (v.kind != JsonValue::Number)
        throw FormatError("field '" + key + "' has the wrong type");
    if (!(v.number >= 0.0 && v.number < 18446744073709551616.0) ||
        v.number != std::floor(v.number))
        throw FormatError("field '" + key + "' is not an unsigned integer");
    return static_cast<std::uint64_t>(v.number);
}

/** Member @p key of @p obj as an unsigned integer. */
inline std::uint64_t
u64Field(const JsonValue &obj, const std::string &key)
{
    return asU64(field(obj, key, JsonValue::Number), key);
}

} // namespace mssr::minijson

#endif // MSSR_COMMON_MINI_JSON_HH
