/**
 * @file
 * Minimal recursive-descent JSON reader: just enough to read the
 * simulator's own JSON output back (job records, the BENCH_batch.json
 * perf log, the Chrome trace_event export, serve requests) and
 * validate its schema. Not a general-purpose parser -- it accepts
 * exactly the JSON subset we emit (objects, arrays, strings with
 * backslash escapes, numbers, booleans, null), plus the typed member
 * lookups every record reader shares.
 *
 * It also reads outside input (serve request frames, journals, files
 * handed to mssr_stats), so malformed text of any shape is rejected
 * with a `JSON error at offset N: ...` runtime_error: nesting is
 * bounded (kMaxDepth) so a deep frame cannot overflow the stack, a
 * number must match RFC 8259's grammar in full, and a number outside
 * double range is an error, not a stod exception.
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
    /** Deepest array/object nesting accepted; the records the
     *  simulator writes nest fewer than 10 levels. */
    static constexpr unsigned kMaxDepth = 128;

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
        if (c == '{' || c == '[') {
            if (depth_ == kMaxDepth)
                fail("nesting deeper than " + std::to_string(kMaxDepth) +
                     " levels");
            ++depth_;
            JsonValue v = c == '{' ? object() : array();
            --depth_;
            return v;
        }
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

    bool
    at(char c) const
    {
        return pos_ < text_.size() && text_[pos_] == c;
    }

    bool
    atDigit() const
    {
        return pos_ < text_.size() &&
               std::isdigit(static_cast<unsigned char>(text_[pos_]));
    }

    /** One or more digits; @p what names the part that needs them. */
    void
    digits(const char *what)
    {
        if (!atDigit())
            fail(std::string("expected digit ") + what);
        while (atDigit())
            ++pos_;
    }

    /**
     * RFC 8259's number grammar, exactly:
     * -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?. What follows
     * the number is the caller's to check, so `[1-2]` fails at `-`.
     */
    JsonValue
    number()
    {
        const std::size_t start = pos_;
        if (at('-'))
            ++pos_;
        if (at('0')) {
            ++pos_;
        } else if (atDigit()) {
            while (atDigit())
                ++pos_;
        } else {
            pos_ = start;
            fail("expected number");
        }
        if (at('.')) {
            ++pos_;
            digits("after decimal point");
        }
        if (at('e') || at('E')) {
            ++pos_;
            if (at('+') || at('-'))
                ++pos_;
            digits("in exponent");
        }
        JsonValue v;
        v.kind = JsonValue::Number;
        try {
            v.number = std::stod(text_.substr(start, pos_ - start));
        } catch (const std::out_of_range &) {
            pos_ = start;
            fail("number out of double range");
        }
        return v;
    }

    std::string text_;
    std::size_t pos_ = 0;
    unsigned depth_ = 0; //!< arrays/objects open at pos_
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
