#include "obs/json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>
#include <type_traits>

namespace eie::obs {

// ---------------------------------------------------------------
// Writer
// ---------------------------------------------------------------

void
JsonWriter::separator()
{
    if (pending_key_) {
        // The value completes a "key": pair — no comma here.
        pending_key_ = false;
        return;
    }
    if (has_elements_.empty())
        return;
    if (has_elements_.back())
        out_ += ',';
    has_elements_.back() = true;
}

JsonWriter &
JsonWriter::beginObject()
{
    separator();
    out_ += '{';
    has_elements_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    out_ += '}';
    has_elements_.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separator();
    out_ += '[';
    has_elements_.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    out_ += ']';
    has_elements_.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &name)
{
    separator();
    out_ += '"';
    out_ += escape(name);
    out_ += "\":";
    pending_key_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    separator();
    out_ += '"';
    out_ += escape(v);
    out_ += '"';
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v));
}

JsonWriter &
JsonWriter::value(double v)
{
    separator();
    if (!std::isfinite(v)) {
        out_ += '0';
        return *this;
    }
    // Whole numbers print in full, as the counters they usually are.
    // Everything else, and a zero (whose sign the integer cast would
    // drop), prints as the shortest string that parses back to
    // exactly v, so a double survives a write/parse round trip
    // bit-exactly.
    char buf[32];
    const bool whole = v != 0 && v == std::floor(v) && std::abs(v) < 1e15;
    const std::to_chars_result written = whole
        ? std::to_chars(buf, buf + sizeof(buf),
                        static_cast<long long>(v))
        : std::to_chars(buf, buf + sizeof(buf), v);
    out_.append(buf, written.ptr);
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    separator();
    out_ += std::to_string(v);
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    separator();
    out_ += std::to_string(v);
    return *this;
}

JsonWriter &
JsonWriter::value(int v)
{
    return value(static_cast<std::int64_t>(v));
}

JsonWriter &
JsonWriter::value(bool v)
{
    separator();
    out_ += v ? "true" : "false";
    return *this;
}

namespace {

/** Append @p values as one JSON array of to_chars text. */
template <typename T>
void
appendNumberArray(std::string &out, std::span<const T> values)
{
    out.reserve(out.size() + 2 + 16 * values.size());
    out += '[';
    char buf[32];
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i != 0)
            out += ',';
        T v = values[i];
        if constexpr (std::is_floating_point_v<T>)
            if (!std::isfinite(v))
                v = 0;
        out.append(buf, std::to_chars(buf, buf + sizeof(buf), v).ptr);
    }
    out += ']';
}

} // namespace

JsonWriter &
JsonWriter::floatArray(std::span<const float> values)
{
    separator();
    appendNumberArray(out_, values);
    return *this;
}

JsonWriter &
JsonWriter::int64Array(std::span<const std::int64_t> values)
{
    separator();
    appendNumberArray(out_, values);
    return *this;
}

JsonWriter &
JsonWriter::raw(const std::string &json)
{
    separator();
    out_ += json;
    return *this;
}

std::string
JsonWriter::str() const
{
    return out_;
}

std::string
JsonWriter::escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

// ---------------------------------------------------------------
// Parser
// ---------------------------------------------------------------

const JsonValue *
JsonValue::find(const std::string &name) const
{
    if (kind != Kind::Object)
        return nullptr;
    auto it = object.find(name);
    return it == object.end() ? nullptr : &it->second;
}

double
JsonValue::numberOr(const std::string &name, double fallback) const
{
    const JsonValue *v = find(name);
    return (v != nullptr && v->kind == Kind::Number) ? v->number
                                                     : fallback;
}

std::string
JsonValue::stringOr(const std::string &name,
                    const std::string &fallback) const
{
    const JsonValue *v = find(name);
    return (v != nullptr && v->kind == Kind::String) ? v->string
                                                     : fallback;
}

std::vector<std::string>
JsonValue::keys() const
{
    std::vector<std::string> names;
    names.reserve(object.size());
    for (const auto &[name, value] : object)
        names.push_back(name);
    return names;
}

namespace {

bool
isNumberChar(char c)
{
    return std::isdigit(static_cast<unsigned char>(c)) || c == '.' ||
        c == 'e' || c == 'E' || c == '+' || c == '-';
}

class Parser
{
  public:
    Parser(const std::string &text, JsonNumberArrays arrays)
        : text_(text), arrays_(arrays)
    {}

    JsonValue
    parse()
    {
        JsonValue v = parseValue();
        skipWhitespace();
        if (pos_ != text_.size())
            fail("trailing characters after document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what)
    {
        throw std::runtime_error("json parse error at offset "
                                 + std::to_string(pos_) + ": "
                                 + what);
    }

    void
    skipWhitespace()
    {
        while (pos_ < text_.size()
               && std::isspace(
                   static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consumeLiteral(const char *lit)
    {
        std::size_t n = 0;
        while (lit[n] != '\0')
            ++n;
        if (text_.compare(pos_, n, lit) != 0)
            return false;
        pos_ += n;
        return true;
    }

    JsonValue
    parseValue()
    {
        skipWhitespace();
        char c = peek();
        switch (c) {
        case '{':
            return parseObject();
        case '[':
            return parseArray();
        case '"': {
            JsonValue v;
            v.kind = JsonValue::Kind::String;
            v.string = parseString();
            return v;
        }
        case 't': {
            if (!consumeLiteral("true"))
                fail("bad literal");
            JsonValue v;
            v.kind = JsonValue::Kind::Bool;
            v.boolean = true;
            return v;
        }
        case 'f': {
            if (!consumeLiteral("false"))
                fail("bad literal");
            JsonValue v;
            v.kind = JsonValue::Kind::Bool;
            v.boolean = false;
            return v;
        }
        case 'n': {
            if (!consumeLiteral("null"))
                fail("bad literal");
            return JsonValue{};
        }
        default:
            return parseNumber();
        }
    }

    JsonValue
    parseObject()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Object;
        expect('{');
        skipWhitespace();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            skipWhitespace();
            std::string name = parseString();
            skipWhitespace();
            expect(':');
            v.object[name] = parseValue();
            skipWhitespace();
            char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            if (c == '}') {
                ++pos_;
                return v;
            }
            fail("expected ',' or '}'");
        }
    }

    JsonValue
    parseArray()
    {
        JsonValue v;
        expect('[');
        skipWhitespace();
        if (arrays_ != JsonNumberArrays::Tree &&
            (peek() == ']' || isNumberChar(peek()))) {
            if (arrays_ == JsonNumberArrays::Float) {
                v.kind = JsonValue::Kind::FloatArray;
                v.floats = numberArray<float>();
            } else {
                v.kind = JsonValue::Kind::Int64Array;
                v.int64s = numberArray<std::int64_t>();
            }
            return v;
        }
        v.kind = JsonValue::Kind::Array;
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.array.push_back(parseValue());
            skipWhitespace();
            char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            if (c == ']') {
                ++pos_;
                return v;
            }
            fail("expected ',' or ']'");
        }
    }

    /** The rest of an array of numbers, '[' consumed: each element
     *  straight into the vector, no JsonValue per element. */
    template <typename T>
    std::vector<T>
    numberArray()
    {
        std::vector<T> out;
        if (peek() == ']') {
            ++pos_;
            return out;
        }
        while (true) {
            skipWhitespace();
            out.push_back(number<T>());
            skipWhitespace();
            const char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            if (c == ']') {
                ++pos_;
                return out;
            }
            fail("expected ',' or ']'");
        }
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            char esc = text_[pos_++];
            switch (esc) {
            case '"':
                out += '"';
                break;
            case '\\':
                out += '\\';
                break;
            case '/':
                out += '/';
                break;
            case 'n':
                out += '\n';
                break;
            case 'r':
                out += '\r';
                break;
            case 't':
                out += '\t';
                break;
            case 'b':
                out += '\b';
                break;
            case 'f':
                out += '\f';
                break;
            case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code += static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code +=
                            static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code +=
                            static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad \\u escape");
                }
                // Our emitters only escape control characters, so
                // a one-byte decode covers everything we produce.
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else {
                    out += '?';
                }
                break;
            }
            default:
                fail("bad escape");
            }
        }
    }

    JsonValue
    parseNumber()
    {
        JsonValue v;
        v.kind = JsonValue::Kind::Number;
        v.number = number<double>();
        return v;
    }

    /** The next number token, read by from_chars of @p T. The whole
     *  token must be one number: "1.2.3" is malformed, not 1.2
     *  followed by junk. */
    template <typename T>
    T
    number()
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() && isNumberChar(text_[pos_]))
            ++pos_;
        if (pos_ == start)
            fail("expected a value");
        const char *first = text_.data() + start;
        const char *last = text_.data() + pos_;
        T value{};
        const std::from_chars_result parsed =
            std::from_chars(first, last, value);
        if (parsed.ec == std::errc() && parsed.ptr == last)
            return value;
        if constexpr (!std::is_same_v<T, double>) {
            // A token that is a well-formed number, but not one of
            // type T, is out of T's range or (for int64) not an
            // integer literal.
            double wide = 0.0;
            const std::from_chars_result as_double =
                std::from_chars(first, last, wide);
            if (as_double.ec == std::errc() && as_double.ptr == last) {
                if constexpr (std::is_same_v<T, float>) {
                    // It overflows or underflows float: read it as
                    // ±inf (which the quantizer saturates) or ±0, as
                    // a double-to-float cast did, but without the
                    // cast, which is undefined out of range.
                    const float magnitude = std::abs(wide) > 1.0
                        ? std::numeric_limits<float>::infinity()
                        : 0.0f;
                    return std::signbit(wide) ? -magnitude : magnitude;
                } else {
                    fail("not a 64-bit integer");
                }
            }
        }
        fail("bad number");
    }

    const std::string &text_;
    const JsonNumberArrays arrays_;
    std::size_t pos_ = 0;
};

} // namespace

JsonValue
parseJson(const std::string &text, JsonNumberArrays arrays)
{
    return Parser(text, arrays).parse();
}

} // namespace eie::obs
