/**
 * @file
 * Minimal JSON support for the telemetry surfaces: a streaming
 * writer so every exposition path (ServingDirectory::statsJson, the
 * client transports, MetricsRegistry::renderJson) emits through one
 * escaper instead of four hand-rolled ones, and a small
 * recursive-descent parser for the consumers we ship (eie_top, the
 * golden-schema test) that must read those documents back without a
 * third-party dependency.
 *
 * The parser handles the JSON this repo produces — objects, arrays,
 * strings with standard escapes, numbers, booleans, null — and
 * throws std::runtime_error on malformed input. It is not a
 * general-purpose validator (no \u surrogate pairs, no depth limit
 * beyond the stack).
 *
 * The HTTP gateway's hot bodies are mostly one long array of numbers
 * (a session's x and h, a raw frame and its output), so both ends
 * have a typed form of it: floatArray()/int64Array() write the
 * shortest text of each element, and parseJson's Float and Int64
 * modes read such an array straight into a std::vector of that type,
 * with no JsonValue per element.
 */

#ifndef EIE_OBS_JSON_HH
#define EIE_OBS_JSON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

namespace eie::obs {

/**
 * Streaming JSON writer with automatic comma placement. Calls must
 * nest correctly (beginObject/endObject balanced); keys only inside
 * objects, bare values only inside arrays.
 */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();

    /** Start a keyed child ("key": ...) inside an object. */
    JsonWriter &key(const std::string &name);

    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);
    JsonWriter &value(double v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(int v);
    JsonWriter &value(bool v);

    /** Shorthand: key(name).value(v). */
    template <typename T>
    JsonWriter &
    field(const std::string &name, T v)
    {
        key(name);
        return value(v);
    }

    /** An array of floats, each the shortest text that
     *  std::from_chars(float) reads back bit-exactly. Read it as
     *  float32 (parseJson's Float mode): parsing that text as a double
     *  and narrowing misrounds some values (±7.038531e-26). A
     *  non-finite value prints as 0, as value(double) prints it. */
    JsonWriter &floatArray(std::span<const float> values);

    /** An array of integers, each printed exactly. */
    JsonWriter &int64Array(std::span<const std::int64_t> values);

    /** Splice an already-serialized JSON document as a value. */
    JsonWriter &raw(const std::string &json);

    std::string str() const;

    static std::string escape(const std::string &s);

  private:
    void separator();

    std::string out_;
    // Whether the container at each nesting depth has emitted its
    // first element yet (drives comma placement).
    std::vector<bool> has_elements_;
    bool pending_key_ = false;
};

/** A parsed JSON document node. */
struct JsonValue
{
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
        FloatArray, ///< an array of numbers in JsonNumberArrays::Float
        Int64Array, ///< an array of numbers in JsonNumberArrays::Int64
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::map<std::string, JsonValue> object;
    std::vector<float> floats;        ///< FloatArray elements
    std::vector<std::int64_t> int64s; ///< Int64Array elements

    bool
    isObject() const
    {
        return kind == Kind::Object;
    }

    bool
    isArray() const
    {
        return kind == Kind::Array;
    }

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &name) const;

    /** find() + numeric coercion; @p fallback when absent. */
    double numberOr(const std::string &name, double fallback) const;

    /** find() + string coercion; @p fallback when absent. */
    std::string stringOr(const std::string &name,
                         const std::string &fallback) const;

    /** Sorted member names (schema tests). */
    std::vector<std::string> keys() const;
};

/**
 * How parseJson stores an array of numbers: one that is empty or
 * whose first element is a number token. In the typed modes every
 * element of such an array must be a number.
 */
enum class JsonNumberArrays
{
    Tree,  ///< a Kind::Array of Kind::Number (double) nodes
    /** A Kind::FloatArray, each element read by from_chars(float).
     *  A magnitude that overflows float reads as ±inf and one that
     *  underflows to zero as ±0; one beyond double's range is a bad
     *  number, as in Tree mode. */
    Float,
    /** A Kind::Int64Array, each element read by from_chars(int64).
     *  A well-formed number that is not an integer literal within
     *  int64 ("1.5", "1e3", "9223372036854775808") is an error. */
    Int64,
};

/** Parse @p text; throws std::runtime_error on malformed input. */
JsonValue parseJson(const std::string &text,
                    JsonNumberArrays arrays = JsonNumberArrays::Tree);

} // namespace eie::obs

#endif // EIE_OBS_JSON_HH
