/**
 * @file
 * JSON number I/O. Telemetry documents carry doubles; the HTTP
 * gateway's hot bodies carry arrays of float32 (a session's x and h)
 * and of int64 (raw frames and outputs), and it parses untrusted
 * request bodies with the same parser. Pinned here: every finite
 * double survives JsonWriter -> parseJson bit-identically (including
 * -0, subnormals and DBL_MAX); every finite float survives
 * floatArray -> parseJson(Float), where reading the text as a double
 * and narrowing misses two; int64 arrays are exact and refuse what is
 * not an int64; out-of-range floats read as ±inf or ±0; and a number
 * token that is not wholly a number is rejected instead of being read
 * as its longest valid prefix.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/json.hh"

namespace {

using namespace eie;

/** Write @p values as one JSON array and parse it back. */
std::vector<double>
roundTrip(const std::vector<double> &values)
{
    obs::JsonWriter writer;
    writer.beginArray();
    for (const double v : values)
        writer.value(v);
    writer.endArray();
    const obs::JsonValue parsed = obs::parseJson(writer.str());
    EXPECT_TRUE(parsed.isArray());
    std::vector<double> out;
    out.reserve(parsed.array.size());
    for (const obs::JsonValue &element : parsed.array) {
        EXPECT_EQ(element.kind, obs::JsonValue::Kind::Number);
        out.push_back(element.number);
    }
    return out;
}

/** Every value comes back with the same bits (memcmp, so -0 != +0). */
void
expectBitIdentical(const std::vector<double> &values)
{
    const std::vector<double> back = roundTrip(values);
    ASSERT_EQ(back.size(), values.size());
    for (std::size_t i = 0; i < values.size(); ++i)
        EXPECT_EQ(std::memcmp(&back[i], &values[i], sizeof(double)), 0)
            << std::hexfloat << values[i] << " came back as "
            << back[i];
}

std::string
written(double v)
{
    obs::JsonWriter writer;
    writer.value(v);
    return writer.str();
}

TEST(JsonNumbers, SeededFloatWidenedValuesRoundTripBitExactly)
{
    // Random float bit patterns cover every float exponent, subnormal
    // floats included, widened to double as value(double) receives a
    // float argument.
    std::mt19937 rng(20161);
    constexpr std::size_t kValues = 1'000'000;
    constexpr std::size_t kChunk = 10'000;
    for (std::size_t done = 0; done < kValues; done += kChunk) {
        std::vector<double> chunk;
        chunk.reserve(kChunk);
        while (chunk.size() < kChunk) {
            const std::uint32_t bits = rng();
            float f;
            std::memcpy(&f, &bits, sizeof f);
            if (std::isfinite(f))
                chunk.push_back(static_cast<double>(f));
        }
        expectBitIdentical(chunk);
        if (testing::Test::HasFailure())
            return;
    }
}

TEST(JsonNumbers, EdgeDoublesRoundTripBitExactly)
{
    std::vector<double> values = {
        0.0,
        -0.0,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        std::nextafter(DBL_MIN, 0.0), // largest subnormal
        DBL_MIN / 3,
        static_cast<double>(std::numeric_limits<float>::denorm_min()),
        DBL_MAX,
        -DBL_MAX,
        DBL_MIN,
        // Non-integers of magnitude >= 1e6.
        1e6 + 0.25,
        -1234567.5,
        123456789.123,
        4503599627370495.5, // 2^52 - 0.5
        1e15 + 0.5,
        // Whole numbers around and beyond the integer branch.
        999999999999999.0,
        1e15,
        -1e15,
        123456789012345678.0,
        1e300,
    };
    for (int e = std::numeric_limits<double>::min_exponent -
             std::numeric_limits<double>::digits;
         e < std::numeric_limits<double>::max_exponent; ++e) {
        values.push_back(std::ldexp(1.0, e));
        values.push_back(-std::ldexp(1.0, e));
    }
    expectBitIdentical(values);
}

TEST(JsonNumbers, NegativeZeroKeepsItsSign)
{
    EXPECT_EQ(written(-0.0), "-0");
    EXPECT_EQ(written(0.0), "0");
    const obs::JsonValue parsed = obs::parseJson("[-0]");
    ASSERT_EQ(parsed.array.size(), 1u);
    EXPECT_TRUE(std::signbit(parsed.array[0].number));
}

TEST(JsonNumbers, SessionRangeFloatsKeepTheirBytes)
{
    // The exact text value(double) gives these floats widened to
    // double. Session floats cross the wire as floatArray's shortest
    // float32 text instead (FloatArrays* below).
    const std::vector<std::pair<float, const char *>> table = {
        {0.1f, "0.10000000149011612"},
        {0.2f, "0.20000000298023224"},
        {-0.3f, "-0.30000001192092896"},
        {0.5f, "0.5"},
        {-0.25f, "-0.25"},
        {-0.0625f, "-0.0625"},
        {0.7f, "0.699999988079071"},
        {1.0f / 3.0f, "0.3333333432674408"},
        {-0.9999f, "-0.9998999834060669"},
        {0.999f, "0.9990000128746033"},
        {0.123456f, "0.12345600128173828"},
        {0.76159416f, "0.7615941762924194"},
        {1e-3f, "0.0010000000474974513"},
        {2.5e-5f, "2.499999936844688e-05"},
        {1e-7f, "1.0000000116860974e-07"},
        {1.5f, "1.5"},
        {-2.75f, "-2.75"},
        {3.0f, "3"},
        {-7.0f, "-7"},
        {0.0f, "0"},
    };
    for (const auto &[value, text] : table)
        EXPECT_EQ(written(static_cast<double>(value)), text)
            << std::hexfloat << value;

    // Whole numbers below 1e15 print in full, as counters do.
    EXPECT_EQ(written(1e6), "1000000");
    EXPECT_EQ(written(999999999999999.0), "999999999999999");
    EXPECT_EQ(written(-42.0), "-42");
}

TEST(JsonNumbers, MalformedNumbersAreRejected)
{
    // Each of these once parsed as its longest numeric prefix (1.2,
    // 1, 1.5, 5), so a gateway body with "x":[1.2.3] was accepted.
    for (const char *document :
         {"[1.2.3]", "[1-2]", "[1.5e]", "[+5]", "[-]", "[1e999]",
          "[0.5.]", "[2e+]", "[--1]", "{\"x\":1..0}"}) {
        try {
            obs::parseJson(document);
            ADD_FAILURE() << document << " parsed";
        } catch (const std::runtime_error &error) {
            EXPECT_NE(std::string(error.what()).find("bad number"),
                      std::string::npos)
                << document << ": " << error.what();
        }
    }
}

TEST(JsonNumbers, WellFormedNumbersParse)
{
    const obs::JsonValue parsed = obs::parseJson(
        "[0, -0.5, 12.25, 1e3, 2E-2, -3.5e+1, 1e-04, 5e-324]");
    ASSERT_TRUE(parsed.isArray());
    const std::vector<double> expected = {
        0, -0.5, 12.25, 1e3, 2e-2, -35.0, 1e-4,
        std::numeric_limits<double>::denorm_min()};
    ASSERT_EQ(parsed.array.size(), expected.size());
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_EQ(parsed.array[i].number, expected[i]) << i;
}

float
floatOfBits(std::uint32_t bits)
{
    float f;
    std::memcpy(&f, &bits, sizeof f);
    return f;
}

std::uint32_t
bitsOf(float f)
{
    std::uint32_t bits;
    std::memcpy(&bits, &f, sizeof bits);
    return bits;
}

std::string
writtenFloats(const std::vector<float> &values)
{
    obs::JsonWriter writer;
    writer.floatArray(values);
    return writer.str();
}

std::vector<float>
parsedFloats(const std::string &text)
{
    const obs::JsonValue parsed =
        obs::parseJson(text, obs::JsonNumberArrays::Float);
    EXPECT_EQ(parsed.kind, obs::JsonValue::Kind::FloatArray) << text;
    return parsed.floats;
}

/** The message parseJson throws for @p text in @p arrays mode. */
std::string
parseError(const std::string &text, obs::JsonNumberArrays arrays)
{
    try {
        obs::parseJson(text, arrays);
    } catch (const std::runtime_error &error) {
        return error.what();
    }
    ADD_FAILURE() << text << " parsed";
    return "";
}

TEST(JsonNumbers, FloatArraysRoundTripSeededBitPatterns)
{
    // Random float bit patterns cover every float exponent and the
    // subnormals; the edges ride along in the first chunk.
    std::mt19937 rng(20270);
    constexpr std::size_t kValues = 1'000'000;
    constexpr std::size_t kChunk = 10'000;
    std::vector<float> chunk = {
        0.0f,
        -0.0f,
        std::numeric_limits<float>::denorm_min(),
        -std::numeric_limits<float>::denorm_min(),
        std::nextafter(FLT_MIN, 0.0f), // largest subnormal
        FLT_MIN,
        FLT_MAX,
        -FLT_MAX,
    };
    for (std::size_t done = 0; done < kValues; done += kChunk) {
        while (chunk.size() < kChunk) {
            const float f = floatOfBits(rng());
            if (std::isfinite(f))
                chunk.push_back(f);
        }
        const std::vector<float> back = parsedFloats(writtenFloats(chunk));
        ASSERT_EQ(back.size(), chunk.size());
        for (std::size_t i = 0; i < chunk.size(); ++i)
            ASSERT_EQ(bitsOf(back[i]), bitsOf(chunk[i]))
                << std::hexfloat << chunk[i] << " came back as "
                << back[i];
        chunk.clear();
    }
}

TEST(JsonNumbers, FloatArraysReadFloat32NotNarrowedDoubles)
{
    // The two finite floats whose shortest text, read as a double and
    // narrowed, lands one ulp off: the text must be read as float32.
    const std::vector<float> pair = {floatOfBits(0x15ae43fd),
                                     floatOfBits(0x95ae43fd)};
    const std::string text = writtenFloats(pair);
    EXPECT_EQ(text, "[7.038531e-26,-7.038531e-26]");
    const std::vector<float> back = parsedFloats(text);
    ASSERT_EQ(back.size(), 2u);
    EXPECT_EQ(bitsOf(back[0]), 0x15ae43fdu);
    EXPECT_EQ(bitsOf(back[1]), 0x95ae43fdu);

    const obs::JsonValue doubles = obs::parseJson(text);
    ASSERT_EQ(doubles.array.size(), 2u);
    EXPECT_EQ(bitsOf(static_cast<float>(doubles.array[0].number)),
              0x15ae43feu);
    EXPECT_EQ(bitsOf(static_cast<float>(doubles.array[1].number)),
              0x95ae43feu);
}

TEST(JsonNumbers, FloatArraysOutOfRangeReadAsInfOrZero)
{
    const float inf = std::numeric_limits<float>::infinity();
    const std::vector<float> back = parsedFloats(
        "[1e39, -1e39, 3.4028236e38, 1e-50, -1e-50, 7e-46, "
        "3.40282356e38, 1e-45]");
    ASSERT_EQ(back.size(), 8u);
    EXPECT_EQ(back[0], inf);
    EXPECT_EQ(back[1], -inf);
    EXPECT_EQ(back[2], inf); // rounds past FLT_MAX
    EXPECT_EQ(bitsOf(back[3]), bitsOf(0.0f));
    EXPECT_EQ(bitsOf(back[4]), bitsOf(-0.0f));
    EXPECT_EQ(bitsOf(back[5]), bitsOf(0.0f));
    EXPECT_EQ(back[6], FLT_MAX); // rounds down to FLT_MAX
    EXPECT_EQ(back[7], std::numeric_limits<float>::denorm_min());

    // Beyond double's range, and malformed tokens, stay bad numbers.
    for (const char *document :
         {"[1e400]", "[-1e-400]", "[1.2.3]", "[1.5e]", "[+5]", "[-]",
          "[0.5, 1-2]"})
        EXPECT_NE(parseError(document, obs::JsonNumberArrays::Float)
                      .find("bad number"),
                  std::string::npos)
            << document;

    // A non-finite value writes as 0, as value(double) writes it.
    EXPECT_EQ(writtenFloats({inf, -inf, std::nanf(""), 1.5f}),
              "[0,0,0,1.5]");
}

TEST(JsonNumbers, Int64ArraysAreExact)
{
    std::mt19937_64 rng(20271);
    std::vector<std::int64_t> values = {
        0,
        -1,
        9007199254740993, // 2^53 + 1: a double rounds it to ...992
        -9007199254740993,
        std::numeric_limits<std::int64_t>::max(),
        std::numeric_limits<std::int64_t>::min(),
    };
    for (int i = 0; i < 10'000; ++i)
        values.push_back(static_cast<std::int64_t>(rng()));
    obs::JsonWriter writer;
    writer.int64Array(values);
    const std::string text = writer.str();
    EXPECT_EQ(text.rfind("[0,-1,9007199254740993,-9007199254740993,"
                         "9223372036854775807,-9223372036854775808,",
                         0),
              0u);
    const obs::JsonValue parsed =
        obs::parseJson(text, obs::JsonNumberArrays::Int64);
    ASSERT_EQ(parsed.kind, obs::JsonValue::Kind::Int64Array);
    EXPECT_EQ(parsed.int64s, values);
}

TEST(JsonNumbers, Int64ArraysRefuseWhatIsNotAnInt64)
{
    // Well-formed numbers that are not int64 literals: non-integers
    // (whatever their value) and magnitudes of 2^63 or more.
    for (const char *document :
         {"[1.5]", "[1e3]", "[5.0]", "[1e30]", "[-1e30]",
          "[9223372036854775808]", "[-9223372036854775809]",
          "[0, 1, 2.5]"}) {
        const std::string error =
            parseError(document, obs::JsonNumberArrays::Int64);
        EXPECT_NE(error.find("not a 64-bit integer"), std::string::npos)
            << document << ": " << error;
    }
    // Malformed tokens keep the tree's message.
    for (const char *document :
         {"[1.2.3]", "[-]", "[+5]", "[1e999]", "[--1]", "[2e+]"}) {
        const std::string error =
            parseError(document, obs::JsonNumberArrays::Int64);
        EXPECT_NE(error.find("bad number"), std::string::npos)
            << document << ": " << error;
    }
}

TEST(JsonNumbers, TypedModesReadOnlyArraysOfNumbers)
{
    // Arrays of arrays stay a tree around typed leaves; scalars stay
    // doubles; an array that starts with a non-number stays a tree;
    // an empty array is an empty typed array.
    const obs::JsonValue body = obs::parseJson(
        R"({"frames":[[1,-2],[]],"version":3,"x":[],)"
        R"("tags":["a",1],"nested":{"h":[ 7 , 8 ]}})",
        obs::JsonNumberArrays::Int64);
    const obs::JsonValue *frames = body.find("frames");
    ASSERT_NE(frames, nullptr);
    ASSERT_TRUE(frames->isArray());
    ASSERT_EQ(frames->array.size(), 2u);
    EXPECT_EQ(frames->array[0].kind, obs::JsonValue::Kind::Int64Array);
    EXPECT_EQ(frames->array[0].int64s,
              (std::vector<std::int64_t>{1, -2}));
    EXPECT_EQ(frames->array[1].kind, obs::JsonValue::Kind::Int64Array);
    EXPECT_TRUE(frames->array[1].int64s.empty());
    EXPECT_EQ(body.numberOr("version", 0.0), 3.0);
    EXPECT_EQ(body.find("x")->kind, obs::JsonValue::Kind::Int64Array);
    const obs::JsonValue *tags = body.find("tags");
    ASSERT_TRUE(tags->isArray());
    EXPECT_EQ(tags->array[1].kind, obs::JsonValue::Kind::Number);
    EXPECT_EQ(body.find("nested")->find("h")->int64s,
              (std::vector<std::int64_t>{7, 8}));

    // Once an array starts with a number, every element must be one.
    for (const char *document : {"[1,\"a\"]", "[1,[2]]", "[1,,2]", "[1 2]"})
        EXPECT_FALSE(
            parseError(document, obs::JsonNumberArrays::Float).empty())
            << document;
}

} // namespace
