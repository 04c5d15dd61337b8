/**
 * @file
 * JSON number I/O. The HTTP gateway ships session hidden states and
 * float outputs as JSON doubles and parses untrusted request bodies
 * with the same parser, so two properties are pinned here: every
 * finite double survives JsonWriter -> parseJson bit-identically
 * (including -0, subnormals and DBL_MAX), and a number token that is
 * not wholly a number is rejected instead of being read as its
 * longest valid prefix. A byte table keeps the session-range floats
 * in the exact text they have always had on the wire.
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
    // floats included; a session's h and x are floats widened to
    // double on their way into JSON.
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
    // The exact text these floats have always had on the wire.
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

} // namespace
