/** @file
 * The JSON module: the streaming writer and the reader against each
 * other, and each on its own.
 *
 * Writer: exact compact output and comma placement, string escaping
 * (quotes, backslashes, every control character) and %.17g numbers
 * that read back bitwise (-0.0, denormals, 1e308), empty and nested
 * containers, and writeJsonFile failing loudly on a full disk.
 *
 * Reader: hostile inputs (trailing text, non-JSON numbers, deep
 * nesting, truncation, unterminated strings, bad literals) fail with an
 * error naming the file and the fault.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "obs/json.hh"

namespace aquoman::obs {
namespace {

std::string
writeTemp(const std::string &name, const std::string &text)
{
    std::string path = testing::TempDir() + name;
    std::ofstream(path, std::ios::binary) << text;
    return path;
}

JsonValue
parsed(const std::string &json)
{
    JsonValue v;
    std::string error;
    EXPECT_TRUE(parseJson(json, &v, &error)) << error << ": " << json;
    return v;
}

// ---------------------------------------------------------------------
// Writer
// ---------------------------------------------------------------------

TEST(JsonWriter, CompactOutputWithWriterPlacedCommas)
{
    std::string js = jsonString([](JsonWriter &w) {
        w.beginObject();
        w.key("a").integer(1);
        w.key("b").beginArray().number(1.5).integer(-2).boolean(true);
        w.null().string("s").endArray();
        w.key("c").beginObject().endObject();
        w.key("d").raw("[7,8]");
        w.key("e").boolean(false);
        w.endObject();
    });
    EXPECT_EQ(js, R"({"a":1,"b":[1.5,-2,true,null,"s"],"c":{},)"
                  R"("d":[7,8],"e":false})");
}

TEST(JsonWriter, EmptyAndNestedContainersRoundTrip)
{
    std::string js = jsonString([](JsonWriter &w) {
        w.beginArray();
        w.beginArray().endArray();
        w.beginObject().endObject();
        w.beginArray().beginArray().beginArray().endArray().endArray();
        w.endArray();
        w.beginObject().key("k").beginArray().endArray().key("o");
        w.beginObject().key("deep").beginObject().endObject().endObject();
        w.endObject();
        w.endArray();
    });
    EXPECT_EQ(js, R"([[],{},[[[]]],{"k":[],"o":{"deep":{}}}])");
    JsonValue v = parsed(js);
    ASSERT_EQ(v.array.size(), 4u);
    EXPECT_TRUE(v.array[0].array.empty());
    EXPECT_EQ(v.array[1].kind, JsonValue::Kind::Object);
    EXPECT_TRUE(v.array[1].object.empty());
    EXPECT_EQ(v.array[2].array[0].array[0].kind, JsonValue::Kind::Array);
    EXPECT_EQ(v.array[3].at("o").at("deep").kind,
              JsonValue::Kind::Object);
}

TEST(JsonWriter, StringsRoundTripEveryByteThatNeedsEscaping)
{
    std::string hostile = "q\"uote back\\slash /slash";
    for (int c = 1; c < 0x20; ++c)
        hostile += static_cast<char>(c);
    hostile += "tail \xc3\xa9";
    std::string js = jsonString([&](JsonWriter &w) {
        w.beginObject().key(hostile).string(hostile).endObject();
    });
    // Every control character is escaped: the text carries none raw.
    for (char c : js)
        EXPECT_GE(static_cast<unsigned char>(c), 0x20) << js;
    JsonValue v = parsed(js);
    ASSERT_EQ(v.object.size(), 1u);
    EXPECT_EQ(v.object[0].first, hostile);
    EXPECT_EQ(v.object[0].second.str, hostile);
    // jsonEscape is the same escaping, for writers that build strings.
    EXPECT_EQ(js, "{\"" + jsonEscape(hostile) + "\":\""
                      + jsonEscape(hostile) + "\"}");
}

TEST(JsonWriter, NumbersRoundTripBitwise)
{
    const std::vector<double> values = {
        0.0,
        -0.0,
        0.1,
        1.0 / 3.0,
        -2.5e-7,
        1e308,
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::min(),
        std::numeric_limits<double>::denorm_min(),
        4.9406564584124654e-322,
        123456789012345678.0,
    };
    std::string js = jsonString([&](JsonWriter &w) {
        w.beginArray();
        for (double d : values)
            w.number(d);
        w.endArray();
    });
    JsonValue v = parsed(js);
    ASSERT_EQ(v.array.size(), values.size()) << js;
    for (std::size_t i = 0; i < values.size(); ++i) {
        double back = v.array[i].number;
        EXPECT_EQ(std::memcmp(&back, &values[i], sizeof back), 0)
            << jsonNumber(values[i]) << " read back as " << back;
        EXPECT_EQ(jsonNumber(back), jsonNumber(values[i]));
    }
    EXPECT_EQ(jsonNumber(-0.0), "-0");
    EXPECT_EQ(jsonNumber(0.1), "0.10000000000000001");
}

TEST(JsonWriter, IntegersAreExactAtTheExtremes)
{
    std::string js = jsonString([](JsonWriter &w) {
        w.beginArray()
            .integer(std::numeric_limits<std::int64_t>::min())
            .integer(std::numeric_limits<std::int64_t>::max())
            .integer(0)
            .endArray();
    });
    EXPECT_EQ(js, "[-9223372036854775808,9223372036854775807,0]");
}

TEST(JsonWriter, WriteJsonFileEndsWithNewlineAndParses)
{
    std::string path = testing::TempDir() + "writer_ok.json";
    ASSERT_TRUE(writeJsonFile(path, [](JsonWriter &w) {
        w.beginObject().key("n").number(2.5).endObject();
    }));
    std::ifstream f(path);
    std::stringstream text;
    text << f.rdbuf();
    EXPECT_EQ(text.str(), "{\"n\":2.5}\n");
    JsonValue v;
    std::string error;
    ASSERT_TRUE(parseJsonFile(path, &v, &error)) << error;
    EXPECT_EQ(v.num("n"), 2.5);
}

TEST(JsonWriter, WriteJsonFileFailsOnAFullDiskNamingThePath)
{
    std::ifstream probe("/dev/full");
    if (!probe)
        GTEST_SKIP() << "/dev/full is not available";
    testing::internal::CaptureStderr();
    bool ok = writeJsonFile("/dev/full", [](JsonWriter &w) {
        w.beginArray();
        for (int i = 0; i < 100000; ++i)
            w.number(i * 0.5);
        w.endArray();
    });
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_FALSE(ok);
    EXPECT_NE(err.find("cannot write /dev/full"), std::string::npos)
        << err;

    // Even a document smaller than the stream buffer fails: the
    // failure surfaces at the final flush.
    testing::internal::CaptureStderr();
    ok = writeJsonFile("/dev/full",
                       [](JsonWriter &w) { w.beginObject().endObject(); });
    err = testing::internal::GetCapturedStderr();
    EXPECT_FALSE(ok);
    EXPECT_NE(err.find("/dev/full"), std::string::npos) << err;
}

TEST(JsonWriter, WriteJsonFileFailsOnAnUnopenablePath)
{
    std::string path = testing::TempDir() + "no_such_dir/out.json";
    testing::internal::CaptureStderr();
    EXPECT_FALSE(writeJsonFile(path, [](JsonWriter &w) { w.null(); }));
    std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find(path), std::string::npos) << err;
}

// ---------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------

struct HostileCase
{
    const char *name;
    std::string text;
    const char *fault;
};

TEST(JsonReader, HostileReportsFailNamingFileAndFault)
{
    const std::vector<HostileCase> cases = {
        {"trailing_text", R"({"a":1} trailing)",
         "trailing characters after the root value at offset 8"},
        {"trailing_after_records",
         R"({"records":[{"query":1,"modelled_x":2}]} junk)",
         "trailing characters after the root value"},
        {"infinity", R"({"records":[{"query":infinity}]})",
         "unexpected character 'i' at offset 21"},
        {"hex_number", R"({"records":[{"query":0x10}]})",
         "malformed number at offset 21"},
        {"leading_zero", R"({"records":[{"query":010}]})",
         "malformed number"},
        {"bare_exponent", R"({"records":[{"query":1e}]})",
         "malformed number"},
        {"deep_nesting", std::string(200000, '['),
         "nesting deeper than 512 levels at offset 512"},
        {"truncated", R"({"records":[{"query":1)",
         "unexpected end of input"},
        {"unterminated_string", R"({"records":[{"query)",
         "unterminated string"},
        {"bad_literal", R"({"records":[{"ok":tru}]})", "bad literal"},
        {"run_on_literal", R"({"records":[{"ok":truex}]})", "bad literal"},
        {"bad_escape", R"({"records":[{"q\x":1}]})", "bad escape"},
        {"empty", "", "unexpected end of input at offset 0"},
    };
    for (const HostileCase &c : cases) {
        std::string path = writeTemp(std::string("hostile_") + c.name
                                         + ".json",
                                     c.text);
        JsonValue doc;
        std::string error;
        EXPECT_FALSE(parseJsonFile(path, &doc, &error)) << c.name;
        EXPECT_NE(error.find(path + ": "), std::string::npos)
            << c.name << ": " << error;
        EXPECT_NE(error.find(c.fault), std::string::npos)
            << c.name << ": " << error;
    }
}

TEST(JsonReader, NestingCapIsExact)
{
    JsonValue v;
    std::string error;
    std::string ok = std::string(kMaxJsonDepth, '[')
        + std::string(kMaxJsonDepth, ']');
    EXPECT_TRUE(parseJson(ok, &v, &error)) << error;
    std::string deep = std::string(kMaxJsonDepth + 1, '[')
        + std::string(kMaxJsonDepth + 1, ']');
    EXPECT_FALSE(parseJson(deep, &v, &error));
}

TEST(JsonReader, ParsesValidDocuments)
{
    JsonValue v;
    std::string error;
    ASSERT_TRUE(parseJson(
        R"( {"n":-0.5e+2,"z":0,"s":"a\"b\\cA\n","t":true,)"
        R"("f":false,"x":null,"a":[1,[2,{}]],"o":{"k":[]}} )",
        &v, &error))
        << error;
    EXPECT_EQ(v.num("n"), -50.0);
    EXPECT_EQ(v.num("z", 1.0), 0.0);
    EXPECT_EQ(v.text("s"), "a\"b\\cA\n");
    EXPECT_TRUE(v.at("t").boolean);
    EXPECT_EQ(v.at("f").kind, JsonValue::Kind::Bool);
    EXPECT_EQ(v.at("x").kind, JsonValue::Kind::Null);
    EXPECT_EQ(v.at("a").array.size(), 2u);
    EXPECT_EQ(v.at("missing").kind, JsonValue::Kind::Null);
    EXPECT_EQ(v.text("missing"), "?");
}

TEST(JsonReader, NumberGrammarIsJsonOnly)
{
    double v = 0.0;
    for (const char *good : {"0", "10", "-0.5", "1e-3", "2.5E+4"})
        EXPECT_TRUE(parseJsonNumber(good, &v)) << good;
    EXPECT_TRUE(parseJsonNumber("2.5E+4", &v));
    EXPECT_EQ(v, 25000.0);
    for (const char *bad : {"", "abc", "inf", "nan", "0x10", "1e", "1.",
                            ".5", "+1", "01", "1 ", "5%", "1e999"})
        EXPECT_FALSE(parseJsonNumber(bad, &v)) << bad;
}

} // namespace
} // namespace aquoman::obs
