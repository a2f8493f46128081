/** @file Round-trip property tests for the production JSON pair
 *        (stats::JsonWriter -> util::JsonValue::parse) plus the
 *        committed corpus of edge-case inputs in tests/json_corpus/. */

#include <gtest/gtest.h>

#include <filesystem>
#include <random>
#include <string>
#include <vector>

#include "stats/json_writer.hh"
#include "util/file.hh"
#include "util/json.hh"

using namespace cellbw;
using util::JsonValue;

namespace
{

/** Deterministic random document, written straight to @p w. */
void
genValue(std::mt19937 &rng, int depth, stats::JsonWriter &w)
{
    auto pick = [&](int n) {
        return static_cast<int>(rng() % static_cast<unsigned>(n));
    };
    // Weight leaves heavier as we go deeper so documents terminate.
    const int kind = pick(depth > 4 ? 5 : 7);
    switch (kind) {
      case 0:
        w.null();
        return;
      case 1:
        w.value(pick(2) == 0);
        return;
      case 2:
        // Integers within double's 53-bit range, and fractions.
        if (pick(2) == 0) {
            const std::uint64_t hi = rng();
            const std::uint64_t bits = (hi << 32 | rng()) % (1ull << 53);
            w.value(static_cast<std::int64_t>(bits) -
                    static_cast<std::int64_t>(1ull << 52));
        } else {
            w.value(static_cast<double>(rng()) / 977.0 -
                    static_cast<double>(rng()) / 331.0);
        }
        return;
      case 3: {
        std::string s;
        const int len = pick(12);
        for (int i = 0; i < len; ++i) {
            // Includes controls, quotes, backslashes, and high bytes.
            s += static_cast<char>(rng() % 256);
        }
        w.value(s);
        return;
      }
      case 4:
        w.value(std::string("plain").append(std::to_string(pick(100))));
        return;
      case 5: {
        w.beginArray();
        const int len = pick(4);
        for (int i = 0; i < len; ++i)
            genValue(rng, depth + 1, w);
        w.endArray();
        return;
      }
      default: {
        w.beginObject();
        const int len = pick(4);
        for (int i = 0; i < len; ++i) {
            w.key(std::string("k").append(std::to_string(i)));
            genValue(rng, depth + 1, w);
        }
        w.endObject();
        return;
      }
    }
}

/** Re-emit a parsed tree through the production writer. */
void
emit(const JsonValue &v, stats::JsonWriter &w)
{
    switch (v.kind()) {
      case JsonValue::Kind::Null:
        w.null();
        return;
      case JsonValue::Kind::Bool:
        w.value(v.boolean());
        return;
      case JsonValue::Kind::Number:
        w.value(v.number());
        return;
      case JsonValue::Kind::String:
        w.value(v.str());
        return;
      case JsonValue::Kind::Array:
        w.beginArray();
        for (const auto &e : v.array())
            emit(e, w);
        w.endArray();
        return;
      case JsonValue::Kind::Object:
        w.beginObject();
        for (const auto &m : v.object()) {
            w.key(m.first);
            emit(m.second, w);
        }
        w.endObject();
        return;
    }
}

std::string
nested(int depth, const std::string &leaf)
{
    std::string s;
    for (int i = 0; i < depth; ++i)
        s += '[';
    s += leaf;
    for (int i = 0; i < depth; ++i)
        s += ']';
    return s;
}

} // namespace

TEST(JsonRoundTrip, GeneratedDocumentsSurviveWriteParse)
{
    std::mt19937 rng(20260806);
    for (int i = 0; i < 500; ++i) {
        stats::JsonWriter w;
        genValue(rng, 0, w);
        const std::string text = w.str();

        JsonValue back;
        std::string err;
        ASSERT_TRUE(JsonValue::parse(text, back, err))
            << "iteration " << i << ": " << err << "\n" << text;
        // Re-emitting the parsed tree reproduces the text exactly.
        stats::JsonWriter again;
        emit(back, again);
        EXPECT_EQ(again.str(), text) << "iteration " << i;
    }
}

TEST(JsonRoundTrip, EscapeSequencesRoundTrip)
{
    const std::string raw = std::string("a\"b\\c\n\t\r\b\f") +
                            std::string(1, '\0') + "\x01 end";
    stats::JsonWriter w;
    w.value(raw);
    JsonValue back;
    std::string err;
    ASSERT_TRUE(JsonValue::parse(w.str(), back, err)) << err;
    EXPECT_EQ(back.str(), raw);
}

TEST(JsonRoundTrip, DepthCapIsExactAndFatalFree)
{
    JsonValue doc;
    std::string err;
    EXPECT_TRUE(JsonValue::parse(
        nested(static_cast<int>(JsonValue::kMaxDepth), "1"), doc, err))
        << err;
    EXPECT_FALSE(JsonValue::parse(
        nested(static_cast<int>(JsonValue::kMaxDepth) + 1, "1"), doc,
        err));
    EXPECT_NE(err.find("nesting"), std::string::npos) << err;
}

TEST(JsonRoundTrip, StrictNumberGrammar)
{
    JsonValue doc;
    std::string err;
    EXPECT_FALSE(JsonValue::parse("+1", doc, err));
    EXPECT_FALSE(JsonValue::parse("01", doc, err));
    EXPECT_FALSE(JsonValue::parse("1.", doc, err));
    EXPECT_FALSE(JsonValue::parse(".5", doc, err));
    EXPECT_FALSE(JsonValue::parse("1e", doc, err));
    EXPECT_FALSE(JsonValue::parse("1e+", doc, err));
    EXPECT_FALSE(JsonValue::parse("--1", doc, err));
    EXPECT_TRUE(JsonValue::parse("-0.5e+10", doc, err)) << err;
    EXPECT_TRUE(JsonValue::parse("0", doc, err)) << err;
}

TEST(JsonRoundTrip, CommittedCorpus)
{
    namespace fs = std::filesystem;
    unsigned ok = 0, bad = 0;
    for (const auto &entry : fs::directory_iterator(CELLBW_JSON_CORPUS)) {
        const std::string name = entry.path().filename().string();
        std::string text;
        ASSERT_TRUE(util::readFile(entry.path().string(), text)) << name;

        JsonValue doc;
        std::string err;
        const bool parsed = JsonValue::parse(text, doc, err);
        if (name.rfind("ok_", 0) == 0) {
            EXPECT_TRUE(parsed) << name << ": " << err;
            ++ok;
        } else if (name.rfind("bad_", 0) == 0) {
            EXPECT_FALSE(parsed) << name << " parsed unexpectedly";
            EXPECT_FALSE(err.empty()) << name;
            ++bad;
        } else {
            FAIL() << "corpus file " << name
                   << " must start with ok_ or bad_";
        }
    }
    EXPECT_GE(ok, 3u);
    EXPECT_GE(bad, 4u);
}
