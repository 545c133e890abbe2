/**
 * Fuzz tests for the JSON parser backing the snapshot subsystem:
 * random hostile input must throw JsonParseError (never crash or
 * hang), random generated documents must survive dump -> parse ->
 * dump byte-exactly, and deep nesting must hit the recursion cap.
 */

#include <cmath>
#include <string>

#include <gtest/gtest.h>

#include "util/random.hh"
#include "valid/json_value.hh"

using namespace eval;

namespace {

std::string
randomJsonish(Rng &rng, std::size_t maxLen)
{
    static const char pool[] =
        "{}[]\",:0123456789.eE+-truefalsnu\\ \t\n";
    const std::size_t len = rng.uniformInt(maxLen + 1);
    std::string s;
    s.reserve(len);
    for (std::size_t i = 0; i < len; ++i)
        s.push_back(pool[rng.uniformInt(sizeof(pool) - 1)]);
    return s;
}

JsonValue
randomValue(Rng &rng, int depth)
{
    switch (depth > 3 ? rng.uniformInt(5) : rng.uniformInt(7)) {
      case 0:
        return JsonValue();
      case 1:
        return JsonValue(rng.uniformInt(2) != 0);
      case 2:
        return JsonValue(static_cast<std::int64_t>(rng.next()));
      case 3:
        // Mix magnitudes so subnormals and huge values both appear.
        return JsonValue(rng.gaussian() *
                         std::pow(10.0, rng.uniform(-300.0, 300.0)));
      case 4: {
        std::string s;
        const std::size_t n = rng.uniformInt(12);
        for (std::size_t i = 0; i < n; ++i)
            s.push_back(static_cast<char>(rng.uniformInt(0x60) + 0x20));
        return JsonValue(std::move(s));
      }
      case 5: {
        JsonValue arr = JsonValue::array();
        const std::size_t n = rng.uniformInt(5);
        for (std::size_t i = 0; i < n; ++i)
            arr.push(randomValue(rng, depth + 1));
        return arr;
      }
      default: {
        JsonValue obj = JsonValue::object();
        const std::size_t n = rng.uniformInt(5);
        for (std::size_t i = 0; i < n; ++i) {
            std::string key = "k";
            key.append(std::to_string(i))
                .append("_")
                .append(std::to_string(rng.uniformInt(1000)));
            obj.set(key, randomValue(rng, depth + 1));
        }
        return obj;
      }
    }
}

} // namespace

TEST(JsonFuzz, HostileInputThrowsNeverCrashes)
{
    Rng rng(0x15AAC);
    int parsed = 0, rejected = 0;
    for (int i = 0; i < 5000; ++i) {
        const std::string text = randomJsonish(rng, 64);
        try {
            (void)JsonValue::parse(text);
            ++parsed;
        } catch (const JsonParseError &e) {
            EXPECT_LE(e.offset(), text.size());
            ++rejected;
        }
    }
    // Sanity: the corpus actually exercises the error paths.
    EXPECT_GT(rejected, 0);
    (void)parsed;
}

TEST(JsonFuzz, GeneratedDocumentsRoundTripByteExactly)
{
    Rng rng(0x90112);
    for (int i = 0; i < 400; ++i) {
        const JsonValue doc = randomValue(rng, 0);
        const std::string compact = doc.dump();
        const std::string pretty = doc.dump(2);
        const JsonValue fromCompact = JsonValue::parse(compact);
        const JsonValue fromPretty = JsonValue::parse(pretty);
        EXPECT_EQ(fromCompact, doc);
        EXPECT_EQ(fromPretty, doc);
        EXPECT_EQ(fromCompact.dump(), compact);
        EXPECT_EQ(fromPretty.dump(2), pretty);
    }
}

TEST(JsonFuzz, DeepNestingHitsRecursionCapNotStack)
{
    const std::string deepArray(4096, '[');
    EXPECT_THROW(JsonValue::parse(deepArray), JsonParseError);
    std::string balanced;
    for (int i = 0; i < 1000; ++i)
        balanced += "[";
    for (int i = 0; i < 1000; ++i)
        balanced += "]";
    EXPECT_THROW(JsonValue::parse(balanced), JsonParseError);
}
