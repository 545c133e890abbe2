/** Tests for span profile aggregation: (parent-path, name) bucket
 *  counts, inclusive vs self time attribution, exactness under ring
 *  eviction, multi-thread fold, and the profile.json export schema
 *  consumed by tools/eval_prof. */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <thread>

#include "trace/span_tracer.hh"
#include "valid/json_value.hh"

namespace eval {
namespace {

/** Reset the global tracer around every test. */
class SpanProfileTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        SpanTracer &tracer = SpanTracer::global();
        tracer.setEnabled(false);
        tracer.clear();
        tracer.setRingCapacity(SpanTracer::kDefaultRingCapacity);
    }

    void
    TearDown() override
    {
        SetUp();
    }
};

const ProfileBucket *
findBucket(const std::vector<ProfileBucket> &buckets,
           const std::string &path)
{
    for (const ProfileBucket &b : buckets)
        if (b.path == path)
            return &b;
    return nullptr;
}

void
spinFor(std::chrono::microseconds us)
{
    const auto until = std::chrono::steady_clock::now() + us;
    while (std::chrono::steady_clock::now() < until) {
    }
}

TEST_F(SpanProfileTest, DisabledTracerAggregatesNothing)
{
    SpanTracer &tracer = SpanTracer::global();
    {
        ScopedSpan span("profile.disabled");
    }
    EXPECT_TRUE(tracer.snapshotProfile().empty());
}

TEST_F(SpanProfileTest, BucketsKeyOnParentPathAndCountClosures)
{
    SpanTracer &tracer = SpanTracer::global();
    tracer.setEnabled(true);
    for (int i = 0; i < 3; ++i) {
        ScopedSpan outer("outer");
        {
            ScopedSpan inner("leaf");
        }
        {
            ScopedSpan other("other");
            ScopedSpan inner("leaf");
        }
    }
    tracer.setEnabled(false);

    const auto buckets = tracer.snapshotProfile();
    const ProfileBucket *outer = findBucket(buckets, "outer");
    const ProfileBucket *leaf = findBucket(buckets, "outer;leaf");
    const ProfileBucket *deep = findBucket(buckets, "outer;other;leaf");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(leaf, nullptr);
    ASSERT_NE(deep, nullptr);
    EXPECT_EQ(outer->count, 3u);
    EXPECT_EQ(leaf->count, 3u);
    EXPECT_EQ(deep->count, 3u);
    EXPECT_EQ(outer->name, "outer");
    EXPECT_EQ(leaf->name, "leaf");
    EXPECT_EQ(deep->name, "leaf");
    // Same leaf name under different parents stays in distinct
    // buckets; snapshotProfile is sorted by path.
    for (std::size_t i = 1; i < buckets.size(); ++i)
        EXPECT_LT(buckets[i - 1].path, buckets[i].path);
}

TEST_F(SpanProfileTest, SelfTimeExcludesDirectChildren)
{
    SpanTracer &tracer = SpanTracer::global();
    tracer.setEnabled(true);
    {
        ScopedSpan outer("outer");
        spinFor(std::chrono::microseconds(200));
        {
            ScopedSpan inner("inner");
            spinFor(std::chrono::microseconds(500));
        }
        spinFor(std::chrono::microseconds(200));
    }
    tracer.setEnabled(false);

    const auto buckets = tracer.snapshotProfile();
    const ProfileBucket *outer = findBucket(buckets, "outer");
    const ProfileBucket *inner = findBucket(buckets, "outer;inner");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    // Inclusive covers the whole scope; self excludes the child.
    EXPECT_GE(outer->inclNs, inner->inclNs);
    EXPECT_EQ(outer->selfNs, outer->inclNs - inner->inclNs);
    // A leaf's self time IS its inclusive time.
    EXPECT_EQ(inner->selfNs, inner->inclNs);
    // The child spun ~500us of the outer ~900us scope, so outer self
    // must be strictly less than outer inclusive.
    EXPECT_LT(outer->selfNs, outer->inclNs);
}

TEST_F(SpanProfileTest, ProfileCountsAreExactUnderRingEviction)
{
    SpanTracer &tracer = SpanTracer::global();
    tracer.setRingCapacity(16);
    tracer.setEnabled(true);
    constexpr int kSpans = 300;
    for (int i = 0; i < kSpans; ++i) {
        ScopedSpan span("evicted.loop");
    }
    tracer.setEnabled(false);

    EXPECT_GT(tracer.droppedCount(), 0u);
    EXPECT_LE(tracer.eventCount(), 17u);
    const auto buckets = tracer.snapshotProfile();
    const ProfileBucket *loop = findBucket(buckets, "evicted.loop");
    ASSERT_NE(loop, nullptr);
    EXPECT_EQ(loop->count, static_cast<std::uint64_t>(kSpans));
}

TEST_F(SpanProfileTest, ThreadsFoldIntoSharedBuckets)
{
    SpanTracer &tracer = SpanTracer::global();
    tracer.setEnabled(true);
    constexpr int kThreads = 4;
    constexpr int kPerThread = 25;
    std::vector<std::thread> workers;
    for (int t = 0; t < kThreads; ++t) {
        workers.emplace_back([] {
            for (int i = 0; i < kPerThread; ++i) {
                ScopedSpan outer("mt.outer");
                ScopedSpan inner("mt.inner");
            }
        });
    }
    for (std::thread &w : workers)
        w.join();
    tracer.setEnabled(false);

    const auto buckets = tracer.snapshotProfile();
    const ProfileBucket *outer = findBucket(buckets, "mt.outer");
    const ProfileBucket *inner =
        findBucket(buckets, "mt.outer;mt.inner");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(outer->count,
              static_cast<std::uint64_t>(kThreads * kPerThread));
    EXPECT_EQ(inner->count,
              static_cast<std::uint64_t>(kThreads * kPerThread));
}

TEST_F(SpanProfileTest, ProfileJsonMatchesSchemaAndSnapshot)
{
    SpanTracer &tracer = SpanTracer::global();
    tracer.setEnabled(true);
    {
        ScopedSpan outer("json.outer");
        ScopedSpan inner("json.inner");
    }
    tracer.setEnabled(false);

    const JsonValue doc = JsonValue::parse(tracer.profileJson());
    EXPECT_EQ(doc.at("schema_version").asInt(), 1);
    const auto &spans = doc.at("spans").asArray();
    const auto buckets = tracer.snapshotProfile();
    ASSERT_EQ(spans.size(), buckets.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        EXPECT_EQ(spans[i].at("path").asString(), buckets[i].path);
        EXPECT_EQ(spans[i].at("name").asString(), buckets[i].name);
        EXPECT_EQ(spans[i].at("count").asUint(), buckets[i].count);
        EXPECT_EQ(spans[i].at("incl_ns").asUint(), buckets[i].inclNs);
        EXPECT_EQ(spans[i].at("self_ns").asUint(), buckets[i].selfNs);
    }
}

TEST_F(SpanProfileTest, WriteProfileJsonProducesALoadableFile)
{
    SpanTracer &tracer = SpanTracer::global();
    tracer.setEnabled(true);
    {
        ScopedSpan span("file.span");
    }
    tracer.setEnabled(false);

    const std::string path =
        ::testing::TempDir() + "/span_profile_test.json";
    ASSERT_TRUE(tracer.writeProfileJson(path));
    std::ifstream in(path);
    std::stringstream text;
    text << in.rdbuf();
    const JsonValue doc = JsonValue::parse(text.str());
    EXPECT_EQ(doc.at("spans").asArray().size(), 1u);
    std::remove(path.c_str());
}

TEST_F(SpanProfileTest, ClearDropsProfileBuckets)
{
    SpanTracer &tracer = SpanTracer::global();
    tracer.setEnabled(true);
    {
        ScopedSpan span("clear.me");
    }
    tracer.setEnabled(false);
    ASSERT_FALSE(tracer.snapshotProfile().empty());
    tracer.clear();
    EXPECT_TRUE(tracer.snapshotProfile().empty());
}

} // namespace
} // namespace eval
