#include <cstdio>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "valid/snapshot.hh"

using namespace eval;

namespace {

JsonValue
samplePayload()
{
    JsonValue p = JsonValue::object();
    p.set("count", 3);
    p.set("scale", 0.1);
    JsonValue arr = JsonValue::array();
    arr.push(std::int64_t{-5});
    arr.push(1.0 / 3.0);
    arr.push("text");
    arr.push(true);
    arr.push(JsonValue());
    p.set("items", arr);
    return p;
}

std::string
tempPath(const char *name)
{
    return testing::TempDir() + name;
}

} // namespace

TEST(Snapshot, EnvelopeRoundTrip)
{
    const JsonValue snap = makeSnapshot("sample", 3, samplePayload());
    const JsonValue &payload = snapshotPayload(snap, "sample", 3);
    EXPECT_EQ(payload, samplePayload());
}

TEST(Snapshot, EnvelopeMismatchesThrow)
{
    JsonValue snap = makeSnapshot("sample", 3, samplePayload());
    EXPECT_THROW(snapshotPayload(snap, "other", 3), SnapshotError);
    EXPECT_THROW(snapshotPayload(snap, "sample", 4), SnapshotError);
    snap.set("magic", "WRONG");
    EXPECT_THROW(snapshotPayload(snap, "sample", 3), SnapshotError);
    snap.set("magic", "EVALSNAP");
    snap.set("format_version", 999);
    EXPECT_THROW(snapshotPayload(snap, "sample", 3), SnapshotError);
    EXPECT_THROW(snapshotPayload(JsonValue(1), "sample", 3),
                 SnapshotError);
}

TEST(Snapshot, BinaryRoundTripIsExact)
{
    const JsonValue snap = makeSnapshot("sample", 1, samplePayload());
    const std::string bytes = encodeBinary(snap);
    EXPECT_EQ(decodeBinary(bytes), snap);
    // Encoding is deterministic.
    EXPECT_EQ(encodeBinary(snap), bytes);
}

TEST(Snapshot, BinaryRejectsCorruption)
{
    const std::string bytes =
        encodeBinary(makeSnapshot("sample", 1, samplePayload()));
    EXPECT_THROW(decodeBinary("XXXX"), SnapshotError);
    EXPECT_THROW(decodeBinary(bytes.substr(0, bytes.size() / 2)),
                 SnapshotError);
    EXPECT_THROW(decodeBinary(bytes + "extra"), SnapshotError);
    std::string wrongVersion = bytes;
    wrongVersion[4] = 99;
    EXPECT_THROW(decodeBinary(wrongVersion), SnapshotError);
}

TEST(Snapshot, FileRoundTripIsBinary)
{
    const JsonValue snap = makeSnapshot("sample", 1, samplePayload());
    const std::string path = tempPath("snapshot_test.bin");
    ASSERT_TRUE(writeSnapshotFile(path, snap));
    EXPECT_EQ(readSnapshotFile(path), snap);
    std::remove(path.c_str());
}

TEST(Snapshot, JsonSnapshotFileIsRejected)
{
    const JsonValue snap = makeSnapshot("sample", 1, samplePayload());
    const std::string path = tempPath("snapshot_test.json");
    {
        std::ofstream out(path);
        out << snap.dump(2);
    }
    EXPECT_THROW(readSnapshotFile(path), SnapshotError);
    std::remove(path.c_str());
}

TEST(Snapshot, ReadMissingFileThrows)
{
    EXPECT_THROW(readSnapshotFile(tempPath("no_such_snapshot")),
                 SnapshotError);
}

TEST(Snapshot, DigestProperties)
{
    EXPECT_EQ(fnv1a(""), 0xcbf29ce484222325ULL);
    EXPECT_NE(fnv1a("a"), fnv1a("b"));
    const double d = digest53("some payload");
    EXPECT_EQ(d, static_cast<double>(static_cast<std::uint64_t>(d)));
    EXPECT_LT(d, 9007199254740992.0); // < 2^53: exactly representable
}
