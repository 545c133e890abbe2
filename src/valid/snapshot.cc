#include "valid/snapshot.hh"

#include <cstring>
#include <fstream>
#include <sstream>

#include "util/logging.hh"

namespace eval {

namespace {

constexpr char kMagic[] = "EVALSNAP";
/** Binary container: "EVSB" + one version byte, then the value. */
constexpr char kBinaryMagic[4] = {'E', 'V', 'S', 'B'};
constexpr std::uint8_t kBinaryVersion = 1;

enum BinTag : std::uint8_t {
    TagNull = 0,
    TagFalse = 1,
    TagTrue = 2,
    TagInt = 3,
    TagDouble = 4,
    TagString = 5,
    TagArray = 6,
    TagObject = 7,
};

void
putVarint(std::string &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<char>((v & 0x7F) | 0x80));
        v >>= 7;
    }
    out.push_back(static_cast<char>(v));
}

std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>((v >> 1) ^ (~(v & 1) + 1));
}

void
encodeValue(std::string &out, const JsonValue &v)
{
    switch (v.type()) {
      case JsonValue::Type::Null:
        out.push_back(static_cast<char>(TagNull));
        break;
      case JsonValue::Type::Bool:
        out.push_back(
            static_cast<char>(v.asBool() ? TagTrue : TagFalse));
        break;
      case JsonValue::Type::Int:
        out.push_back(static_cast<char>(TagInt));
        putVarint(out, zigzag(v.asInt()));
        break;
      case JsonValue::Type::Double: {
        out.push_back(static_cast<char>(TagDouble));
        const double d = v.asDouble();
        std::uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        for (int i = 0; i < 8; ++i)
            out.push_back(static_cast<char>((bits >> (8 * i)) & 0xFF));
        break;
      }
      case JsonValue::Type::String:
        out.push_back(static_cast<char>(TagString));
        putVarint(out, v.asString().size());
        out += v.asString();
        break;
      case JsonValue::Type::Array:
        out.push_back(static_cast<char>(TagArray));
        putVarint(out, v.asArray().size());
        for (const JsonValue &e : v.asArray())
            encodeValue(out, e);
        break;
      case JsonValue::Type::Object:
        out.push_back(static_cast<char>(TagObject));
        putVarint(out, v.asObject().size());
        for (const auto &[key, val] : v.asObject()) {
            putVarint(out, key.size());
            out += key;
            encodeValue(out, val);
        }
        break;
    }
}

class BinReader
{
  public:
    explicit BinReader(std::string_view bytes) : bytes_(bytes) {}

    std::uint8_t
    byte()
    {
        if (pos_ >= bytes_.size())
            throw SnapshotError("binary snapshot truncated");
        return static_cast<std::uint8_t>(bytes_[pos_++]);
    }

    std::uint64_t
    varint()
    {
        std::uint64_t v = 0;
        for (int shift = 0; shift < 64; shift += 7) {
            const std::uint8_t b = byte();
            v |= static_cast<std::uint64_t>(b & 0x7F) << shift;
            if (!(b & 0x80))
                return v;
        }
        throw SnapshotError("binary snapshot varint overflow");
    }

    std::string
    stringBytes(std::uint64_t n)
    {
        if (n > bytes_.size() - pos_)
            throw SnapshotError("binary snapshot truncated string");
        std::string s(bytes_.substr(pos_, n));
        pos_ += n;
        return s;
    }

    JsonValue
    value(int depth = 0)
    {
        if (depth > 256)
            throw SnapshotError("binary snapshot nesting too deep");
        switch (byte()) {
          case TagNull:
            return JsonValue();
          case TagFalse:
            return JsonValue(false);
          case TagTrue:
            return JsonValue(true);
          case TagInt:
            return JsonValue(unzigzag(varint()));
          case TagDouble: {
            std::uint64_t bits = 0;
            for (int i = 0; i < 8; ++i)
                bits |= static_cast<std::uint64_t>(byte()) << (8 * i);
            double d;
            std::memcpy(&d, &bits, sizeof(d));
            return JsonValue(d);
          }
          case TagString:
            return JsonValue(stringBytes(varint()));
          case TagArray: {
            const std::uint64_t n = varint();
            JsonValue arr = JsonValue::array();
            for (std::uint64_t i = 0; i < n; ++i)
                arr.push(value(depth + 1));
            return arr;
          }
          case TagObject: {
            const std::uint64_t n = varint();
            JsonValue obj = JsonValue::object();
            for (std::uint64_t i = 0; i < n; ++i) {
                std::string key = stringBytes(varint());
                obj.set(key, value(depth + 1));
            }
            return obj;
          }
          default:
            throw SnapshotError("binary snapshot unknown tag");
        }
    }

    bool done() const { return pos_ == bytes_.size(); }

  private:
    std::string_view bytes_;
    std::size_t pos_ = 0;
};

} // namespace

JsonValue
makeSnapshot(const std::string &kind, std::uint32_t kindVersion,
             JsonValue payload)
{
    JsonValue snap = JsonValue::object();
    snap.set("magic", kMagic);
    snap.set("format_version",
             static_cast<std::int64_t>(kSnapshotFormatVersion));
    snap.set("kind", kind);
    snap.set("kind_version", static_cast<std::int64_t>(kindVersion));
    snap.set("payload", std::move(payload));
    return snap;
}

const JsonValue &
snapshotPayload(const JsonValue &snapshot, const std::string &expectKind,
                std::uint32_t expectKindVersion)
{
    // JsonValue's accessors throw plain runtime_errors on a missing
    // member or a type mismatch; a corrupted envelope (the checkpoint
    // fuzzer flips single bytes into exactly these shapes) must still
    // surface as SnapshotError per this module's contract.
    try {
        if (snapshot.type() != JsonValue::Type::Object)
            throw SnapshotError("snapshot is not an object");
        if (!snapshot.has("magic") ||
            snapshot.at("magic").asString() != kMagic)
            throw SnapshotError("snapshot magic mismatch");
        const auto fmt = static_cast<std::uint32_t>(
            snapshot.at("format_version").asInt());
        if (fmt != kSnapshotFormatVersion) {
            throw SnapshotError(
                "snapshot format version " + std::to_string(fmt) +
                " != supported " +
                std::to_string(kSnapshotFormatVersion));
        }
        const std::string &kind = snapshot.at("kind").asString();
        if (kind != expectKind) {
            throw SnapshotError("snapshot kind '" + kind +
                                "' != expected '" + expectKind + "'");
        }
        const auto kv = static_cast<std::uint32_t>(
            snapshot.at("kind_version").asInt());
        if (kv != expectKindVersion) {
            throw SnapshotError(
                "snapshot kind version " + std::to_string(kv) +
                " != expected " + std::to_string(expectKindVersion) +
                " for '" + kind + "'");
        }
        return snapshot.at("payload");
    } catch (const SnapshotError &) {
        throw;
    } catch (const std::exception &e) {
        throw SnapshotError(std::string("snapshot envelope malformed: ") +
                            e.what());
    }
}

std::string
encodeBinary(const JsonValue &value)
{
    std::string out(kBinaryMagic, sizeof(kBinaryMagic));
    out.push_back(static_cast<char>(kBinaryVersion));
    encodeValue(out, value);
    return out;
}

JsonValue
decodeBinary(std::string_view bytes)
{
    if (bytes.size() < sizeof(kBinaryMagic) + 1 ||
        std::memcmp(bytes.data(), kBinaryMagic, sizeof(kBinaryMagic)) !=
            0)
        throw SnapshotError("not a binary snapshot (magic mismatch)");
    const auto version =
        static_cast<std::uint8_t>(bytes[sizeof(kBinaryMagic)]);
    if (version != kBinaryVersion) {
        throw SnapshotError("binary snapshot version " +
                            std::to_string(version) + " != supported " +
                            std::to_string(kBinaryVersion));
    }
    BinReader reader(bytes.substr(sizeof(kBinaryMagic) + 1));
    JsonValue v = reader.value();
    if (!reader.done())
        throw SnapshotError("trailing bytes after binary snapshot");
    return v;
}

bool
writeSnapshotFile(const std::string &path, const JsonValue &snapshot)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out) {
        warn("cannot open snapshot file for writing: ", path);
        return false;
    }
    const std::string bytes = encodeBinary(snapshot);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
    if (!out.good()) {
        warn("snapshot write failed: ", path);
        return false;
    }
    return true;
}

JsonValue
readSnapshotFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw SnapshotError("cannot open snapshot file: " + path);
    std::ostringstream buf;
    buf << in.rdbuf();
    return decodeBinary(buf.str());
}

std::uint64_t
fnv1a(std::string_view bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (char c : bytes) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ULL;
    }
    return h;
}

double
digest53(std::string_view bytes)
{
    return static_cast<double>(fnv1a(bytes) & ((1ULL << 53) - 1));
}

} // namespace eval
