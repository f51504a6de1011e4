#include "stream/checkpoint.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <utility>

#include "stream/snapshot.hpp"
#include "stream/source.hpp"
#include "util/error.hpp"
#include "util/failpoint.hpp"
#include "util/logging.hpp"

namespace lumos::stream {

namespace {

using obs::Json;

constexpr const char* kCheckpointKind = "lumos_checkpoint";
constexpr std::uint64_t kFingerprintWindow = 64ull * 1024;

Json cursor_to_json(const SourceCursor& cursor) {
  Json json = Json::object();
  json["input"] = Json(cursor.input);
  json["byte_offset"] = Json(cursor.byte_offset);
  json["line"] = Json(cursor.line);
  json["events"] = Json(cursor.events);
  json["bad_rows"] = Json(cursor.bad_rows);
  json["unknown_runtime"] = Json(cursor.unknown_runtime);
  json["fingerprint"] = Json(cursor.fingerprint);
  return json;
}

const Json& require(const Json& obj, const char* key, const char* what) {
  const Json* value = obj.find(key);
  if (value == nullptr) {
    throw InvalidArgument(std::string("checkpoint: missing ") + what);
  }
  return *value;
}

std::uint64_t require_u64(const Json& obj, const char* key,
                          const char* what) {
  const Json& v = require(obj, key, what);
  if (v.kind() != Json::Kind::Int) {
    throw InvalidArgument(std::string("checkpoint: ") + what +
                          " must be an integer");
  }
  return static_cast<std::uint64_t>(v.as_int());
}

/// A byte offset or a count. These ride the int64 JSON integer too, but
/// no input reaches 2^63, so a negative value is corruption, not a
/// two's-complement uint64.
std::uint64_t require_count(const Json& obj, const char* key,
                            const char* what) {
  const std::uint64_t v = require_u64(obj, key, what);
  if (static_cast<std::int64_t>(v) < 0) {
    throw InvalidArgument(std::string("checkpoint: ") + what +
                          " must not be negative");
  }
  return v;
}

SourceCursor cursor_from_json(const Json& json) {
  SourceCursor cursor;
  const Json& input = require(json, "input", "cursor.input");
  if (input.kind() != Json::Kind::String) {
    throw InvalidArgument("checkpoint: cursor.input must be a string");
  }
  cursor.input = input.as_string();
  cursor.byte_offset =
      require_count(json, "byte_offset", "cursor.byte_offset");
  cursor.line = require_count(json, "line", "cursor.line");
  cursor.events = require_count(json, "events", "cursor.events");
  cursor.bad_rows = require_count(json, "bad_rows", "cursor.bad_rows");
  cursor.unknown_runtime =
      require_count(json, "unknown_runtime", "cursor.unknown_runtime");
  cursor.fingerprint = require_u64(json, "fingerprint", "cursor.fingerprint");
  return cursor;
}

/// Whole-file slurp for checkpoint documents (small by construction:
/// bounded characterizer state). Returns nullopt when the file does not
/// exist; throws nothing else — read failures surface as nullopt with
/// `error` set, so the loader's fallback chain stays exception-free.
std::optional<std::string> slurp(const std::string& path,
                                 std::string& error) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  if (in.bad()) {
    error = "read failed for '" + path + "'";
    return std::nullopt;
  }
  return std::move(buffer).str();
}

}  // namespace

Json to_json(const Checkpoint& checkpoint) {
  Json meta = Json::object();
  meta["schema_version"] = Json(kSnapshotSchemaVersion);
  meta["kind"] = Json(kCheckpointKind);
  Json json = Json::object();
  json["_meta"] = std::move(meta);
  json["cursor"] = cursor_to_json(checkpoint.cursor);
  json["characterizer"] = to_json(checkpoint.characterizer);
  return json;
}

Checkpoint checkpoint_from_json(const Json& json) {
  const Json& meta = require(json, "_meta", "_meta");
  const Json& version = require(meta, "schema_version", "_meta.schema_version");
  if (version.kind() != Json::Kind::Int ||
      version.as_int() != kSnapshotSchemaVersion) {
    throw InvalidArgument(
        "checkpoint: unsupported schema_version (expected " +
        std::to_string(kSnapshotSchemaVersion) + ")");
  }
  const Json& kind = require(meta, "kind", "_meta.kind");
  if (kind.kind() != Json::Kind::String ||
      kind.as_string() != kCheckpointKind) {
    throw InvalidArgument("checkpoint: _meta.kind is not '" +
                          std::string(kCheckpointKind) + "'");
  }
  Checkpoint checkpoint;
  checkpoint.cursor = cursor_from_json(require(json, "cursor", "cursor"));
  checkpoint.characterizer =
      characterizer_from_json(require(json, "characterizer", "characterizer"));
  return checkpoint;
}

std::uint64_t input_fingerprint(const std::string& path,
                                std::uint64_t byte_offset) {
  if (byte_offset == 0) return 0;
  const std::uint64_t window = std::min(byte_offset, kFingerprintWindow);
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw SourceError("fingerprint: cannot open '" + path + "'", errno);
  }
  // FNV-1a 64-bit over the prefix: cheap, deterministic, and order-
  // sensitive — exactly enough to notice "this is a different file".
  std::uint64_t hash = 0xcbf29ce484222325ull;
  char chunk[4096];
  std::uint64_t remaining = window;
  while (remaining > 0) {
    const auto want = static_cast<std::streamsize>(
        std::min<std::uint64_t>(remaining, sizeof(chunk)));
    in.read(chunk, want);
    const std::streamsize got = in.gcount();
    if (got <= 0) {
      throw SourceError("fingerprint: '" + path + "' shorter than cursor",
                        0);
    }
    for (std::streamsize i = 0; i < got; ++i) {
      hash ^= static_cast<unsigned char>(chunk[i]);
      hash *= 0x100000001b3ull;
    }
    remaining -= static_cast<std::uint64_t>(got);
  }
  return hash;
}

void save_checkpoint(const Checkpoint& checkpoint, const std::string& path) {
  LUMOS_FAILPOINT("stream.checkpoint.write");
  // Rotate the current good document out of the way first; rename is
  // atomic, so at every instant either `path` or `path.prev` holds a
  // complete checkpoint. ENOENT (first checkpoint) is fine.
  const std::string prev = path + ".prev";
  if (std::rename(path.c_str(), prev.c_str()) != 0 && errno != ENOENT) {
    throw InvalidArgument("checkpoint: cannot rotate '" + path + "' to '" +
                          prev + "': " + std::strerror(errno));
  }
  obs::write_json_atomic(to_json(checkpoint), path);
}

CheckpointLoad load_checkpoint(const std::string& path) {
  LUMOS_FAILPOINT("stream.checkpoint.load");
  CheckpointLoad load;
  bool primary_existed = false;
  for (const std::string& candidate : {path, path + ".prev"}) {
    std::string read_error;
    const auto text = slurp(candidate, read_error);
    if (!text) {
      if (!read_error.empty() && !load.detail.empty()) load.detail += "; ";
      load.detail += read_error;
      continue;
    }
    if (candidate == path) primary_existed = true;
    try {
      load.checkpoint = checkpoint_from_json(obs::Json::parse(*text));
      load.outcome = candidate == path ? CheckpointLoad::Outcome::Primary
                                       : CheckpointLoad::Outcome::Fallback;
      if (load.outcome == CheckpointLoad::Outcome::Fallback) {
        LUMOS_WARN << "checkpoint: primary '" << path
                   << "' unusable; restored fallback '" << candidate
                   << "' (" << load.detail << ")";
      }
      return load;
    } catch (const Error& e) {
      if (!load.detail.empty()) load.detail += "; ";
      load.detail += "'" + candidate + "': " + e.what();
    }
  }
  if (primary_existed || !load.detail.empty()) {
    load.outcome = CheckpointLoad::Outcome::CorruptIgnored;
    LUMOS_ERROR << "checkpoint: no usable checkpoint at '" << path
                << "' (" << load.detail << "); starting from zero state";
  }
  return load;
}

}  // namespace lumos::stream
