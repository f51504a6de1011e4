// Minimal JSON document model for the observability exporter — no
// external dependencies, by design.
//
// `Json` is a tagged value (null / bool / int / double / string / array /
// object) with a writer and a recursive-descent parser. The writer is
// *stable*: object keys serialise in sorted order and doubles use
// shortest-round-trip formatting (std::to_chars), so two runs producing
// the same values produce byte-identical documents — the property the
// bench trajectory and its golden tests rely on. The parser accepts
// strict JSON (RFC 8259) and throws lumos::InvalidArgument with a byte
// offset on malformed input; parse(dump(x)) == x for every value this
// module can produce.
//
// `to_json(Snapshot)` maps a registry snapshot onto the documented schema
// (DESIGN.md "Observability"): counters and gauges as flat objects.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "obs/registry.hpp"

namespace lumos::obs {

class Json {
 public:
  enum class Kind { Null, Bool, Int, Double, String, Array, Object };

  Json() = default;  // null
  Json(bool b) : kind_(Kind::Bool), bool_(b) {}
  Json(int v) : kind_(Kind::Int), int_(v) {}
  Json(std::int64_t v) : kind_(Kind::Int), int_(v) {}
  Json(std::uint64_t v) : kind_(Kind::Int), int_(static_cast<std::int64_t>(v)) {}
  Json(double v) : kind_(Kind::Double), double_(v) {}
  Json(std::string s) : kind_(Kind::String), string_(std::move(s)) {}
  Json(std::string_view s) : kind_(Kind::String), string_(s) {}
  Json(const char* s) : kind_(Kind::String), string_(s) {}

  [[nodiscard]] static Json array();
  [[nodiscard]] static Json object();

  [[nodiscard]] Kind kind() const noexcept { return kind_; }
  [[nodiscard]] bool is_null() const noexcept { return kind_ == Kind::Null; }
  [[nodiscard]] bool is_number() const noexcept {
    return kind_ == Kind::Int || kind_ == Kind::Double;
  }

  /// Object element access; inserts null on first touch (object-only).
  Json& operator[](const std::string& key);
  /// Lookup without insertion; nullptr when absent or not an object.
  [[nodiscard]] const Json* find(std::string_view key) const noexcept;
  /// Appends to an array (array-only).
  void push_back(Json value);

  // Checked accessors — throw lumos::InvalidArgument on kind mismatch.
  [[nodiscard]] bool as_bool() const;
  [[nodiscard]] std::int64_t as_int() const;
  /// Numeric value of Int or Double.
  [[nodiscard]] double as_double() const;
  [[nodiscard]] const std::string& as_string() const;
  [[nodiscard]] const std::vector<Json>& items() const;
  [[nodiscard]] const std::map<std::string, Json>& entries() const;

  [[nodiscard]] bool operator==(const Json& other) const;

  /// Serialises. indent < 0 → compact one-line form; indent >= 0 →
  /// pretty-printed with that many spaces per level.
  [[nodiscard]] std::string dump(int indent = 2) const;

  /// Parses a complete JSON document (rejects trailing garbage).
  [[nodiscard]] static Json parse(std::string_view text);

 private:
  void write(std::string& out, int indent, int depth) const;

  Kind kind_ = Kind::Null;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Json> array_;
  std::map<std::string, Json> object_;
};

/// Registry snapshot → schema'd JSON (see the header comment).
[[nodiscard]] Json to_json(const Snapshot& snapshot);

/// Writes `dump(json, indent=2)` plus a trailing newline to `path`;
/// "-" selects stdout. Throws lumos::InvalidArgument on I/O failure.
void write_json(const Json& json, const std::string& path);

/// Crash-safe variant of write_json: writes to a same-directory temp file,
/// fsyncs it, renames it over `path`, and fsyncs the directory, so a kill
/// at any instant leaves either the old document or the new one — never a
/// truncated file. "-" falls back to plain stdout output. Shares the
/// `obs.write_json` failpoint with write_json. Throws
/// lumos::InvalidArgument on I/O failure (the temp file is removed).
void write_json_atomic(const Json& json, const std::string& path);

}  // namespace lumos::obs
