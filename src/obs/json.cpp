#include "obs/json.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "util/failpoint.hpp"
#include "util/error.hpp"

namespace lumos::obs {

namespace {

[[noreturn]] void fail(std::string_view what, std::size_t offset) {
  throw InvalidArgument("json: " + std::string(what) + " at offset " +
                              std::to_string(offset));
}

void write_escaped(std::string& out, std::string_view s) {
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
}

void write_double(std::string& out, double v) {
  if (!std::isfinite(v)) {
    // JSON has no Inf/NaN; emit null so documents always re-parse.
    out += "null";
    return;
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
  // Keep doubles recognisable as doubles on re-parse.
  if (out.find_first_of(".eE", out.size() - (res.ptr - buf)) ==
      std::string::npos) {
    out += ".0";
  }
}

}  // namespace

Json Json::array() {
  Json j;
  j.kind_ = Kind::Array;
  return j;
}

Json Json::object() {
  Json j;
  j.kind_ = Kind::Object;
  return j;
}

Json& Json::operator[](const std::string& key) {
  if (kind_ == Kind::Null) kind_ = Kind::Object;
  if (kind_ != Kind::Object) {
    throw InvalidArgument("json: operator[] on a non-object");
  }
  return object_[key];
}

const Json* Json::find(std::string_view key) const noexcept {
  if (kind_ != Kind::Object) return nullptr;
  const auto it = object_.find(std::string(key));
  return it == object_.end() ? nullptr : &it->second;
}

void Json::push_back(Json value) {
  if (kind_ == Kind::Null) kind_ = Kind::Array;
  if (kind_ != Kind::Array) {
    throw InvalidArgument("json: push_back on a non-array");
  }
  array_.push_back(std::move(value));
}

bool Json::as_bool() const {
  if (kind_ != Kind::Bool) throw InvalidArgument("json: not a bool");
  return bool_;
}

std::int64_t Json::as_int() const {
  if (kind_ != Kind::Int) throw InvalidArgument("json: not an int");
  return int_;
}

double Json::as_double() const {
  if (kind_ == Kind::Int) return static_cast<double>(int_);
  if (kind_ == Kind::Double) return double_;
  throw InvalidArgument("json: not a number");
}

const std::string& Json::as_string() const {
  if (kind_ != Kind::String) throw InvalidArgument("json: not a string");
  return string_;
}

const std::vector<Json>& Json::items() const {
  if (kind_ != Kind::Array) throw InvalidArgument("json: not an array");
  return array_;
}

const std::map<std::string, Json>& Json::entries() const {
  if (kind_ != Kind::Object) {
    throw InvalidArgument("json: not an object");
  }
  return object_;
}

bool Json::operator==(const Json& other) const {
  if (kind_ != other.kind_) return false;
  switch (kind_) {
    case Kind::Null: return true;
    case Kind::Bool: return bool_ == other.bool_;
    case Kind::Int: return int_ == other.int_;
    case Kind::Double: return double_ == other.double_;
    case Kind::String: return string_ == other.string_;
    case Kind::Array: return array_ == other.array_;
    case Kind::Object: return object_ == other.object_;
  }
  return false;
}

void Json::write(std::string& out, int indent, int depth) const {
  const auto newline = [&](int d) {
    if (indent < 0) return;
    out.push_back('\n');
    out.append(static_cast<std::size_t>(indent) * static_cast<std::size_t>(d),
               ' ');
  };
  switch (kind_) {
    case Kind::Null: out += "null"; break;
    case Kind::Bool: out += bool_ ? "true" : "false"; break;
    case Kind::Int: out += std::to_string(int_); break;
    case Kind::Double: write_double(out, double_); break;
    case Kind::String: write_escaped(out, string_); break;
    case Kind::Array: {
      if (array_.empty()) {
        out += "[]";
        break;
      }
      out.push_back('[');
      bool first = true;
      for (const auto& v : array_) {
        if (!first) out.push_back(',');
        first = false;
        newline(depth + 1);
        v.write(out, indent, depth + 1);
      }
      newline(depth);
      out.push_back(']');
      break;
    }
    case Kind::Object: {
      if (object_.empty()) {
        out += "{}";
        break;
      }
      out.push_back('{');
      bool first = true;
      for (const auto& [key, value] : object_) {
        if (!first) out.push_back(',');
        first = false;
        newline(depth + 1);
        write_escaped(out, key);
        out.push_back(':');
        if (indent >= 0) out.push_back(' ');
        value.write(out, indent, depth + 1);
      }
      newline(depth);
      out.push_back('}');
      break;
    }
  }
}

std::string Json::dump(int indent) const {
  std::string out;
  write(out, indent, 0);
  return out;
}

// ----------------------------------------------------------------- parse --

namespace {

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Json parse_document() {
    Json value = parse_value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing characters", pos_);
    return value;
  }

 private:
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end of input", pos_);
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'", pos_);
    ++pos_;
  }

  bool consume_literal(std::string_view lit) {
    if (text_.compare(pos_, lit.size(), lit) != 0) return false;
    pos_ += lit.size();
    return true;
  }

  Json parse_value() {
    skip_ws();
    const char c = peek();
    switch (c) {
      case '{': return parse_object();
      case '[': return parse_array();
      case '"': return Json(parse_string());
      case 't':
        if (consume_literal("true")) return Json(true);
        fail("invalid literal", pos_);
      case 'f':
        if (consume_literal("false")) return Json(false);
        fail("invalid literal", pos_);
      case 'n':
        if (consume_literal("null")) return Json();
        fail("invalid literal", pos_);
      default: return parse_number();
    }
  }

  Json parse_object() {
    expect('{');
    Json obj = Json::object();
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return obj;
    }
    for (;;) {
      skip_ws();
      std::string key = parse_string();
      skip_ws();
      expect(':');
      obj[key] = parse_value();
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == '}') return obj;
      if (c != ',') fail("expected ',' or '}'", pos_ - 1);
    }
  }

  Json parse_array() {
    expect('[');
    Json arr = Json::array();
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return arr;
    }
    for (;;) {
      arr.push_back(parse_value());
      skip_ws();
      const char c = peek();
      ++pos_;
      if (c == ']') return arr;
      if (c != ',') fail("expected ',' or ']'", pos_ - 1);
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) fail("unterminated string", pos_);
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        fail("unescaped control character in string", pos_ - 1);
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail("unterminated escape", pos_);
      const char e = text_[pos_++];
      switch (e) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("truncated \\u escape", pos_);
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4U;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              fail("invalid \\u escape", pos_ - 1);
            }
          }
          // Encode the code point as UTF-8 (surrogate pairs unsupported —
          // the exporter never emits them; reject rather than corrupt).
          if (code >= 0xD800 && code <= 0xDFFF) {
            fail("surrogate \\u escapes are not supported", pos_ - 6);
          }
          if (code < 0x80) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out.push_back(static_cast<char>(0xC0U | (code >> 6U)));
            out.push_back(static_cast<char>(0x80U | (code & 0x3FU)));
          } else {
            out.push_back(static_cast<char>(0xE0U | (code >> 12U)));
            out.push_back(static_cast<char>(0x80U | ((code >> 6U) & 0x3FU)));
            out.push_back(static_cast<char>(0x80U | (code & 0x3FU)));
          }
          break;
        }
        default: fail("invalid escape", pos_ - 1);
      }
    }
  }

  Json parse_number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0)) {
      ++pos_;
    }
    bool is_double = false;
    if (pos_ < text_.size() && text_[pos_] == '.') {
      is_double = true;
      ++pos_;
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0)) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      is_double = true;
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      while (pos_ < text_.size() &&
             (std::isdigit(static_cast<unsigned char>(text_[pos_])) != 0)) {
        ++pos_;
      }
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    if (is_double) {
      double v = 0.0;
      const auto res = std::from_chars(token.begin(), token.end(), v);
      if (res.ec != std::errc() || res.ptr != token.end()) {
        fail("invalid number", start);
      }
      return Json(v);
    }
    std::int64_t v = 0;
    const auto res = std::from_chars(token.begin(), token.end(), v);
    if (res.ec != std::errc() || res.ptr != token.end()) {
      fail("invalid number", start);
    }
    return Json(v);
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

}  // namespace

Json Json::parse(std::string_view text) { return Parser(text).parse_document(); }

// ------------------------------------------------------- snapshot export --

Json to_json(const Snapshot& snapshot) {
  Json out = Json::object();
  Json counters = Json::object();
  for (const auto& c : snapshot.counters) counters[c.name] = c.value;
  out["counters"] = std::move(counters);
  Json gauges = Json::object();
  for (const auto& g : snapshot.gauges) gauges[g.name] = g.value;
  out["gauges"] = std::move(gauges);
  return out;
}

void write_json(const Json& json, const std::string& path) {
  LUMOS_FAILPOINT("obs.write_json");
  const std::string text = json.dump(2) + "\n";
  if (path == "-") {
    std::cout << text;
    return;
  }
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) {
    throw InvalidArgument("json: cannot open for writing: " + path);
  }
  file << text;
  if (!file.good()) {
    throw InvalidArgument("json: write failed: " + path);
  }
}

void write_json_atomic(const Json& json, const std::string& path) {
  LUMOS_FAILPOINT("obs.write_json");
  const std::string text = json.dump(2) + "\n";
  if (path == "-") {
    std::cout << text;
    return;
  }
  // The temp file lives next to the target so rename(2) never crosses a
  // filesystem boundary (cross-device rename is copy+delete, not atomic).
  const std::string tmp =
      path + ".tmp." + std::to_string(static_cast<long>(::getpid()));
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    throw InvalidArgument("json: cannot open for writing: " + tmp);
  }
  const auto fail_and_cleanup = [&](const std::string& what) {
    ::close(fd);
    ::unlink(tmp.c_str());
    throw InvalidArgument("json: " + what + ": " + tmp);
  };
  std::size_t off = 0;
  while (off < text.size()) {
    const ssize_t n = ::write(fd, text.data() + off, text.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_and_cleanup("write failed");
    }
    off += static_cast<std::size_t>(n);
  }
  if (::fsync(fd) != 0) fail_and_cleanup("fsync failed");
  if (::close(fd) != 0) {
    ::unlink(tmp.c_str());
    throw InvalidArgument("json: close failed: " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    ::unlink(tmp.c_str());
    throw InvalidArgument("json: rename failed: " + tmp + " -> " + path);
  }
  // Make the rename itself durable; best-effort (some filesystems refuse
  // directory fsync, and the data is already safe in the file).
  std::string dir = std::filesystem::path(path).parent_path().string();
  if (dir.empty()) dir = ".";
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    ::fsync(dfd);
    ::close(dfd);
  }
}

}  // namespace lumos::obs
