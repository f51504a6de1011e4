// Small string helpers used by the trace parsers and report renderers.
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace lumos::util {

/// Splits `s` on `delim`, keeping empty fields (CSV semantics).
[[nodiscard]] std::vector<std::string_view> split(std::string_view s,
                                                  char delim);

/// Strips leading and trailing ASCII whitespace.
[[nodiscard]] std::string_view trim(std::string_view s) noexcept;

/// Parses a double; returns nullopt on any trailing garbage or empty input.
[[nodiscard]] std::optional<double> parse_double(std::string_view s) noexcept;

/// Parses a signed 64-bit integer; returns nullopt on failure.
[[nodiscard]] std::optional<long long> parse_int(std::string_view s) noexcept;

/// Lower-cases ASCII.
[[nodiscard]] std::string to_lower(std::string_view s);

/// printf-style formatting into a std::string.
[[nodiscard]] std::string format(const char* fmt, ...)
    __attribute__((format(printf, 1, 2)));

}  // namespace lumos::util
