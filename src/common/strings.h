// Small string utilities used by CSV parsing and config handling.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dcm {

/// Split on a single-character delimiter; keeps empty fields.
std::vector<std::string> split(std::string_view text, char delim);

/// Strip ASCII whitespace from both ends.
std::string_view trim(std::string_view text);

/// Parse helpers returning nullopt on any malformed input (including
/// trailing junk) and on integers outside their type's range.
std::optional<double> parse_double(std::string_view text);
std::optional<int64_t> parse_int(std::string_view text);
/// Unsigned decimal; a sign of either kind is malformed.
std::optional<uint64_t> parse_uint(std::string_view text);

/// Shortest text that parses back to the exact same double ("15", "0.8",
/// "2.84e-02").
std::string format_double(double value);

/// True if `text` starts with `prefix`.
bool starts_with(std::string_view text, std::string_view prefix);

/// printf-style std::string formatting.
std::string str_format(const char* fmt, ...)
#if defined(__GNUC__) || defined(__clang__)
    __attribute__((format(printf, 1, 2)))
#endif
    ;

}  // namespace dcm
