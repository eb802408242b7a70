#include "common/strings.h"

#include <cerrno>
#include <charconv>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace dcm {

std::vector<std::string> split(std::string_view text, char delim) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    const size_t pos = text.find(delim, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::string_view trim(std::string_view text) {
  size_t b = 0;
  size_t e = text.size();
  while (b < e && std::isspace(static_cast<unsigned char>(text[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(text[e - 1]))) --e;
  return text.substr(b, e - b);
}

std::optional<double> parse_double(std::string_view text) {
  const std::string_view t = trim(text);
  if (t.empty()) return std::nullopt;
  std::string buf(t);
  char* end = nullptr;
  const double value = std::strtod(buf.c_str(), &end);
  if (end != buf.c_str() + buf.size()) return std::nullopt;
  return value;
}

std::optional<int64_t> parse_int(std::string_view text) {
  const std::string_view t = trim(text);
  if (t.empty()) return std::nullopt;
  std::string buf(t);
  char* end = nullptr;
  errno = 0;
  const long long value = std::strtoll(buf.c_str(), &end, 10);
  // Out-of-range text would saturate to LLONG_MIN/MAX: reject it instead.
  if (end != buf.c_str() + buf.size() || errno == ERANGE) return std::nullopt;
  return static_cast<int64_t>(value);
}

std::optional<uint64_t> parse_uint(std::string_view text) {
  const std::string_view t = trim(text);
  uint64_t value = 0;
  const auto [end, error] = std::from_chars(t.data(), t.data() + t.size(), value);
  if (t.empty() || error != std::errc() || end != t.data() + t.size()) return std::nullopt;
  return value;
}

std::string format_double(double value) {
  char buf[64];
  const auto result = std::to_chars(buf, buf + sizeof(buf), value);
  return std::string(buf, result.ptr);
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.size() >= prefix.size() && text.substr(0, prefix.size()) == prefix;
}

std::string str_format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int needed = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    std::vsnprintf(out.data(), out.size() + 1, fmt, copy);
  }
  va_end(copy);
  return out;
}

}  // namespace dcm
