// Minimal INI-style configuration files.
//
// Sections in brackets, key = value pairs, '#' or ';' comments. The reader
// and writer behind `scenario::Scenario`'s INI form, so whole experiments
// are runnable without recompiling.
#pragma once

#include <map>
#include <optional>
#include <string>

namespace dcm {

class Config {
 public:
  Config() = default;

  /// Parses from text; throws std::runtime_error with a line number on
  /// malformed input.
  static Config parse(const std::string& content);
  /// Loads and parses a file; throws std::runtime_error on I/O failure.
  static Config load(const std::string& path);

  bool has(const std::string& section, const std::string& key) const;

  /// Typed getters; return the default when the key is absent, and throw
  /// std::runtime_error when present but malformed.
  std::string get_string(const std::string& section, const std::string& key,
                         const std::string& fallback = "") const;
  int64_t get_int(const std::string& section, const std::string& key, int64_t fallback) const;
  double get_double(const std::string& section, const std::string& key, double fallback) const;
  /// Accepts true/false/yes/no/on/off/1/0 (case-insensitive).
  bool get_bool(const std::string& section, const std::string& key, bool fallback) const;

  void set(const std::string& section, const std::string& key, const std::string& value);

  /// Emits the canonical text form: sections and keys in sorted order, one
  /// `key = value` per line, a blank line between sections. The output
  /// round-trips: `parse(to_text())` reproduces this Config exactly, and
  /// `parse(x).to_text()` is a fixed point (parse → emit → parse is
  /// identity). Scenario serialization builds on this.
  std::string to_text() const;

  bool operator==(const Config& other) const { return sections_ == other.sections_; }

  const std::map<std::string, std::map<std::string, std::string>>& sections() const {
    return sections_;
  }

 private:
  std::optional<std::string> raw(const std::string& section, const std::string& key) const;

  std::map<std::string, std::map<std::string, std::string>> sections_;
};

}  // namespace dcm
