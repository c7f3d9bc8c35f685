// Minimal INI-style configuration parser.
//
// Powers the CLI front-end (examples/foscil_cli.cpp): platforms, level sets
// and scheduler options can be described in a text file instead of C++.
// Format:
//
//   # comment
//   [section]
//   key = value          ; values are scalars or comma-separated lists
//
// Keys are looked up as "section.key".  Parsing is strict: malformed lines,
// duplicate keys, and type mismatches raise ConfigError with a line number.
//
// Loaders describe the keys they read as a table of ConfigKey rows and hand
// it to apply_config(); the same rows name the keys for unknown-key
// detection.
#pragma once

#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace foscil {

/// Raised on malformed input or failed typed lookups.
class ConfigError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

class Config {
 public:
  Config() = default;

  /// Parse from text (e.g. file contents).  Throws ConfigError.
  [[nodiscard]] static Config parse(const std::string& text);

  /// Load from a file path.  Throws ConfigError (also on I/O failure).
  [[nodiscard]] static Config load(const std::string& path);

  [[nodiscard]] bool has(const std::string& key) const;

  /// Raw string value; throws when missing.
  [[nodiscard]] const std::string& raw(const std::string& key) const;

  [[nodiscard]] std::string get_string(const std::string& key) const;
  [[nodiscard]] double get_double(const std::string& key) const;
  [[nodiscard]] long get_int(const std::string& key) const;
  [[nodiscard]] bool get_bool(const std::string& key) const;
  /// Comma-separated list of doubles.
  [[nodiscard]] std::vector<double> get_doubles(const std::string& key) const;

  /// Typed lookups with defaults for optional keys.
  [[nodiscard]] std::string get_string_or(const std::string& key,
                                          std::string fallback) const;
  [[nodiscard]] double get_double_or(const std::string& key,
                                     double fallback) const;
  [[nodiscard]] long get_int_or(const std::string& key, long fallback) const;

  /// All keys, sorted (for diagnostics / strict-mode validation).
  [[nodiscard]] std::vector<std::string> keys() const;

 private:
  std::map<std::string, std::string> values_;
};

/// Interval a numeric value must lie in, in the file's units (before any
/// unit scale).  A list key applies it to every element.
struct ConfigRange {
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
  bool lo_open = false;
  bool hi_open = false;
};
inline constexpr ConfigRange kAnyValue{};
inline constexpr ConfigRange kPositive{0.0, kAnyValue.hi, true};
inline constexpr ConfigRange kNonNegative{0.0};
inline constexpr ConfigRange kAtLeastOne{1.0};
inline constexpr ConfigRange kUnitInterval{0.0, 1.0};

/// Unit conversion from the file to the field: field = value * mul / div.
struct ConfigScale {
  double mul = 1.0;
  double div = 1.0;
};
inline constexpr ConfigScale kMilli{1e-3};          ///< ms -> s, mm -> m
inline constexpr ConfigScale kMicro{1e-6};          ///< us -> s, um -> m
inline constexpr ConfigScale kKibi{1024.0};         ///< KiB -> bytes
/// ms -> s as value / 1e3, which rounds differently from value * 1e-3.
inline constexpr ConfigScale kPerThousand{1.0, 1e3};

/// One row of a declarative key table.  The field's type picks the parse:
/// bool, integer, real, string, or a comma-separated list of reals or of
/// integers.
struct ConfigKey {
  using Field = std::variant<bool*, int*, unsigned*, std::size_t*,
                             std::uint16_t*, double*, std::string*,
                             std::vector<double>*, std::vector<std::size_t>*>;
  const char* name;  ///< "section.key"
  Field field;
  ConfigRange range = {};
  ConfigScale scale = {};
  bool required = false;  ///< absent -> ConfigError
};

/// Store every row of `sections` (all rows when empty) whose key the
/// config sets.  Each value is parsed, checked to be finite, to fit the
/// field's type and to lie in range -- all before any narrowing or
/// scaling -- and then stored as value * scale.  Throws ConfigError naming
/// the key on failure, and for an absent required key.
void apply_config(const Config& config, std::span<const ConfigKey> rows,
                  std::initializer_list<std::string_view> sections = {});

}  // namespace foscil
