#include "util/config.hpp"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <fstream>
#include <sstream>
#include <type_traits>

namespace foscil {

namespace {

std::string trim(const std::string& s) {
  std::size_t begin = 0;
  std::size_t end = s.size();
  while (begin < end && std::isspace(static_cast<unsigned char>(s[begin])))
    ++begin;
  while (end > begin && std::isspace(static_cast<unsigned char>(s[end - 1])))
    --end;
  return s.substr(begin, end - begin);
}

[[noreturn]] void fail(int line, const std::string& what) {
  throw ConfigError("config line " + std::to_string(line) + ": " + what);
}

/// `token` as a finite real; throws ConfigError naming `key`.
double finite_real(const std::string& key, const std::string& token) {
  std::size_t used = 0;
  double parsed = 0.0;
  try {
    parsed = std::stod(token, &used);
  } catch (const std::exception&) {
  }
  if (used == 0 || !trim(token.substr(used)).empty())
    throw ConfigError("key '" + key + "' is not a number: '" + token + "'");
  // stod happily parses "nan" and "inf"; no physical quantity in a
  // platform description is allowed to be non-finite.
  if (!std::isfinite(parsed))
    throw ConfigError("key '" + key + "' is not finite: '" + token + "'");
  return parsed;
}

[[noreturn]] void reject(const ConfigKey& row, const std::string& why) {
  throw ConfigError("key '" + std::string(row.name) + "' " + why);
}

template <class V>
void check_range(const ConfigKey& row, V value) {
  const ConfigRange& r = row.range;
  if (value > r.lo && value < r.hi) return;
  if ((value == r.lo && !r.lo_open) || (value == r.hi && !r.hi_open)) return;
  std::ostringstream why;
  if (std::isinf(r.hi))
    why << "must be " << (r.lo_open ? "> " : ">= ") << r.lo;
  else
    why << "must be in " << (r.lo_open ? '(' : '[') << r.lo << ", " << r.hi
        << (r.hi_open ? ')' : ']');
  reject(row, why.str());
}

/// Range, then fit, then scale, all before the value narrows to T.
/// Integers arrive as long double, whose 64-bit mantissa holds every long
/// exactly, so the fit test sees the true scaled value.
template <class T, class V>
T scaled(const ConfigKey& row, V value) {
  check_range(row, value);
  const V result = value * row.scale.mul / row.scale.div;
  if constexpr (std::is_integral_v<T>) {
    if (result != std::floor(result) ||
        result < static_cast<long double>(std::numeric_limits<T>::min()) ||
        result > static_cast<long double>(std::numeric_limits<T>::max()))
      reject(row, "does not fit its integer field");
  }
  return static_cast<T>(result);
}

}  // namespace

Config Config::parse(const std::string& text) {
  Config config;
  std::istringstream in(text);
  std::string line;
  std::string section;
  int line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    // Strip comments (# or ;) outside of values' interior — keep it simple:
    // a comment starts a run of '#' or ';' preceded by start/whitespace.
    std::string stripped = line;
    for (std::size_t i = 0; i < stripped.size(); ++i) {
      if ((stripped[i] == '#' || stripped[i] == ';') &&
          (i == 0 ||
           std::isspace(static_cast<unsigned char>(stripped[i - 1])))) {
        stripped.resize(i);
        break;
      }
    }
    stripped = trim(stripped);
    if (stripped.empty()) continue;

    if (stripped.front() == '[') {
      if (stripped.back() != ']') fail(line_no, "unterminated section");
      section = trim(stripped.substr(1, stripped.size() - 2));
      if (section.empty()) fail(line_no, "empty section name");
      continue;
    }

    const std::size_t eq = stripped.find('=');
    if (eq == std::string::npos) fail(line_no, "expected 'key = value'");
    const std::string key = trim(stripped.substr(0, eq));
    const std::string value = trim(stripped.substr(eq + 1));
    if (key.empty()) fail(line_no, "empty key");
    const std::string full_key =
        section.empty() ? key : section + "." + key;
    if (config.values_.count(full_key) != 0)
      fail(line_no, "duplicate key '" + full_key + "'");
    config.values_[full_key] = value;
  }
  return config;
}

Config Config::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ConfigError("cannot open config file: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return parse(buffer.str());
}

bool Config::has(const std::string& key) const {
  return values_.count(key) != 0;
}

const std::string& Config::raw(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end())
    throw ConfigError("missing config key: " + key);
  return it->second;
}

std::string Config::get_string(const std::string& key) const {
  return raw(key);
}

double Config::get_double(const std::string& key) const {
  return finite_real(key, raw(key));
}

long Config::get_int(const std::string& key) const {
  const std::string& value = raw(key);
  try {
    std::size_t used = 0;
    const long parsed = std::stol(value, &used);
    if (trim(value.substr(used)).empty()) return parsed;
  } catch (const std::exception&) {
  }
  throw ConfigError("key '" + key + "' is not an integer: '" + value + "'");
}

bool Config::get_bool(const std::string& key) const {
  const std::string& value = raw(key);
  if (value == "true" || value == "yes" || value == "1") return true;
  if (value == "false" || value == "no" || value == "0") return false;
  throw ConfigError("key '" + key + "' is not a boolean: '" + value + "'");
}

std::vector<double> Config::get_doubles(const std::string& key) const {
  std::vector<double> out;
  std::istringstream in(raw(key));
  std::string field;
  while (std::getline(in, field, ',')) {
    const std::string token = trim(field);
    if (token.empty())
      throw ConfigError("key '" + key + "' has an empty list element");
    out.push_back(finite_real(key, token));
  }
  if (out.empty())
    throw ConfigError("key '" + key + "' is an empty list");
  return out;
}

std::string Config::get_string_or(const std::string& key,
                                  std::string fallback) const {
  return has(key) ? raw(key) : std::move(fallback);
}

double Config::get_double_or(const std::string& key, double fallback) const {
  return has(key) ? get_double(key) : fallback;
}

long Config::get_int_or(const std::string& key, long fallback) const {
  return has(key) ? get_int(key) : fallback;
}

void apply_config(const Config& config, std::span<const ConfigKey> rows,
                  std::initializer_list<std::string_view> sections) {
  for (const ConfigKey& row : rows) {
    const std::string_view name = row.name;
    const std::string_view section = name.substr(0, name.find('.'));
    if (sections.size() != 0 &&
        std::find(sections.begin(), sections.end(), section) == sections.end())
      continue;
    if (!config.has(row.name)) {
      if (row.required)
        throw ConfigError("missing config key: " + std::string(name));
      continue;
    }
    std::visit(
        [&](auto* field) {
          using T = std::remove_pointer_t<decltype(field)>;
          if constexpr (std::is_same_v<T, bool>) {
            *field = config.get_bool(row.name);
          } else if constexpr (std::is_same_v<T, std::string>) {
            *field = config.get_string(row.name);
          } else if constexpr (std::is_same_v<T, double>) {
            *field = scaled<T>(row, config.get_double(row.name));
          } else if constexpr (std::is_integral_v<T>) {
            *field = scaled<T>(
                row, static_cast<long double>(config.get_int(row.name)));
          } else {
            T list;
            for (const double value : config.get_doubles(row.name))
              list.push_back(scaled<typename T::value_type>(row, value));
            *field = std::move(list);
          }
        },
        row.field);
  }
}

std::vector<std::string> Config::keys() const {
  std::vector<std::string> out;
  out.reserve(values_.size());
  for (const auto& [key, value] : values_) out.push_back(key);
  return out;
}

}  // namespace foscil
