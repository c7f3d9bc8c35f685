// Build platforms and scheduler options from a text Config (util/config.hpp).
//
// Every key the loaders read -- its section, type, unit, range and
// default -- is a row of the key table in config_loader.cpp
// (config_keys), which also drives unknown-key detection.  Defaults are
// those of the structs the rows fill.
#pragma once

#include <string>
#include <vector>

#include "core/ao.hpp"
#include "core/guard.hpp"
#include "core/platform.hpp"
#include "sim/faults.hpp"
#include "util/config.hpp"

namespace foscil::core {

/// Every value a core key fills, at the loaders' defaults.
struct ConfigTargets {
  std::size_t rows = 0;
  std::size_t cols = 0;
  double core_edge = 4.0 * 1e-3;  ///< m
  double t_ambient_c = 35.0;
  std::vector<double> level_values;  ///< the [levels] keys choose one set
  int table4 = 0;
  bool full_range = false;
  thermal::HotSpotParams package;
  power::PowerCoefficients power;
  std::vector<double> alpha_per_core;  ///< per-core lists, tier-major
  std::vector<double> beta_per_core;
  std::vector<double> gamma_per_core;
  std::string simd;
  double t_max_c = 55.0;
  double fault_intensity = 0.0;  ///< base spec; explicit [faults] keys win
  sim::FaultSpec faults;
  GuardOptions guard;  ///< embeds the [ao] and [identify] options
};

/// The core key table: one row per key, bound to a field of `targets`.
[[nodiscard]] std::vector<ConfigKey> config_keys(ConfigTargets& targets);

/// Assemble a Platform; throws ConfigError / ContractViolation on bad input.
[[nodiscard]] Platform platform_from_config(const Config& config);

/// AO options with [ao] overrides applied.
[[nodiscard]] AoOptions ao_options_from_config(const Config& config);

/// The requested peak-temperature threshold ([run] t_max_c, default 55 C).
[[nodiscard]] double t_max_from_config(const Config& config);

/// True when the config carries any [faults] key.
[[nodiscard]] bool has_faults_config(const Config& config);

/// Fault specification from [faults]; the zero (inert) spec when absent.
/// `faults.intensity` seeds the canonical mix (sim::FaultSpec::at_intensity)
/// and explicit keys override individual fields on top of it.
[[nodiscard]] sim::FaultSpec faults_from_config(const Config& config);

/// Identification options from [identify] (disabled when absent).
[[nodiscard]] IdentifyOptions identify_options_from_config(
    const Config& config);

/// Guard options from [guard], with the [ao] and [identify] options
/// embedded.
[[nodiscard]] GuardOptions guard_options_from_config(const Config& config);

/// Keys in no row of the core table, restricted to sections the table
/// knows about (a misspelled `[ao] max_n` is silently ignored by the
/// loaders -- this is how it gets caught).  `extra_known` extends the
/// known set with keys recognized by other layers (e.g. serve_config's
/// [serve] and [net] tables); a key in `extra_known` also marks its section
/// as known.  Keys in entirely unknown sections are NOT reported: unknown
/// sections are the documented extension point for downstream tooling.
/// Sorted.
[[nodiscard]] std::vector<std::string> unknown_config_keys(
    const Config& config, const std::vector<std::string>& extra_known = {});

/// Print one `warning: unknown config key ...` line to stderr per result of
/// unknown_config_keys — at most once per key per process, so re-loading
/// the same config (watchers, retries) cannot spam the log.  Returns the
/// keys warned about on *this* call.
std::vector<std::string> warn_unknown_config_keys(
    const Config& config, const std::vector<std::string>& extra_known = {});

}  // namespace foscil::core
