#include "core/config_loader.hpp"

#include <iostream>
#include <mutex>
#include <set>

#include "linalg/simd.hpp"

namespace foscil::core {

namespace {

/// ConfigError with the offending section.key in the message.
[[noreturn]] void reject(const std::string& key, const std::string& why) {
  throw ConfigError("key '" + key + "' " + why);
}

[[nodiscard]] std::string section_of(const std::string& key) {
  return key.substr(0, key.find('.'));
}

constexpr ConfigRange kUnitOpenLow{0.0, 1.0, true, false};   // (0, 1]
constexpr ConfigRange kUnitOpenHigh{0.0, 1.0, false, true};  // [0, 1)

power::VoltageLevels levels_from(const Config& config,
                                 const ConfigTargets& t) {
  const int chosen = static_cast<int>(config.has("levels.values")) +
                     static_cast<int>(config.has("levels.table4")) +
                     static_cast<int>(config.has("levels.full_range"));
  if (chosen > 1)
    throw ConfigError(
        "choose exactly one of levels.values / levels.table4 / "
        "levels.full_range");
  if (!t.level_values.empty()) return power::VoltageLevels(t.level_values);
  if (config.has("levels.table4"))
    return power::VoltageLevels::paper_table4(t.table4);
  if (t.full_range) return power::VoltageLevels::paper_full_range();
  // Default: the paper's 2-mode set.
  return power::VoltageLevels({0.6, 1.3});
}

/// Per-core lists override the scalar baseline for their coefficient.
power::PowerModel power_from(const ConfigTargets& t, std::size_t num_cores) {
  if (t.alpha_per_core.empty() && t.beta_per_core.empty() &&
      t.gamma_per_core.empty())
    return power::PowerModel(t.power);
  std::vector<power::PowerCoefficients> per_core(num_cores, t.power);
  const auto spread = [&](const char* key, const std::vector<double>& values,
                          double power::PowerCoefficients::*member) {
    if (values.empty()) return;
    if (values.size() != num_cores)
      reject(key, "must list exactly " + std::to_string(num_cores) +
                      " values");
    for (std::size_t i = 0; i < num_cores; ++i)
      per_core[i].*member = values[i];
  };
  spread("power.alpha_per_core", t.alpha_per_core,
         &power::PowerCoefficients::alpha);
  spread("power.beta_per_core", t.beta_per_core,
         &power::PowerCoefficients::beta);
  spread("power.gamma_per_core", t.gamma_per_core,
         &power::PowerCoefficients::gamma);
  return power::PowerModel(std::move(per_core));
}

}  // namespace

std::vector<ConfigKey> config_keys(ConfigTargets& t) {
  thermal::HotSpotParams& pkg = t.package;
  AoOptions& ao = t.guard.ao;
  sim::FaultSpec& f = t.faults;
  power::TransitionFaults& tf = f.transitions;
  IdentifyOptions& id = t.guard.identify;
  GuardOptions& g = t.guard;
  return {
      {"platform.rows", &t.rows, kAtLeastOne, {}, true},
      {"platform.cols", &t.cols, kAtLeastOne, {}, true},
      {"platform.tiers", &pkg.die_tiers, kAtLeastOne},
      {"platform.core_edge_mm", &t.core_edge, kAnyValue, kMilli},
      {"platform.t_ambient_c", &t.t_ambient_c},
      {"levels.values", &t.level_values},
      {"levels.table4", &t.table4},
      {"levels.full_range", &t.full_range},
      {"package.r_convection_block", &pkg.r_convection_block},
      {"package.rim_width_blocks", &pkg.rim_width_blocks},
      {"package.sink_mass_factor", &pkg.sink_mass_factor},
      {"package.k_tim", &pkg.k_tim},
      {"package.t_tim_um", &pkg.t_tim, kAnyValue, kMicro},
      {"package.t_spreader_mm", &pkg.t_spreader, kAnyValue, kMilli},
      {"package.t_sink_base_mm", &pkg.t_sink_base, kAnyValue, kMilli},
      {"package.k_inter_tier", &pkg.k_inter_tier},
      {"package.t_inter_tier_um", &pkg.t_inter_tier, kAnyValue, kMicro},
      {"power.alpha", &t.power.alpha},
      {"power.beta", &t.power.beta},
      {"power.gamma", &t.power.gamma},
      {"power.alpha_per_core", &t.alpha_per_core},
      {"power.beta_per_core", &t.beta_per_core},
      {"power.gamma_per_core", &t.gamma_per_core},
      {"ao.base_period_ms", &ao.base_period, kAnyValue, kMilli},
      {"ao.tau_us", &ao.transition_overhead, kAnyValue, kMicro},
      {"ao.t_unit_fraction", &ao.t_unit_fraction},
      {"ao.max_m", &ao.max_m},
      {"ao.t_max_margin_k", &ao.t_max_margin, kNonNegative},
      {"sim.simd", &t.simd},
      {"run.t_max_c", &t.t_max_c},
      {"faults.intensity", &t.fault_intensity, kUnitInterval},
      {"faults.seed", &f.seed},
      {"faults.sensor_bias_k", &f.sensors.bias_k},
      {"faults.sensor_noise_k", &f.sensors.noise_sigma_k, kNonNegative},
      {"faults.stuck_sensors", &f.sensors.stuck_cores, kNonNegative},
      {"faults.stuck_at_k", &f.sensors.stuck_at_k},
      {"faults.drop_probability", &tf.drop_probability, kUnitInterval},
      {"faults.delay_probability", &tf.delay_probability, kUnitInterval},
      {"faults.delay_ms", &tf.delay_s, kNonNegative, kMilli},
      {"faults.r_convection_scale", &f.r_convection_scale, kPositive},
      {"faults.k_tim_scale", &f.k_tim_scale, kPositive},
      {"faults.c_scale", &f.c_scale, kPositive},
      {"faults.alpha_scale", &f.alpha_scale, kPositive},
      {"faults.beta_scale", &f.beta_scale, kPositive},
      {"faults.gamma_scale", &f.gamma_scale, kPositive},
      {"faults.power_jitter", &f.power_jitter, kUnitOpenHigh},
      {"faults.ambient_drift_c", &f.ambient_drift_c, kNonNegative},
      {"faults.ambient_drift_period_s", &f.ambient_drift_period_s, kPositive},
      {"guard.horizon_s", &g.horizon, kPositive},
      {"guard.control_period_ms", &g.control_period, kPositive, kMilli},
      {"guard.samples_per_tick", &g.samples_per_tick},
      {"guard.trip_margin_k", &g.trip_margin, kPositive},
      {"guard.reentry_margin_k", &g.reentry_margin, kNonNegative},
      {"guard.backoff_initial_s", &g.backoff_initial, kPositive},
      {"guard.backoff_factor", &g.backoff_factor, kAtLeastOne},
      {"guard.backoff_max_s", &g.backoff_max},
      {"guard.escalate_after", &g.escalate_after, kAtLeastOne},
      {"guard.derate_step_k", &g.derate_step, kPositive},
      {"guard.max_derate_k", &g.max_derate, kNonNegative},
      {"identify.enabled", &id.enabled},
      {"identify.forgetting", &id.forgetting, kUnitOpenLow},
      {"identify.prior_sigma", &id.prior_sigma, kPositive},
      {"identify.beta_prior_sigma", &id.beta_prior_sigma, kPositive},
      {"identify.gate_sigma", &id.gate_sigma, kPositive},
      {"identify.confidence", &id.confidence, kNonNegative},
      {"identify.trust_radius", &id.trust_radius, kNonNegative},
      {"identify.min_polls", &id.min_polls, kAtLeastOne},
      {"identify.min_seconds", &id.min_seconds, kNonNegative},
      {"identify.significance", &id.significance, kNonNegative},
      {"identify.min_theta", &id.min_theta, kNonNegative},
      {"identify.band_floor_k", &id.band_floor_k, kNonNegative},
      {"identify.max_replans", &id.max_replans, kNonNegative},
      {"identify.replan_delta", &id.replan_delta, kNonNegative},
      {"identify.alpha_scale_w", &id.alpha_scale_w, kPositive},
      {"identify.rel_scale", &id.rel_scale, kPositive},
      {"identify.bias_scale_k", &id.bias_scale_k, kPositive},
      {"identify.drift_scale_k", &id.drift_scale_k, kPositive},
      {"identify.drift_period_s", &id.drift_period_s, kNonNegative},
      {"identify.innovation_clip_k", &id.innovation_clip_k, kNonNegative},
      {"identify.conservative", &id.conservative},
  };
}

Platform platform_from_config(const Config& config) {
  ConfigTargets t;
  apply_config(config, config_keys(t),
               {"platform", "levels", "package", "power"});
  const thermal::Floorplan floorplan(t.rows, t.cols, t.core_edge);
  thermal::RcNetwork network(floorplan, t.package);
  const std::size_t num_cores = network.num_cores();
  Platform platform;
  platform.model = std::make_shared<const thermal::ThermalModel>(
      std::move(network), power_from(t, num_cores));
  platform.levels = levels_from(config, t);
  platform.t_ambient_c = t.t_ambient_c;
  platform.name = floorplan.label();
  if (t.package.die_tiers > 1)
    platform.name += 'x' + std::to_string(t.package.die_tiers) + "tiers";
  return platform;
}

AoOptions ao_options_from_config(const Config& config) {
  ConfigTargets t;
  apply_config(config, config_keys(t), {"ao", "sim"});
  // SIMD dispatch is a process-wide kernel-table selection, not a per-run
  // option struct field: every engine (modal, reference, EXS) reads the
  // same table.  The config key overrides the FOSCIL_SIMD environment
  // default; set_active_level clamps avx2 to scalar on CPUs without it.
  if (config.has("sim.simd")) {
    if (t.simd == "scalar")
      linalg::simd::set_active_level(linalg::simd::Level::kScalar);
    else if (t.simd == "avx2")
      linalg::simd::set_active_level(linalg::simd::Level::kAvx2);
    else if (t.simd == "auto")
      linalg::simd::set_active_level(linalg::simd::detected_level());
    else
      reject("sim.simd", "must be 'scalar', 'avx2', or 'auto'");
  }
  return t.guard.ao;
}

double t_max_from_config(const Config& config) {
  ConfigTargets t;
  apply_config(config, config_keys(t), {"run"});
  return t.t_max_c;
}

bool has_faults_config(const Config& config) {
  for (const std::string& key : config.keys())
    if (key.rfind("faults.", 0) == 0) return true;
  return false;
}

sim::FaultSpec faults_from_config(const Config& config) {
  ConfigTargets t;
  const std::vector<ConfigKey> rows = config_keys(t);
  apply_config(config, rows, {"faults"});
  if (config.has("faults.intensity")) {
    // The dial sets the base spec; re-applying puts explicit keys on top.
    t.faults = sim::FaultSpec::at_intensity(t.fault_intensity);
    apply_config(config, rows, {"faults"});
  }
  const power::TransitionFaults& transitions = t.faults.transitions;
  if (transitions.delay_probability > 0.0 && transitions.delay_s <= 0.0)
    reject("faults.delay_ms",
           "must be > 0 when faults.delay_probability is set");
  t.faults.check();
  return t.faults;
}

IdentifyOptions identify_options_from_config(const Config& config) {
  ConfigTargets t;
  apply_config(config, config_keys(t), {"identify"});
  return t.guard.identify;
}

GuardOptions guard_options_from_config(const Config& config) {
  ConfigTargets t;
  apply_config(config, config_keys(t), {"guard", "identify"});
  GuardOptions options = t.guard;
  options.ao = ao_options_from_config(config);
  if (options.backoff_max < options.backoff_initial)
    reject("guard.backoff_max_s", "must be >= guard.backoff_initial_s");
  options.check();
  return options;
}

std::vector<std::string> unknown_config_keys(
    const Config& config, const std::vector<std::string>& extra_known) {
  ConfigTargets scratch;
  std::set<std::string> known(extra_known.begin(), extra_known.end());
  for (const ConfigKey& row : config_keys(scratch)) known.insert(row.name);
  std::set<std::string> known_sections;
  for (const std::string& key : known) known_sections.insert(section_of(key));

  std::vector<std::string> unknown;
  for (const std::string& key : config.keys()) {
    if (known.count(key) != 0) continue;
    if (known_sections.count(section_of(key)) == 0) continue;
    unknown.push_back(key);
  }
  return unknown;  // Config::keys() is already sorted
}

std::vector<std::string> warn_unknown_config_keys(
    const Config& config, const std::vector<std::string>& extra_known) {
  // Process-wide memory of keys already warned about, so config re-loads
  // (file watchers, retry loops) log each misspelling exactly once.
  static std::mutex mutex;
  static std::set<std::string> warned;

  std::vector<std::string> fresh;
  for (const std::string& key : unknown_config_keys(config, extra_known)) {
    {
      const std::lock_guard<std::mutex> lock(mutex);
      if (!warned.insert(key).second) continue;
    }
    std::cerr << "warning: unknown config key '" << key
              << "' in a known section (ignored; check for a misspelling)\n";
    fresh.push_back(key);
  }
  return fresh;
}

}  // namespace foscil::core
