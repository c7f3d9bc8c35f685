// [serve]/[net] config parsing (serve/serve_config.hpp): defaults when the
// section is absent, full override, and rejection of nonsensical values;
// plus the key-table checks that cover the core and serve tables together.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <limits>
#include <span>
#include <sstream>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

#include "core/config_loader.hpp"
#include "serve/serve_config.hpp"

namespace foscil::serve {
namespace {

TEST(ServeConfig, MissingSectionYieldsDefaults) {
  const Config config = Config::parse("[platform]\nrows = 2\n");
  const ServiceOptions options = service_options_from_config(config);
  EXPECT_EQ(options.workers, 0u);  // 0 = hardware default
  EXPECT_EQ(options.queue_capacity, ServiceOptions{}.queue_capacity);
  EXPECT_EQ(options.cache_capacity, ServiceOptions{}.cache_capacity);
  EXPECT_EQ(options.default_deadline_s, 0.0);

  const ServeDemoOptions demo = demo_options_from_config(config);
  EXPECT_EQ(demo.unique_requests, 16);
  EXPECT_EQ(demo.repeats, 32);
}

TEST(ServeConfig, FullSectionOverridesEveryKnob) {
  const Config config = Config::parse(
      "[serve]\n"
      "workers = 8\n"
      "queue_capacity = 512\n"
      "cache_capacity = 2048\n"
      "cache_shards = 16\n"
      "default_deadline_ms = 250\n"
      "demo_unique = 4\n"
      "demo_repeats = 10\n");
  const ServiceOptions options = service_options_from_config(config);
  EXPECT_EQ(options.workers, 8u);
  EXPECT_EQ(options.queue_capacity, 512u);
  EXPECT_EQ(options.cache_capacity, 2048u);
  EXPECT_EQ(options.cache_shards, 16u);
  EXPECT_DOUBLE_EQ(options.default_deadline_s, 0.25);

  const ServeDemoOptions demo = demo_options_from_config(config);
  EXPECT_EQ(demo.unique_requests, 4);
  EXPECT_EQ(demo.repeats, 10);
}

TEST(ServeConfig, MalformedValuesViolateTheContract) {
  // Single-key range violations are ConfigErrors naming the key; only
  // cross-key rules (watermark order, timeout order) stay contract checks.
  EXPECT_THROW((void)service_options_from_config(
                   Config::parse("[serve]\nworkers = -1\n")),
               ConfigError);
  EXPECT_THROW((void)service_options_from_config(
                   Config::parse("[serve]\nqueue_capacity = 0\n")),
               ConfigError);
  EXPECT_THROW((void)service_options_from_config(
                   Config::parse("[serve]\ncache_capacity = 0\n")),
               ConfigError);
  EXPECT_THROW((void)service_options_from_config(
                   Config::parse("[serve]\ndefault_deadline_ms = -5\n")),
               ConfigError);
  EXPECT_THROW((void)demo_options_from_config(
                   Config::parse("[serve]\ndemo_unique = 0\n")),
               ConfigError);
}

TEST(ServeConfig, RobustnessKeysParseIntoOptions) {
  const Config config = Config::parse(
      "[serve]\n"
      "overload_enabled = true\n"
      "degrade_fill = 0.4\n"
      "shed_fill = 0.8\n"
      "recover_fill = 0.1\n"
      "degraded_max_m = 32\n"
      "degraded_patience = 1\n"
      "breaker_threshold = 5\n"
      "breaker_backoff_initial_ms = 250\n"
      "breaker_backoff_max_ms = 8000\n"
      "snapshot_path = /tmp/foscil.snap\n"
      "snapshot_period_s = 30\n");
  const ServiceOptions options = service_options_from_config(config);
  EXPECT_TRUE(options.overload.enabled);
  EXPECT_DOUBLE_EQ(options.overload.degrade_fill, 0.4);
  EXPECT_DOUBLE_EQ(options.overload.shed_fill, 0.8);
  EXPECT_DOUBLE_EQ(options.overload.recover_fill, 0.1);
  EXPECT_EQ(options.overload.degraded_max_m, 32);
  EXPECT_EQ(options.overload.degraded_patience, 1);
  EXPECT_EQ(options.breaker.failure_threshold, 5);
  EXPECT_DOUBLE_EQ(options.breaker.backoff_initial_s, 0.25);
  EXPECT_DOUBLE_EQ(options.breaker.backoff_max_s, 8.0);
  EXPECT_EQ(options.snapshot_path, "/tmp/foscil.snap");
  EXPECT_DOUBLE_EQ(options.snapshot_period_s, 30.0);

  // Inverted watermarks are rejected at load time, not at first overload.
  EXPECT_THROW((void)service_options_from_config(Config::parse(
                   "[serve]\ndegrade_fill = 0.9\nshed_fill = 0.5\n")),
               ContractViolation);
  EXPECT_THROW((void)service_options_from_config(
                   Config::parse("[serve]\nsnapshot_period_s = -1\n")),
               ConfigError);
}

TEST(ServeConfig, MembershipAndHandoffKeysParseIntoServerOptions) {
  const Config config = Config::parse(
      "[net]\n"
      "advertised_host = 10.0.0.7\n"
      "advertised_port = 7777\n"
      "heartbeat_interval_s = 0.1\n"
      "suspect_timeout_s = 0.5\n"
      "dead_timeout_s = 1.5\n"
      "rejoin_probe_interval_s = 0.4\n"
      "ring_vnodes = 128\n"
      "handoff_enabled = false\n"
      "handoff_batch_plans = 16\n"
      "handoff_io_timeout_s = 2.5\n"
      "handoff_retry_interval_s = 0.2\n");
  const net::ServerOptions options = server_options_from_config(config);
  EXPECT_EQ(options.advertised_host, "10.0.0.7");
  EXPECT_EQ(options.advertised_port, 7777);
  EXPECT_DOUBLE_EQ(options.membership.heartbeat_interval_s, 0.1);
  EXPECT_DOUBLE_EQ(options.membership.suspect_timeout_s, 0.5);
  EXPECT_DOUBLE_EQ(options.membership.dead_timeout_s, 1.5);
  EXPECT_DOUBLE_EQ(options.membership.rejoin_probe_interval_s, 0.4);
  EXPECT_EQ(options.ring_vnodes, 128u);
  EXPECT_FALSE(options.handoff_enabled);
  EXPECT_EQ(options.handoff_batch_plans, 16u);
  EXPECT_DOUBLE_EQ(options.handoff_io_timeout_s, 2.5);
  EXPECT_DOUBLE_EQ(options.handoff_retry_interval_s, 0.2);

  // Timeouts must order sanely; the loader enforces it at parse time.
  EXPECT_THROW(
      (void)server_options_from_config(Config::parse(
          "[net]\nsuspect_timeout_s = 3.0\ndead_timeout_s = 1.0\n")),
      ContractViolation);
  EXPECT_THROW((void)server_options_from_config(
                   Config::parse("[net]\nring_vnodes = 0\n")),
               ConfigError);
}

TEST(ServeConfig, ParsedOptionsConstructAWorkingService) {
  const Config config = Config::parse(
      "[serve]\nworkers = 2\nqueue_capacity = 8\ncache_capacity = 4\n");
  PlanningService service(service_options_from_config(config));
  EXPECT_EQ(service.worker_count(), 2u);
  EXPECT_EQ(service.cache().capacity(), 4u);
}

/// The ConfigError message `thunk` throws, or "" when it throws none.
template <class Thunk>
std::string config_error_of(Thunk&& thunk) {
  try {
    thunk();
  } catch (const ConfigError& error) {
    return error.what();
  }
  return "";
}

TEST(ServeConfig, OversizedBodyCapIsRejectedNotWrapped) {
  // 4194305 KiB is 4 GiB + 1 KiB: shifted into a uint32 it used to wrap to
  // a 1 KiB cap.
  const std::string message = config_error_of([] {
    (void)server_options_from_config(
        Config::parse("[net]\nmax_body_kib = 4194305\n"));
  });
  EXPECT_NE(message.find("net.max_body_kib"), std::string::npos) << message;
}

TEST(ServeConfig, OversizedDegradedMaxMIsRejectedNotNarrowed) {
  const std::string message = config_error_of([] {
    (void)service_options_from_config(
        Config::parse("[serve]\ndegraded_max_m = 4294967297\n"));
  });
  EXPECT_NE(message.find("serve.degraded_max_m"), std::string::npos)
      << message;
}

// ---- the key tables ------------------------------------------------------

[[nodiscard]] bool in_range(const ConfigRange& r, double v) {
  return (v > r.lo || (v == r.lo && !r.lo_open)) &&
         (v < r.hi || (v == r.hi && !r.hi_open));
}

/// `v` as a config value: integers without a decimal point.
[[nodiscard]] std::string text(double v) {
  std::ostringstream out;
  out << v;
  return out.str();
}

/// A value in the file's units that the row must refuse, or "" when every
/// value of the field's type is acceptable (strings).
template <class T>
std::string out_of_range_value(const ConfigRange& r) {
  if (std::isfinite(r.lo)) return text(r.lo_open ? r.lo : r.lo - 1.0);
  if (std::isfinite(r.hi)) return text(r.hi_open ? r.hi : r.hi + 1.0);
  if constexpr (std::is_same_v<T, std::string>) {
    return "";
  } else if constexpr (std::is_same_v<T, bool>) {
    return "maybe";
  } else if constexpr (std::is_same_v<T, double>) {
    return "inf";
  } else if constexpr (std::is_integral_v<T> && std::is_signed_v<T>) {
    return std::to_string(
        static_cast<long>(std::numeric_limits<T>::max()) + 1);
  } else if constexpr (std::is_integral_v<T>) {
    return "-1";
  } else {
    return "1, nan";
  }
}

/// For every row of `table`: an in-range value that differs from the
/// default lands in the row's field times the row's scale, and an
/// out-of-range value throws a ConfigError naming the key.
template <class Targets>
void check_every_row(std::vector<ConfigKey> (*table)(Targets&)) {
  Targets sizing;
  const std::size_t count = table(sizing).size();
  for (std::size_t i = 0; i < count; ++i) {
    Targets targets;
    const std::vector<ConfigKey> rows = table(targets);
    const ConfigKey& row = rows[i];
    const std::string key = row.name;
    SCOPED_TRACE(key);
    const std::span<const ConfigKey> one(&row, 1);
    const auto config_with = [&](const std::string& value) {
      const std::size_t dot = key.find('.');
      return Config::parse("[" + key.substr(0, dot) + "]\n" +
                           key.substr(dot + 1) + " = " + value + "\n");
    };
    std::visit(
        [&](auto* field) {
          using T = std::remove_pointer_t<decltype(field)>;
          const auto scaled = [&](double v) {
            if constexpr (std::is_same_v<T, double> ||
                          std::is_same_v<T, std::vector<double>>)
              return v * row.scale.mul / row.scale.div;
            else
              return static_cast<long double>(v) * row.scale.mul /
                     row.scale.div;
          };
          if constexpr (std::is_same_v<T, bool>) {
            const bool flipped = !*field;
            apply_config(config_with(flipped ? "true" : "false"), one);
            EXPECT_EQ(*field, flipped);
          } else if constexpr (std::is_same_v<T, std::string>) {
            apply_config(config_with("landed"), one);
            EXPECT_EQ(*field, "landed");
          } else if constexpr (std::is_arithmetic_v<T>) {
            bool landed = false;
            for (const double v : {7.0, 3.0, 0.5, 0.75, 2.0, 1.0}) {
              if (std::is_integral_v<T> && v != std::floor(v)) continue;
              if (!in_range(row.range, v) ||
                  scaled(v) == static_cast<decltype(scaled(v))>(*field))
                continue;
              apply_config(config_with(text(v)), one);
              EXPECT_EQ(*field, static_cast<T>(scaled(v)));
              landed = true;
              break;
            }
            EXPECT_TRUE(landed) << "no non-default in-range probe value";
          } else {
            apply_config(config_with("7, 3"), one);
            ASSERT_EQ(field->size(), 2u);
            EXPECT_EQ((*field)[0],
                      static_cast<typename T::value_type>(scaled(7.0)));
            EXPECT_EQ((*field)[1],
                      static_cast<typename T::value_type>(scaled(3.0)));
          }
          const std::string bad = out_of_range_value<T>(row.range);
          if (bad.empty()) return;
          const std::string message = config_error_of(
              [&] { apply_config(config_with(bad), one); });
          EXPECT_NE(message.find("'" + key + "'"), std::string::npos)
              << "value '" << bad << "' gave: " << message;
        },
        row.field);
  }
}

TEST(ConfigTables, EveryRowLandsScaledAndRejectsOutOfRange) {
  check_every_row(&core::config_keys);
  check_every_row(&config_keys);

  // One row per key across both tables.
  core::ConfigTargets core_targets;
  std::vector<std::string> names = config_key_names();
  for (const ConfigKey& row : core::config_keys(core_targets))
    names.push_back(row.name);
  std::sort(names.begin(), names.end());
  EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end());
}

TEST(ConfigTables, ShippedExampleConfigsLoadWithNoUnknownKeys) {
  std::size_t loaded = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(FOSCIL_EXAMPLE_CONFIG_DIR)) {
    if (entry.path().extension() != ".ini") continue;
    SCOPED_TRACE(entry.path().string());
    const Config config = Config::load(entry.path().string());
    EXPECT_EQ(core::unknown_config_keys(config, config_key_names()),
              std::vector<std::string>{});
    EXPECT_NO_THROW({
      (void)core::platform_from_config(config);
      (void)core::t_max_from_config(config);
      (void)core::ao_options_from_config(config);
      (void)core::faults_from_config(config);
      (void)core::identify_options_from_config(config);
      (void)core::guard_options_from_config(config);
      (void)service_options_from_config(config);
      (void)demo_options_from_config(config);
      (void)server_options_from_config(config);
    });
    ++loaded;
  }
  EXPECT_GE(loaded, 8u);
  // A misspelled serve key is still caught.
  EXPECT_EQ(core::unknown_config_keys(Config::parse("[serve]\nworkerz = 1\n"),
                                      config_key_names()),
            std::vector<std::string>{"serve.workerz"});
}

}  // namespace
}  // namespace foscil::serve
