#include "serve/serve_config.hpp"

namespace foscil::serve {

namespace {

std::vector<ConfigKey> service_keys(ServiceOptions& s) {
  OverloadOptions& o = s.overload;
  BreakerOptions& b = s.breaker;
  return {
      {"serve.workers", &s.workers, kNonNegative},
      {"serve.queue_capacity", &s.queue_capacity, kAtLeastOne},
      {"serve.cache_capacity", &s.cache_capacity, kAtLeastOne},
      {"serve.cache_shards", &s.cache_shards, kAtLeastOne},
      {"serve.default_deadline_ms", &s.default_deadline_s, kNonNegative,
       kPerThousand},
      {"serve.overload_enabled", &o.enabled},
      {"serve.degrade_fill", &o.degrade_fill},
      {"serve.shed_fill", &o.shed_fill},
      {"serve.recover_fill", &o.recover_fill},
      {"serve.degraded_max_m", &o.degraded_max_m},
      {"serve.degraded_patience", &o.degraded_patience},
      {"serve.breaker_threshold", &b.failure_threshold},
      {"serve.breaker_backoff_initial_ms", &b.backoff_initial_s, kAnyValue,
       kPerThousand},
      {"serve.breaker_backoff_max_ms", &b.backoff_max_s, kAnyValue,
       kPerThousand},
      {"serve.snapshot_path", &s.snapshot_path},
      {"serve.snapshot_period_s", &s.snapshot_period_s, kNonNegative},
  };
}

std::vector<ConfigKey> demo_keys(ServeDemoOptions& d) {
  return {
      {"serve.demo_unique", &d.unique_requests, kAtLeastOne},
      {"serve.demo_repeats", &d.repeats, kAtLeastOne},
  };
}

std::vector<ConfigKey> server_keys(net::ServerOptions& n) {
  net::MembershipOptions& m = n.membership;
  return {
      {"net.listen_host", &n.listen_host},
      {"net.listen_port", &n.listen_port},
      {"net.max_connections", &n.max_connections, kAtLeastOne},
      {"net.max_in_flight", &n.max_in_flight_per_connection, kAtLeastOne},
      {"net.max_body_kib", &n.max_body_bytes, kAtLeastOne, kKibi},
      {"net.read_idle_timeout_s", &n.read_idle_timeout_s},
      {"net.write_stall_timeout_s", &n.write_stall_timeout_s},
      {"net.idle_timeout_s", &n.idle_timeout_s},
      {"net.warm_snapshot_path", &n.warm_snapshot_path},
      {"net.drain_snapshot_path", &n.drain_snapshot_path},
      {"net.advertised_host", &n.advertised_host},
      {"net.advertised_port", &n.advertised_port},
      {"net.heartbeat_interval_s", &m.heartbeat_interval_s},
      {"net.suspect_timeout_s", &m.suspect_timeout_s},
      {"net.dead_timeout_s", &m.dead_timeout_s},
      {"net.rejoin_probe_interval_s", &m.rejoin_probe_interval_s},
      {"net.ring_vnodes", &n.ring_vnodes, kAtLeastOne},
      {"net.handoff_enabled", &n.handoff_enabled},
      {"net.handoff_batch_plans", &n.handoff_batch_plans, kAtLeastOne},
      {"net.handoff_io_timeout_s", &n.handoff_io_timeout_s},
      {"net.handoff_retry_interval_s", &n.handoff_retry_interval_s},
  };
}

}  // namespace

std::vector<ConfigKey> config_keys(ConfigTargets& t) {
  std::vector<ConfigKey> rows = service_keys(t.service);
  for (const std::vector<ConfigKey>& part :
       {demo_keys(t.demo), server_keys(t.server)})
    rows.insert(rows.end(), part.begin(), part.end());
  return rows;
}

std::vector<std::string> config_key_names() {
  ConfigTargets scratch;
  std::vector<std::string> names;
  for (const ConfigKey& row : config_keys(scratch)) names.push_back(row.name);
  return names;
}

ServiceOptions service_options_from_config(const Config& config) {
  ServiceOptions options;
  apply_config(config, service_keys(options));
  options.overload.check();
  options.breaker.check();
  return options;
}

ServeDemoOptions demo_options_from_config(const Config& config) {
  ServeDemoOptions demo;
  apply_config(config, demo_keys(demo));
  return demo;
}

net::ServerOptions server_options_from_config(const Config& config) {
  net::ServerOptions options;
  apply_config(config, server_keys(options));
  options.check();
  return options;
}

}  // namespace foscil::serve
