// foscil_cli: run the schedulers on a platform described by a config file.
//
//   $ ./examples/foscil_cli examples/configs/motivation_3x1.ini
//   $ ./examples/foscil_cli examples/configs/stacked_2x2x2.ini ao
//
// The second argument restricts the run to one scheduler
// (lns | exs | ao | pco | reactive | guard | all; default all).  "guard"
// executes AO closed-loop on the faulted plant described by the config's
// [faults] section (inert when absent); "all" includes it automatically
// whenever the config carries [faults] keys.  See
// src/core/config_loader.hpp for the recognized config keys.
//
// "serve" instead stands up the in-process planning service (src/serve)
// and drives it with a repeated-request workload shaped by the config's
// [serve] section (see src/serve/serve_config.hpp), printing cache, queue,
// and Theorem-2 certificate statistics.
//
// "serve --listen [host:port]" exposes the same service over TCP
// (src/serve/net): it prints the bound endpoint, serves plan frames until
// SIGTERM/SIGINT, then drains gracefully — finish in-flight work, flush
// the snapshot, exit 0.  "client --connect host:port[,host:port...]"
// drives such shards with the demo workload through the consistent-hash
// client (retries, failover), or sends one control operation with
// --health / --ready / --drain.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "core/ao.hpp"
#include "core/audit.hpp"
#include "core/config_loader.hpp"
#include "core/exs.hpp"
#include "core/guard.hpp"
#include "core/lns.hpp"
#include "core/pco.hpp"
#include "core/reactive.hpp"
#include "serve/net/client.hpp"
#include "serve/serve_config.hpp"
#include "util/table.hpp"

using namespace foscil;

namespace {

void add_result(TextTable& table, const core::SchedulerResult& r) {
  table.add_row({r.scheduler, fmt(r.throughput),
                 fmt_celsius(r.peak_celsius), std::to_string(r.m),
                 std::to_string(r.evaluations),
                 fmt(r.seconds * 1e3, 1) + " ms",
                 r.feasible ? "yes" : "NO"});
}

void print_guard_details(const core::GuardResult& guarded) {
  std::printf(
      "\nguard: band %.2f K, final derate %.2f K, %zu polls, "
      "%zu fallbacks, %zu reentries, %zu replans%s\n"
      "       true peak rise %.2f K (seen %.2f K), %zu violations, "
      "%zu dropped / %zu delayed transitions\n"
      "       retained %.1f%% of nominal AO throughput\n",
      guarded.guard_band, guarded.final_derate, guarded.polls,
      guarded.fallbacks, guarded.reentries, guarded.replans,
      guarded.saturated ? ", SATURATED" : "", guarded.true_peak_rise,
      guarded.seen_peak_rise, guarded.violations,
      guarded.dropped_transitions, guarded.delayed_transitions,
      guarded.throughput_retained() * 100.0);
  if (guarded.identify_polls == 0) return;
  std::printf("       identify: %zu polls, %s, %zu certified replans",
              guarded.identify_polls,
              guarded.identify_converged ? "converged" : "not converged",
              guarded.identified_replans);
  if (guarded.identified_replans > 0)
    std::printf(", certified band %.2f K", guarded.certified_band);
  std::printf("\n");
  if (!guarded.est_alpha_offset_w.empty()) {
    double max_alpha = 0.0, max_bias = 0.0;
    for (double a : guarded.est_alpha_offset_w)
      max_alpha = std::max(max_alpha, std::abs(a));
    for (double b : guarded.est_bias_k)
      max_bias = std::max(max_bias, std::abs(b));
    std::printf(
        "       estimate: beta x%.3f, r_conv x%.3f, max |alpha| %.2f W, "
        "max |bias| %.2f K\n",
        guarded.est_beta_scale, guarded.est_r_convection_scale, max_alpha,
        max_bias);
  }
}

/// Set by SIGINT/SIGTERM during the serve demo: the workload loop drains
/// early, the service stops cleanly, and a configured snapshot is flushed —
/// an operator's Ctrl-C never loses the cache a restart could warm from.
volatile std::sig_atomic_t g_interrupted = 0;

void handle_interrupt(int) { g_interrupted = 1; }

int usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s <config.ini> "
               "[lns|exs|ao|pco|reactive|guard|serve|client|all]\n"
               "       %s <config.ini> serve --listen [host:port]\n"
               "       %s <config.ini> client --connect host:port[,...] "
               "[--requests N] [--health|--ready|--drain]\n",
               argv0, argv0, argv0);
  return 2;
}

bool parse_endpoint(const std::string& spec, serve::net::Endpoint* out) {
  const std::size_t colon = spec.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 >= spec.size())
    return false;
  out->host = spec.substr(0, colon);
  char* end = nullptr;
  const long port = std::strtol(spec.c_str() + colon + 1, &end, 10);
  if (end == nullptr || *end != '\0' || port < 1 || port > 65535)
    return false;
  out->port = static_cast<std::uint16_t>(port);
  return true;
}

bool parse_endpoint_list(const std::string& csv,
                         std::vector<serve::net::Endpoint>* out) {
  std::size_t at = 0;
  while (at <= csv.size()) {
    const std::size_t comma = csv.find(',', at);
    const std::string spec = comma == std::string::npos
                                 ? csv.substr(at)
                                 : csv.substr(at, comma - at);
    serve::net::Endpoint endpoint;
    if (!parse_endpoint(spec, &endpoint)) return false;
    out->push_back(endpoint);
    if (comma == std::string::npos) break;
    at = comma + 1;
  }
  return !out->empty();
}

/// One "NAME=count" per nonzero status code — the wire taxonomy surfaced
/// on the command line for both the server and the client side.
void print_status_counters(
    const char* label,
    const std::array<std::uint64_t, serve::kStatusCodeCount>& counts) {
  std::string line;
  for (std::size_t i = 0; i < serve::kStatusCodeCount; ++i) {
    if (counts[i] == 0) continue;
    if (!line.empty()) line += ", ";
    line += serve::status_code_name(static_cast<serve::StatusCode>(i));
    line += '=';
    line += std::to_string(counts[i]);
  }
  std::printf("%s: %s\n", label, line.empty() ? "none" : line.c_str());
}

/// "serve --listen": the networked shard.  Runs until SIGTERM/SIGINT,
/// then drains gracefully (finish in-flight, flush snapshot) and exits 0.
int run_serve_net(const Config& config, const core::Platform& platform,
                  int argc, char** argv) {
  serve::ServiceOptions service_options =
      serve::service_options_from_config(config);
  serve::net::ServerOptions server_options =
      serve::server_options_from_config(config);
  for (int i = 3; i < argc; ++i) {
    if (std::strcmp(argv[i], "--listen") != 0) continue;
    if (i + 1 >= argc || argv[i + 1][0] == '-') continue;  // keep config
    serve::net::Endpoint endpoint;
    if (!parse_endpoint(argv[i + 1], &endpoint)) {
      std::fprintf(stderr, "error: bad --listen endpoint %s\n", argv[i + 1]);
      return 2;
    }
    server_options.listen_host = endpoint.host;
    server_options.listen_port = endpoint.port;
  }
  // The [serve] snapshot path doubles as the warm/drain file unless [net]
  // overrides it; the restore is deferred to the server so READY can gate
  // on it.
  if (server_options.warm_snapshot_path.empty())
    server_options.warm_snapshot_path = service_options.snapshot_path;
  if (server_options.drain_snapshot_path.empty())
    server_options.drain_snapshot_path = service_options.snapshot_path;
  service_options.warm_load_at_construction = false;

  serve::PlanningService service(service_options);
  serve::net::PlanServer server(service, platform, server_options);
  const std::uint16_t port = server.listen();
  std::printf("listening on %s:%u (%u workers, cache %zu entries)\n",
              server_options.listen_host.c_str(), port,
              service.worker_count(), service.cache().capacity());
  std::fflush(stdout);

  std::signal(SIGINT, handle_interrupt);
  std::signal(SIGTERM, handle_interrupt);
  server.run([] { return g_interrupted != 0; });

  const serve::net::ServerStats net_stats = server.stats();
  const serve::ServiceStats stats = service.stats();
  std::printf("drained: %llu requests, %llu responses, %llu connections "
              "(%llu shed, %llu malformed, %llu timed out)\n",
              static_cast<unsigned long long>(net_stats.requests),
              static_cast<unsigned long long>(net_stats.responses),
              static_cast<unsigned long long>(net_stats.accepted),
              static_cast<unsigned long long>(net_stats.shed_connections),
              static_cast<unsigned long long>(net_stats.malformed_closes),
              static_cast<unsigned long long>(net_stats.timeout_closes));
  std::array<std::uint64_t, serve::kStatusCodeCount> rejections =
      stats.rejections_by_code;
  for (std::size_t i = 0; i < serve::kStatusCodeCount; ++i)
    rejections[i] += net_stats.statuses_by_code[i];
  print_status_counters("statuses", rejections);
  service.stop();
  std::printf("snapshot flushed, exiting\n");
  return 0;
}

/// "client --connect": drive shards over the wire with the demo workload,
/// or send one control operation (--health / --ready / --drain).
int run_net_client(const Config& config, const core::Platform& platform,
                   double t_max, const core::AoOptions& ao_options,
                   int argc, char** argv) {
  std::vector<serve::net::Endpoint> endpoints;
  bool do_health = false, do_ready = false, do_drain = false;
  long requests_override = -1;
  for (int i = 3; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--connect" && i + 1 < argc) {
      if (!parse_endpoint_list(argv[++i], &endpoints)) {
        std::fprintf(stderr, "error: bad --connect list\n");
        return 2;
      }
    } else if (arg == "--health") {
      do_health = true;
    } else if (arg == "--ready") {
      do_ready = true;
    } else if (arg == "--drain") {
      do_drain = true;
    } else if (arg == "--requests" && i + 1 < argc) {
      requests_override = std::strtol(argv[++i], nullptr, 10);
    }
  }
  if (endpoints.empty()) {
    std::fprintf(stderr, "error: client mode needs --connect host:port\n");
    return 2;
  }
  serve::net::NetClient client(endpoints, platform);

  if (do_health || do_ready || do_drain) {
    for (std::size_t i = 0; i < endpoints.size(); ++i) {
      const std::string label = endpoints[i].label();
      try {
        if (do_drain) {
          client.drain(i);
          std::printf("%s: drain acknowledged\n", label.c_str());
          continue;
        }
        if (do_ready) {
          const serve::net::ReadyInfo info = client.ready(i);
          std::printf("%s: ready=%d draining=%d warm_plans=%llu "
                      "load_failures=%llu\n",
                      label.c_str(), info.ready, info.draining,
                      static_cast<unsigned long long>(info.warm_plans),
                      static_cast<unsigned long long>(info.load_failures));
          continue;
        }
        const serve::net::HealthInfo info = client.health(i);
        std::printf("%s: %s ready=%d draining=%d conns=%llu cache=%llu "
                    "entries (%llu hits / %llu lookups) ewma_plan=%.1f ms "
                    "retry_hint=%.1f ms\n",
                    label.c_str(),
                    serve::load_state_name(
                        static_cast<serve::LoadState>(info.load_state)),
                    info.ready, info.draining,
                    static_cast<unsigned long long>(info.connections),
                    static_cast<unsigned long long>(info.cache_entries),
                    static_cast<unsigned long long>(info.cache_hits),
                    static_cast<unsigned long long>(info.cache_lookups),
                    info.ewma_plan_seconds * 1e3,
                    info.retry_after_hint_s * 1e3);
        print_status_counters(("  " + label + " rejections").c_str(),
                              info.rejections_by_code);
      } catch (const serve::net::NetClientError& error) {
        std::printf("%s: unreachable (%s)\n", label.c_str(), error.what());
      }
    }
    return 0;
  }

  const serve::ServeDemoOptions demo = serve::demo_options_from_config(config);
  const double deadline_s =
      serve::service_options_from_config(config).default_deadline_s;
  long total = static_cast<long>(demo.unique_requests) * demo.repeats;
  if (requests_override > 0) total = requests_override;

  const auto now_s = [] {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  };
  std::uint64_t failures = 0;
  const double start = now_s();
  for (long n = 0; n < total && !g_interrupted; ++n) {
    serve::net::WirePlanRequest request;
    // Same sweep as the in-process demo so shard caches see recurring keys.
    const int point = static_cast<int>(n) % demo.unique_requests;
    request.t_max_c =
        t_max + 5.0 * static_cast<double>(point) /
                    static_cast<double>(std::max(demo.unique_requests, 2) - 1);
    request.ao = ao_options;
    request.deadline_s = deadline_s > 0.0 ? deadline_s : -1.0;
    try {
      (void)client.plan(request);
    } catch (const serve::net::NetClientError& error) {
      ++failures;
      if (failures <= 3)
        std::fprintf(stderr, "request %ld failed: %s\n", n, error.what());
    }
  }
  const double elapsed = now_s() - start;

  const serve::net::ClientStats stats = client.stats();
  std::printf("client: %llu plans in %.3f s (%.1f/s) across %zu shard(s)\n",
              static_cast<unsigned long long>(stats.plans), elapsed,
              static_cast<double>(stats.plans) / std::max(elapsed, 1e-9),
              endpoints.size());
  std::printf("        %llu cache hits, %llu retries, %llu failovers, "
              "%llu reconnects, %llu transport errors\n",
              static_cast<unsigned long long>(stats.cache_hits),
              static_cast<unsigned long long>(stats.retries),
              static_cast<unsigned long long>(stats.failovers),
              static_cast<unsigned long long>(stats.reconnects),
              static_cast<unsigned long long>(stats.transport_errors));
  print_status_counters("        statuses seen", stats.statuses_by_code);
  std::printf("failed requests: %llu\n",
              static_cast<unsigned long long>(failures));
  return failures == 0 ? 0 : 1;
}

/// Stand up the planning service and replay a repeated-request workload
/// against it: `demo.unique_requests` distinct T_max points, each recurring
/// `demo.repeats` times — the recurring-operating-point shape a thermal
/// daemon sees.  Print per-point plans, then the serving statistics.
int run_serve_demo(const Config& config, const core::Platform& platform,
                   double t_max, const core::AoOptions& ao_options) {
  const serve::ServiceOptions options =
      serve::service_options_from_config(config);
  const serve::ServeDemoOptions demo =
      serve::demo_options_from_config(config);
  serve::PlanningService service(options);
  std::signal(SIGINT, handle_interrupt);
  std::signal(SIGTERM, handle_interrupt);
  if (!options.snapshot_path.empty()) {
    const serve::ServiceStats boot = service.stats();
    std::printf("snapshot %s: %llu warm-loaded plan(s), %llu load failure(s)"
                " (%s start)\n",
                options.snapshot_path.c_str(),
                static_cast<unsigned long long>(
                    boot.snapshot_loads > 0 ? boot.cache.entries : 0),
                static_cast<unsigned long long>(boot.snapshot_load_failures),
                boot.snapshot_loads > 0 ? "warm" : "cold");
  }

  const auto now_s = [] {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  };

  auto request_at = [&](int point) {
    serve::PlanRequest request;
    request.platform = platform;
    // Sweep a 5 C window upward from the configured threshold.
    request.t_max_c =
        t_max + 5.0 * static_cast<double>(point) /
                    static_cast<double>(std::max(demo.unique_requests, 2) - 1);
    request.ao = ao_options;
    return request;
  };

  // One serial plan as the cost yardstick for the speedup estimate.
  const double serial_start = now_s();
  const auto serial = serve::plan_direct(request_at(0));
  const double serial_seconds = now_s() - serial_start;

  std::printf("serving %d unique T_max points x %d repeats "
              "(%u workers, cache %zu entries / %zu shards)\n\n",
              demo.unique_requests, demo.repeats, service.worker_count(),
              service.cache().capacity(), service.cache().shard_count());

  TextTable table({"T_max", "throughput", "peak", "m", "certified"});
  std::vector<bool> point_failed(
      static_cast<std::size_t>(demo.unique_requests), false);
  const double start = now_s();
  for (int repeat = 0; repeat < demo.repeats && !g_interrupted; ++repeat) {
    for (int point = 0; point < demo.unique_requests; ++point) {
      const std::size_t slot = static_cast<std::size_t>(point);
      if (point_failed[slot]) continue;
      try {
        const serve::PlanResponse response =
            service.submit(request_at(point)).get();
        if (repeat > 0) continue;  // table shows each point once
        const core::SchedulerResult& r = response.plan->result;
        table.add_row({fmt_celsius(request_at(point).t_max_c),
                       fmt(r.throughput), fmt_celsius(r.peak_celsius),
                       std::to_string(r.m),
                       response.plan->certified_safe ? "yes" : "NO"});
      } catch (const std::exception& error) {
        // Planner failures are per-request: the service delivers them
        // through the future and stays up.  Report the point and move on.
        point_failed[slot] = true;
        if (repeat == 0)
          table.add_row({fmt_celsius(request_at(point).t_max_c),
                         "planner failed", "-", "-", "-"});
      }
    }
  }
  const double elapsed = now_s() - start;
  std::printf("%s\n", table.str().c_str());
  (void)serial;

  const serve::ServiceStats stats = service.stats();
  const double total = static_cast<double>(stats.submitted);
  std::printf("served %.0f requests in %.3f s (%.1f/s); serial planner "
              "would need ~%.3f s (est. %.1fx)\n",
              total, elapsed, total / elapsed, serial_seconds * total,
              serial_seconds * total / elapsed);
  if (stats.failed > 0)
    std::printf("planner failures: %llu (delivered per-request; the "
                "service stays up)\n",
                static_cast<unsigned long long>(stats.failed));
  std::printf("cache: %.1f%% hit rate (%llu hits / %llu lookups), "
              "%llu inserts, %llu evictions\n",
              100.0 * stats.cache.hit_rate(),
              static_cast<unsigned long long>(stats.cache.hits),
              static_cast<unsigned long long>(stats.cache.lookups()),
              static_cast<unsigned long long>(stats.cache.inserts),
              static_cast<unsigned long long>(stats.cache.evictions));
  std::printf("queue: peak depth %zu, %llu planner runs, %llu coalesced, "
              "%llu rejected\n",
              stats.queue_peak,
              static_cast<unsigned long long>(stats.planned),
              static_cast<unsigned long long>(stats.coalesced),
              static_cast<unsigned long long>(stats.rejected_queue_full +
                                              stats.rejected_expired));
  std::printf("resilience: %llu degraded served, %llu shed, %llu breaker "
              "rejections, %llu cancelled mid-plan (ladder %s, %llu "
              "transitions)\n",
              static_cast<unsigned long long>(stats.degraded_served),
              static_cast<unsigned long long>(stats.rejected_overload),
              static_cast<unsigned long long>(stats.breaker_rejections),
              static_cast<unsigned long long>(stats.cancelled_mid_plan),
              serve::load_state_name(stats.load_state),
              static_cast<unsigned long long>(stats.overload_transitions));
  if (!options.snapshot_path.empty())
    std::printf("snapshots: %llu saved, %llu loaded, %llu load failures\n",
                static_cast<unsigned long long>(stats.snapshot_saves),
                static_cast<unsigned long long>(stats.snapshot_loads),
                static_cast<unsigned long long>(stats.snapshot_load_failures));
  const core::AuditCounters::Snapshot audits =
      core::AuditCounters::instance().snapshot();
  std::printf("theorem-2 certificates: %llu issued, %llu proved safe\n",
              static_cast<unsigned long long>(audits.certificates),
              static_cast<unsigned long long>(audits.certified_safe));
  if (g_interrupted) {
    std::printf("interrupted: flushing snapshot and exiting\n");
    service.stop();  // drains the queue and writes the final snapshot
    return 130;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage(argv[0]);
  const std::string which = argc > 2 ? argv[2] : "all";

  Config config;
  try {
    config = Config::load(argv[1]);
  } catch (const ConfigError& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
  // Surface misspelled keys in known sections (stderr, once per key) —
  // the loaders would otherwise ignore them silently.
  core::warn_unknown_config_keys(config, serve::config_key_names());

  try {
    const core::Platform platform = core::platform_from_config(config);
    const double t_max = core::t_max_from_config(config);
    const core::AoOptions ao_options = core::ao_options_from_config(config);

    std::printf("platform %s: %zu cores, %zu thermal nodes, %zu levels, "
                "T_amb = %.1f C, T_max = %.1f C\n\n",
                platform.name.c_str(), platform.num_cores(),
                platform.model->num_nodes(), platform.levels.count(),
                platform.t_ambient_c, t_max);

    bool listen_mode = false;
    for (int i = 3; i < argc; ++i)
      if (std::strcmp(argv[i], "--listen") == 0) listen_mode = true;
    if (which == "serve" && listen_mode)
      return run_serve_net(config, platform, argc, argv);
    if (which == "serve")
      return run_serve_demo(config, platform, t_max, ao_options);
    if (which == "client")
      return run_net_client(config, platform, t_max, ao_options, argc, argv);

    TextTable table({"scheduler", "throughput", "peak", "m", "evals",
                     "time", "feasible"});
    const bool all = which == "all";
    if (all || which == "lns")
      add_result(table, core::run_lns(platform, t_max));
    if (all || which == "exs")
      add_result(table, core::run_exs(platform, t_max));
    if (all || which == "ao")
      add_result(table, core::run_ao(platform, t_max, ao_options));
    if (all || which == "pco") {
      core::PcoOptions pco_options;
      pco_options.ao = ao_options;
      add_result(table, core::run_pco(platform, t_max, pco_options));
    }
    if (all || which == "reactive")
      add_result(table, core::run_reactive(platform, t_max).result);

    const bool want_guard =
        which == "guard" || (all && core::has_faults_config(config));
    core::GuardResult guarded;
    if (want_guard) {
      const sim::FaultSpec faults = core::faults_from_config(config);
      core::GuardOptions guard_options =
          core::guard_options_from_config(config);
      guard_options.ao = ao_options;
      guarded = core::run_guarded_ao(platform, t_max, faults, guard_options);
      add_result(table, guarded.result);
    }

    if (table.rows() == 0) return usage(argv[0]);
    std::printf("%s", table.str().c_str());
    if (want_guard) print_guard_details(guarded);
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "error: %s\n", error.what());
    return 1;
  }
}
