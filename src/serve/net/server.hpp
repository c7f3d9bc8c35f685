// Single-threaded event-loop front end for the planning service.
//
// One thread multiplexes every connection with level-triggered epoll
// (Linux only), while the PlanningService's worker pool does the actual
// planning — the loop only parses frames, submits requests, and
// flushes completed futures back out.  Robustness contract:
//
//   * every inbound byte runs through the strict FrameAssembler; a
//     malformed, oversized, version-skewed, or checksum-failing stream is
//     answered with one best-effort Status frame and closed — never
//     crashed on;
//   * slow-loris defense: a connection that keeps a partial frame
//     buffered longer than `read_idle_timeout_s`, or that stalls a
//     non-empty outbound buffer longer than `write_stall_timeout_s`, is
//     closed; fully idle connections (no in-flight work) are reaped after
//     `idle_timeout_s`;
//   * backpressure reaches the socket layer: beyond `max_connections`
//     new connections are shed with a Status{SHED}; the per-connection
//     in-flight cap shrinks with the service's overload ladder (full at
//     NORMAL, halved at DEGRADED, 1 at SHED), so a client fleet sees the
//     ladder instead of a silently growing queue;
//   * READY gates warm-up: with a `warm_snapshot_path` the server opens
//     its socket first, answers READY=false (and NOT_READY to plan
//     requests) until the snapshot restore attempt finishes, then flips
//     ready — a restarted shard never serves traffic it is about to warm
//     away;
//   * graceful drain: on a DRAIN frame (or an external drain signal such
//     as SIGTERM) the listener closes, new plan requests are answered
//     STOPPING, in-flight plans finish and flush, the snapshot (if
//     configured) is written once, and run() returns so the process can
//     exit 0.
#pragma once

#include <array>
#include <atomic>
#include <csignal>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "core/platform.hpp"
#include "serve/net/wire.hpp"
#include "serve/service.hpp"

namespace foscil::serve::net {

struct ServerOptions {
  std::string listen_host = "127.0.0.1";
  std::uint16_t listen_port = 0;  ///< 0 = ephemeral; port() reports actual
  /// Connection cap; connections beyond it are shed at accept.
  std::size_t max_connections = 256;
  /// In-flight plan requests per connection at NORMAL load (halved at
  /// DEGRADED, 1 at SHED).
  std::size_t max_in_flight_per_connection = 32;
  /// Cap on one inbound frame body.
  std::uint32_t max_body_bytes = 1u << 20;
  /// Cap on a connection's buffered outbound bytes; a reader slow enough
  /// to exceed it is closed (it would otherwise grow the buffer without
  /// bound).
  std::size_t max_outbound_bytes = 32u << 20;
  /// A partial inbound frame older than this closes the connection.
  double read_idle_timeout_s = 5.0;
  /// A non-empty outbound buffer making no progress for this long closes
  /// the connection.
  double write_stall_timeout_s = 5.0;
  /// A connection with no traffic and no in-flight work is reaped after
  /// this long.  <= 0: never.
  double idle_timeout_s = 0.0;
  /// Non-empty: restore this snapshot *after* the socket is listening and
  /// report READY only once the attempt finished (see class comment).
  std::string warm_snapshot_path;
  /// Non-empty: flush a final snapshot here on drain, before run()
  /// returns.
  std::string drain_snapshot_path;
  /// Testing hook: start not-ready and stay so until set_ready(true) —
  /// pins the NOT_READY path deterministically.
  bool manual_ready = false;

  // ---- membership & live cache handoff (DESIGN.md §15) --------------------

  /// The shard identity this server advertises in gossip.  Empty host /
  /// zero port default to the listen host and the bound port; set them
  /// when the shard is reached through a different address than it binds
  /// (a fault-injection proxy, NAT, a load balancer).
  std::string advertised_host;
  std::uint16_t advertised_port = 0;
  /// Failure-detection timeouts for the server's membership table.  The
  /// server is a *passive* gossiper: it merges views and marks gossiping
  /// shards alive first-hand, but never ticks timeouts itself — clients
  /// drive probing, so a shard with no client traffic does not spuriously
  /// declare its peers dead.
  MembershipOptions membership{};
  /// Virtual nodes per endpoint when the handoff streamer rebuilds the
  /// ring; must match the clients' ring_vnodes or ownership disagrees.
  std::size_t ring_vnodes = 64;
  /// Stream hot cache entries to their new owner when the live set grows
  /// (a shard joined or returned).  Epoch-fenced on the receiving side.
  bool handoff_enabled = true;
  /// Plans per kHandoff frame.
  std::size_t handoff_batch_plans = 64;
  /// Connect/send/receive budget for one handoff peer conversation.
  double handoff_io_timeout_s = 5.0;
  /// The streamer sweeps at this cadence until every live peer has acked
  /// the current epoch, so a peer that was briefly unreachable still gets
  /// its entries (bounded staleness).  Converged sweeps send nothing.
  double handoff_retry_interval_s = 0.5;

  void check() const;
};

struct ServerStats {
  std::uint64_t accepted = 0;
  std::uint64_t closed = 0;
  std::uint64_t shed_connections = 0;   ///< over max_connections at accept
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t malformed_closes = 0;   ///< bad streams condemned
  std::uint64_t timeout_closes = 0;     ///< read/write/idle timeouts
  std::uint64_t requests = 0;           ///< plan requests admitted
  std::uint64_t responses = 0;          ///< plan responses delivered
  std::uint64_t drains = 0;             ///< DRAIN frames honored
  // Membership & handoff (zero unless the fleet gossips).
  std::uint64_t gossip_frames = 0;            ///< kGossip frames answered
  std::uint64_t handoff_batches_received = 0;
  std::uint64_t handoff_plans_received = 0;   ///< accepted (inserted)
  std::uint64_t handoff_plans_skipped = 0;    ///< key already cached
  std::uint64_t stale_handoff_rejections = 0; ///< epoch fence fired
  std::uint64_t handoff_batches_sent = 0;
  std::uint64_t handoff_plans_sent = 0;       ///< accepted by the peer
  std::uint64_t handoff_send_failures = 0;    ///< peer conversations failed
  std::uint64_t membership_epoch = 0;         ///< gauge, not a counter
  /// Status frames sent, by code (framing defects, shed, not-ready, and
  /// every service rejection relayed to a client), indexed by
  /// status_index().
  std::array<std::uint64_t, kStatusCodeCount> statuses_by_code{};
};

/// The event loop.  listen() then run() from one thread; begin_drain(),
/// shutdown(), set_ready(), stats(), and the observers are safe from any
/// thread (and begin_drain/shutdown from a signal-adjacent context — they
/// only set atomics and write one byte to a wake pipe).
class PlanServer {
 public:
  PlanServer(PlanningService& service, core::Platform platform,
             ServerOptions options = {});
  ~PlanServer();

  PlanServer(const PlanServer&) = delete;
  PlanServer& operator=(const PlanServer&) = delete;

  /// Bind + listen.  Throws ServeError on socket failure.  Returns the
  /// bound port (resolves an ephemeral request).
  std::uint16_t listen();

  /// Run the event loop until drained or shut down.  `external_drain` is
  /// polled every loop iteration (when set) so a SIGTERM flag can trigger
  /// the same graceful drain a DRAIN frame does.
  void run(const std::function<bool()>& external_drain = {});

  /// Begin graceful drain: stop accepting, answer STOPPING to new plan
  /// requests, let in-flight work finish and flush, snapshot, return.
  void begin_drain();

  /// Hard stop: run() returns as soon as the loop notices (in-flight
  /// futures are abandoned to the service, connections closed).
  void shutdown();

  void set_ready(bool ready);

  [[nodiscard]] std::uint16_t port() const { return port_; }
  [[nodiscard]] bool ready() const {
    return ready_.load(std::memory_order_acquire);
  }
  [[nodiscard]] bool draining() const {
    return draining_.load(std::memory_order_acquire);
  }
  [[nodiscard]] ServerStats stats() const;
  [[nodiscard]] std::size_t connection_count() const;

  /// The shard identity gossiped to peers (valid after listen()).
  [[nodiscard]] Endpoint advertised_endpoint() const;
  /// This process's incarnation (fresh per construction; a restart always
  /// outranks every record of the former life).
  [[nodiscard]] std::uint64_t incarnation() const;
  [[nodiscard]] MembershipView membership_view() const;
  [[nodiscard]] std::uint64_t membership_epoch() const;

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
  std::uint16_t port_ = 0;
  std::atomic<bool> ready_{false};
  std::atomic<bool> draining_{false};
};

}  // namespace foscil::serve::net
