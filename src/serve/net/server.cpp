#include "serve/net/server.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <future>
#include <iostream>
#include <system_error>
#include <thread>
#include <unordered_map>
#include <vector>

#include "util/contracts.hpp"

namespace foscil::serve::net {

namespace {

using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

/// Monotonic seconds for the membership table (same clock everywhere).
double mono_seconds() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

int millis_until(Clock::time_point deadline) {
  const double s = seconds_between(Clock::now(), deadline);
  if (s <= 0.0) return 0;
  return static_cast<int>(s * 1000.0) + 1;
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

/// One readiness event.
struct IoEvent {
  int fd = -1;
  bool readable = false;
  bool writable = false;
  bool broken = false;  ///< HUP/ERR — close without ceremony
};

/// Level-triggered epoll readiness, so a partial read or write simply
/// re-arms.  A failing epoll_create1 throws std::system_error when the
/// server is built.
class Poller {
 public:
  Poller() : epoll_fd_(::epoll_create1(0)) {
    if (epoll_fd_ < 0)
      throw std::system_error(errno, std::generic_category(),
                              "epoll_create1");
  }
  ~Poller() { ::close(epoll_fd_); }
  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  void add(int fd, bool want_read, bool want_write) {
    interest_[fd] = {want_read, want_write};
    epoll_event ev{};
    ev.events = events_of(want_read, want_write);
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
  }

  void update(int fd, bool want_read, bool want_write) {
    auto it = interest_.find(fd);
    if (it == interest_.end()) return;
    if (it->second.read == want_read && it->second.write == want_write) return;
    it->second = {want_read, want_write};
    epoll_event ev{};
    ev.events = events_of(want_read, want_write);
    ev.data.fd = fd;
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev);
  }

  void remove(int fd) {
    interest_.erase(fd);
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  }

  void wait(std::vector<IoEvent>& events, int timeout_ms) {
    events.clear();
    std::array<epoll_event, 64> raw{};
    const int n = ::epoll_wait(epoll_fd_, raw.data(),
                               static_cast<int>(raw.size()), timeout_ms);
    for (int i = 0; i < n; ++i) {
      const epoll_event& e = raw[static_cast<std::size_t>(i)];
      IoEvent ev;
      ev.fd = e.data.fd;
      ev.readable = (e.events & EPOLLIN) != 0;
      ev.writable = (e.events & EPOLLOUT) != 0;
      ev.broken = (e.events & (EPOLLERR | EPOLLHUP)) != 0;
      events.push_back(ev);
    }
  }

 private:
  struct Interest {
    bool read = false;
    bool write = false;
  };

  static std::uint32_t events_of(bool want_read, bool want_write) {
    return (want_read ? EPOLLIN : 0u) | (want_write ? EPOLLOUT : 0u);
  }
  int epoll_fd_;
  std::unordered_map<int, Interest> interest_;
};

// ---- blocking peer I/O for the handoff streamer ---------------------------
// The streamer runs on its own thread, so it uses plain deadline-bounded
// blocking sockets instead of threading through the event loop.

/// Connect to `peer` within `timeout_s`; returns a nonblocking fd or -1.
int dial_peer(const Endpoint& peer, double timeout_s) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(peer.port);
  if (::inet_pton(AF_INET, peer.host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return -1;
  }
  set_nonblocking(fd);
  const int rc =
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && errno != EINPROGRESS) {
    ::close(fd);
    return -1;
  }
  if (rc != 0) {
    pollfd p{};
    p.fd = fd;
    p.events = POLLOUT;
    if (::poll(&p, 1, static_cast<int>(timeout_s * 1000.0) + 1) <= 0) {
      ::close(fd);
      return -1;
    }
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 || err != 0) {
      ::close(fd);
      return -1;
    }
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool send_all_by(int fd, const std::string& bytes, Clock::time_point deadline) {
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      const int ms = millis_until(deadline);
      if (ms <= 0) return false;
      pollfd p{};
      p.fd = fd;
      p.events = POLLOUT;
      if (::poll(&p, 1, ms) <= 0) return false;
      continue;
    }
    return false;
  }
  return true;
}

bool recv_frame_by(int fd, FrameAssembler& assembler, Frame* frame,
                   Clock::time_point deadline) {
  for (;;) {
    const FrameAssembler::Result result = assembler.next(frame);
    if (result == FrameAssembler::Result::kFrame) return true;
    if (result == FrameAssembler::Result::kBad) return false;
    const int ms = millis_until(deadline);
    if (ms <= 0) return false;
    pollfd p{};
    p.fd = fd;
    p.events = POLLIN;
    if (::poll(&p, 1, ms) <= 0) return false;
    char buf[16384];
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n > 0) {
      assembler.feed(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return false;
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    return false;
  }
}

}  // namespace

void ServerOptions::check() const {
  FOSCIL_EXPECTS(max_connections >= 1);
  FOSCIL_EXPECTS(max_in_flight_per_connection >= 1);
  FOSCIL_EXPECTS(max_body_bytes >= 1);
  FOSCIL_EXPECTS(max_body_bytes <= kMaxBodyBytes);
  FOSCIL_EXPECTS(max_outbound_bytes >= kFrameHeaderSize);
  FOSCIL_EXPECTS(read_idle_timeout_s > 0.0);
  FOSCIL_EXPECTS(write_stall_timeout_s > 0.0);
  FOSCIL_EXPECTS(ring_vnodes >= 1);
  FOSCIL_EXPECTS(handoff_batch_plans >= 1);
  FOSCIL_EXPECTS(handoff_io_timeout_s > 0.0);
  FOSCIL_EXPECTS(handoff_retry_interval_s > 0.0);
  membership.check();
}

struct PlanServer::Impl {
  Impl(PlanningService& svc, core::Platform plat, ServerOptions opts,
       std::atomic<bool>* ready_flag, std::atomic<bool>* draining_flag)
      : service(svc),
        platform(std::move(plat)),
        options(std::move(opts)),
        platform_fp(platform_fingerprint(platform)),
        ready(ready_flag),
        draining(draining_flag),
        membership(options.membership, {}, mono_seconds()) {}

  struct Pending {
    std::uint64_t request_id = 0;
    std::future<PlanResponse> future;
  };

  struct Connection {
    int fd = -1;
    FrameAssembler assembler;
    std::string out;
    std::deque<Pending> pending;
    Clock::time_point last_read{};
    Clock::time_point last_write_progress{};
    Clock::time_point partial_since{};
    bool has_partial = false;
    bool condemned = false;  ///< flush out, then close; never read again

    explicit Connection(std::uint32_t max_body) : assembler(max_body) {}
  };

  PlanningService& service;
  core::Platform platform;
  ServerOptions options;
  CacheKey platform_fp;
  Poller poller;
  std::atomic<bool>* ready;
  std::atomic<bool>* draining;

  int listen_fd = -1;
  int wake_read = -1;
  int wake_write = -1;
  std::unordered_map<int, Connection> conns;
  std::atomic<bool> stop{false};
  std::atomic<bool> drain_requested{false};
  std::atomic<std::size_t> open_connections{0};
  bool listener_closed = false;

  // Membership: the table is rumor- and contact-driven on the server (no
  // tick — see ServerOptions::membership).  `self_endpoint` is fixed at
  // listen(); `incarnation` at construction, so a restarted shard always
  // announces a strictly larger one.
  MembershipTable membership;
  Endpoint self_endpoint;
  /// Atomic: bumped by SWIM refutation on the event loop, read by the
  /// handoff streamer for its gossip hello.
  std::atomic<std::uint64_t> incarnation{fresh_incarnation()};

  // Handoff streamer: one long-lived worker, kicked whenever a merge grows
  // the live set.  It owns its own blocking sockets; it shares only the
  // membership table (mutexed), the cache (shard locks), and counters.
  std::thread handoff_thread;
  std::mutex handoff_mutex;
  std::condition_variable handoff_cv;
  bool handoff_pending = false;
  bool handoff_stop = false;
  /// Per-peer epoch whose entries were fully streamed (or were empty);
  /// streamer thread only.  A sweep skips converged peers, so the retry
  /// cadence costs nothing once the fleet is caught up.
  std::unordered_map<std::string, std::uint64_t> handoff_done_epoch;

  std::atomic<std::uint64_t> accepted{0};
  std::atomic<std::uint64_t> closed{0};
  std::atomic<std::uint64_t> shed_connections{0};
  std::atomic<std::uint64_t> frames_in{0};
  std::atomic<std::uint64_t> frames_out{0};
  std::atomic<std::uint64_t> malformed_closes{0};
  std::atomic<std::uint64_t> timeout_closes{0};
  std::atomic<std::uint64_t> requests{0};
  std::atomic<std::uint64_t> responses{0};
  std::atomic<std::uint64_t> drains{0};
  std::atomic<std::uint64_t> gossip_frames{0};
  std::atomic<std::uint64_t> handoff_batches_received{0};
  std::atomic<std::uint64_t> handoff_plans_received{0};
  std::atomic<std::uint64_t> handoff_plans_skipped{0};
  std::atomic<std::uint64_t> stale_handoff_rejections{0};
  std::atomic<std::uint64_t> handoff_batches_sent{0};
  std::atomic<std::uint64_t> handoff_plans_sent{0};
  std::atomic<std::uint64_t> handoff_send_failures{0};
  std::array<std::atomic<std::uint64_t>, kStatusCodeCount> statuses{};

  std::uint64_t warm_plans = 0;
  std::uint64_t warm_failures = 0;

  void wake() {
    if (wake_write < 0) return;
    const char byte = 'w';
    // Best-effort: a full pipe already guarantees a pending wake.
    [[maybe_unused]] const ssize_t n = ::write(wake_write, &byte, 1);
  }

  // ---- outbound -----------------------------------------------------------

  void enqueue_frame(Connection& conn, FrameType type,
                     std::uint64_t request_id, const std::string& body,
                     Clock::time_point now) {
    if (conn.out.empty()) conn.last_write_progress = now;
    conn.out += encode_frame(type, request_id, body);
    frames_out.fetch_add(1, std::memory_order_relaxed);
    poller.update(conn.fd, !conn.condemned, true);
  }

  void enqueue_status(Connection& conn, std::uint64_t request_id,
                      StatusCode code, double retry_after_s,
                      std::string message, Clock::time_point now) {
    statuses[status_index(code)].fetch_add(1, std::memory_order_relaxed);
    WireStatus status;
    status.code = code;
    status.retry_after_s = retry_after_s;
    status.message = std::move(message);
    enqueue_frame(conn, FrameType::kStatus, request_id, encode_status(status),
                  now);
  }

  void condemn(Connection& conn) {
    // The stream can no longer be trusted to be frame-aligned: flush the
    // best-effort diagnosis already buffered, then close.  Reading stops
    // immediately and in-flight answers are dropped (they have no valid
    // stream to land on).
    conn.condemned = true;
    conn.pending.clear();
    poller.update(conn.fd, false, true);
  }

  void close_connection(int fd) {
    auto it = conns.find(fd);
    if (it == conns.end()) return;
    poller.remove(fd);
    ::close(fd);
    conns.erase(it);
    closed.fetch_add(1, std::memory_order_relaxed);
    open_connections.store(conns.size(), std::memory_order_relaxed);
  }

  // ---- accept -------------------------------------------------------------

  void accept_ready(Clock::time_point now) {
    for (;;) {
      const int fd = ::accept(listen_fd, nullptr, nullptr);
      if (fd < 0) return;  // EAGAIN, or a transient accept error: try later
      if (conns.size() >= options.max_connections) {
        shed_one(fd);
        continue;
      }
      set_nonblocking(fd);
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      auto [it, inserted] =
          conns.emplace(fd, Connection(options.max_body_bytes));
      it->second.fd = fd;
      it->second.last_read = now;
      it->second.last_write_progress = now;
      poller.add(fd, true, false);
      accepted.fetch_add(1, std::memory_order_relaxed);
      open_connections.store(conns.size(), std::memory_order_relaxed);
    }
  }

  /// Over the connection cap: tell the peer why (single best-effort
  /// nonblocking send on the fresh socket) and close.
  void shed_one(int fd) {
    shed_connections.fetch_add(1, std::memory_order_relaxed);
    statuses[status_index(StatusCode::kShed)].fetch_add(
        1, std::memory_order_relaxed);
    WireStatus status;
    status.code = StatusCode::kShed;
    status.retry_after_s = 0.2;
    status.message = "connection limit reached";
    const std::string frame =
        encode_frame(FrameType::kStatus, 0, encode_status(status));
    set_nonblocking(fd);
    [[maybe_unused]] const ssize_t n =
        ::send(fd, frame.data(), frame.size(), MSG_NOSIGNAL);
    ::close(fd);
  }

  // ---- inbound ------------------------------------------------------------

  /// Returns false when the connection must be closed now.
  bool handle_readable(Connection& conn, Clock::time_point now) {
    if (conn.condemned) return true;  // stopped reading already
    char buf[16384];
    for (;;) {
      const ssize_t n = ::recv(conn.fd, buf, sizeof(buf), 0);
      if (n > 0) {
        conn.last_read = now;
        conn.assembler.feed(buf, static_cast<std::size_t>(n));
        if (!process_frames(conn, now)) return true;  // condemned, flushing
        if (static_cast<std::size_t>(n) < sizeof(buf)) break;
        continue;
      }
      if (n == 0) return false;  // orderly peer close
      if (errno == EAGAIN || errno == EWOULDBLOCK) break;
      if (errno == EINTR) continue;
      return false;  // hard socket error
    }
    // Slow-loris bookkeeping: a partial frame parked in the assembler
    // starts (or continues) the read-idle countdown.
    if (conn.assembler.buffered() > 0) {
      if (!conn.has_partial) {
        conn.has_partial = true;
        conn.partial_since = now;
      }
    } else {
      conn.has_partial = false;
    }
    return true;
  }

  /// Drain every complete frame out of the assembler.  Returns false once
  /// the connection has been condemned (stop touching the assembler).
  bool process_frames(Connection& conn, Clock::time_point now) {
    Frame frame;
    for (;;) {
      const FrameAssembler::Result result = conn.assembler.next(&frame);
      if (result == FrameAssembler::Result::kNeedMore) return true;
      if (result == FrameAssembler::Result::kBad) {
        malformed_closes.fetch_add(1, std::memory_order_relaxed);
        enqueue_status(conn, 0, conn.assembler.reply(), 0.0,
                       conn.assembler.defect(), now);
        condemn(conn);
        return false;
      }
      frames_in.fetch_add(1, std::memory_order_relaxed);
      if (!handle_frame(conn, frame, now)) return false;
    }
  }

  bool handle_frame(Connection& conn, const Frame& frame,
                    Clock::time_point now) {
    switch (frame.type) {
      case FrameType::kPlanRequest:
        handle_plan_request(conn, frame, now);
        return true;
      case FrameType::kHealth:
        enqueue_frame(conn, FrameType::kHealthReply, frame.request_id,
                      encode_health(health_info()), now);
        return true;
      case FrameType::kReady: {
        ReadyInfo info;
        info.ready = ready->load(std::memory_order_acquire) ? 1 : 0;
        info.draining = draining->load(std::memory_order_acquire) ? 1 : 0;
        info.warm_plans = warm_plans;
        info.load_failures = warm_failures;
        enqueue_frame(conn, FrameType::kReadyReply, frame.request_id,
                      encode_ready(info), now);
        return true;
      }
      case FrameType::kDrain:
        drains.fetch_add(1, std::memory_order_relaxed);
        enqueue_frame(conn, FrameType::kDrainReply, frame.request_id, "", now);
        drain_requested.store(true, std::memory_order_release);
        return true;
      case FrameType::kGossip:
        handle_gossip(conn, frame, now);
        return true;
      case FrameType::kHandoff:
        handle_handoff(conn, frame, now);
        return true;
      default:
        // A server-to-client frame arriving at the server means the peer
        // is not speaking the protocol; same terminal handling as garbage.
        malformed_closes.fetch_add(1, std::memory_order_relaxed);
        enqueue_status(conn, frame.request_id, StatusCode::kMalformed, 0.0,
                       "unexpected frame type for a server", now);
        condemn(conn);
        return false;
    }
  }

  void handle_plan_request(Connection& conn, const Frame& frame,
                           Clock::time_point now) {
    WirePlanRequest wire;
    try {
      wire = decode_plan_request(frame.body);
    } catch (const MalformedFrameError& error) {
      malformed_closes.fetch_add(1, std::memory_order_relaxed);
      enqueue_status(conn, frame.request_id, StatusCode::kMalformed, 0.0,
                     error.what(), now);
      condemn(conn);
      return;
    }
    if (!ready->load(std::memory_order_acquire)) {
      enqueue_status(conn, frame.request_id, StatusCode::kNotReady, 0.05,
                     "warming up", now);
      return;
    }
    if (draining->load(std::memory_order_acquire) ||
        drain_requested.load(std::memory_order_acquire)) {
      enqueue_status(conn, frame.request_id, StatusCode::kStopping, 0.1,
                     "draining", now);
      return;
    }
    if (!(wire.platform_fp == platform_fp)) {
      enqueue_status(conn, frame.request_id, StatusCode::kPlatformMismatch,
                     0.0, "platform fingerprint does not match this shard",
                     now);
      return;
    }
    if (wire.t_max_c <= platform.t_ambient_c) {
      // Semantic reject, not a framing defect: answer and keep the
      // connection (a well-formed stream stays trusted).  Rejecting here
      // keeps an impossible thermal budget from burning a worker and
      // poisoning the per-key breaker.
      enqueue_status(conn, frame.request_id, StatusCode::kMalformed, 0.0,
                     "t_max_c at or below ambient", now);
      return;
    }
    if (conn.pending.size() >= in_flight_cap()) {
      enqueue_status(conn, frame.request_id, StatusCode::kShed,
                     service.stats().retry_after_hint_s,
                     "per-connection in-flight limit", now);
      return;
    }

    PlanRequest request;
    request.platform = platform;
    request.t_max_c = wire.t_max_c;
    request.kind = wire.kind;
    request.ao = wire.ao;
    request.pco = wire.pco;
    request.deadline_s = wire.deadline_s;
    try {
      Pending pending;
      pending.request_id = frame.request_id;
      pending.future = service.submit(std::move(request));
      conn.pending.push_back(std::move(pending));
      requests.fetch_add(1, std::memory_order_relaxed);
    } catch (const std::exception& error) {
      enqueue_status(conn, frame.request_id, status_code_of(error),
                     retry_after_of(error), error.what(), now);
    }
  }

  void handle_gossip(Connection& conn, const Frame& frame,
                     Clock::time_point now) {
    WireGossip gossip;
    try {
      gossip = decode_gossip(frame.body);
    } catch (const MalformedFrameError& error) {
      malformed_closes.fetch_add(1, std::memory_order_relaxed);
      enqueue_status(conn, frame.request_id, StatusCode::kMalformed, 0.0,
                     error.what(), now);
      condemn(conn);
      return;
    }
    gossip_frames.fetch_add(1, std::memory_order_relaxed);
    const double mono_now = mono_seconds();
    bool live_changed = membership.merge(gossip.view, mono_now);
    if (gossip.sender_is_shard != 0)
      live_changed = membership.observe_alive(gossip.sender,
                                              gossip.sender_incarnation,
                                              mono_now) ||
                     live_changed;
    // SWIM refutation: a rumor declaring *this* shard suspect/dead at (or
    // past) its current incarnation would otherwise be irrefutable — death
    // at an incarnation is final, so a shard falsely condemned during a
    // partition could never rejoin the ring after the heal.  Answering
    // with a strictly larger incarnation outranks the rumor everywhere it
    // has spread.
    for (const MemberRecord& record : gossip.view.members) {
      if (record.endpoint != self_endpoint ||
          record.health == MemberHealth::kAlive)
        continue;
      const std::uint64_t current =
          incarnation.load(std::memory_order_relaxed);
      if (record.incarnation >= current) {
        incarnation.store(record.incarnation + 1, std::memory_order_relaxed);
        membership.set_self(self_endpoint, record.incarnation + 1);
      }
    }
    // A grown or changed live set may have moved key ranges off this
    // shard: wake the streamer to push the affected hot entries to their
    // new owner.
    if (live_changed) schedule_handoff();

    WireGossipReply reply;
    reply.responder = self_endpoint;
    reply.responder_incarnation =
        incarnation.load(std::memory_order_relaxed);
    reply.view = membership.view();
    enqueue_frame(conn, FrameType::kGossipReply, frame.request_id,
                  encode_gossip_reply(reply), now);
  }

  void handle_handoff(Connection& conn, const Frame& frame,
                      Clock::time_point now) {
    WireHandoff handoff;
    try {
      handoff = decode_handoff(frame.body);
    } catch (const MalformedFrameError& error) {
      malformed_closes.fetch_add(1, std::memory_order_relaxed);
      enqueue_status(conn, frame.request_id, StatusCode::kMalformed, 0.0,
                     error.what(), now);
      condemn(conn);
      return;
    }
    handoff_batches_received.fetch_add(1, std::memory_order_relaxed);
    // The epoch fence: a sender whose view of the topology is older than
    // ours is a stale owner (partitioned away across a membership change).
    // Nothing it streams may land — not even insert-if-absent, because an
    // absent key proves nothing about where that key now belongs.
    if (handoff.epoch < membership.epoch()) {
      stale_handoff_rejections.fetch_add(1, std::memory_order_relaxed);
      enqueue_status(conn, frame.request_id, StatusCode::kStaleEpoch, 0.0,
                     "handoff epoch " + std::to_string(handoff.epoch) +
                         " behind local epoch " +
                         std::to_string(membership.epoch()),
                     now);
      return;  // well-formed stream: the connection stays trusted
    }
    // Adopt the fence so our own later handoffs carry at least this epoch.
    membership.merge(MembershipView{handoff.epoch, {}}, mono_seconds());

    WireHandoffReply reply;
    for (ServedPlan& plan : handoff.plans) {
      if (service.insert_plan_if_absent(
              std::make_shared<const ServedPlan>(std::move(plan))))
        ++reply.accepted;
      else
        ++reply.skipped_existing;
    }
    handoff_plans_received.fetch_add(reply.accepted,
                                     std::memory_order_relaxed);
    handoff_plans_skipped.fetch_add(reply.skipped_existing,
                                    std::memory_order_relaxed);
    reply.epoch = membership.epoch();
    enqueue_frame(conn, FrameType::kHandoffReply, frame.request_id,
                  encode_handoff_reply(reply), now);
  }

  /// Per-connection admission shrinks with the service's overload ladder
  /// so a client fleet feels DEGRADED/SHED as early backpressure.
  std::size_t in_flight_cap() const {
    const std::size_t full = options.max_in_flight_per_connection;
    switch (service.load_state()) {
      case LoadState::kNormal:
        return full;
      case LoadState::kDegraded:
        return full >= 2 ? full / 2 : 1;
      case LoadState::kShed:
        return 1;
    }
    return full;
  }

  HealthInfo health_info() {
    const ServiceStats service_stats = service.stats();
    HealthInfo info;
    info.submitted = service_stats.submitted;
    info.completed = service_stats.completed;
    info.planned = service_stats.planned;
    info.fast_path_hits = service_stats.fast_path_hits;
    info.cache_entries = service_stats.cache.entries;
    info.cache_hits = service_stats.cache.hits;
    info.cache_lookups = service_stats.cache.lookups();
    info.snapshot_saves = service_stats.snapshot_saves;
    info.snapshot_loads = service_stats.snapshot_loads;
    info.load_state = static_cast<std::uint16_t>(service_stats.load_state);
    info.ready = ready->load(std::memory_order_acquire) ? 1 : 0;
    info.draining = draining->load(std::memory_order_acquire) ? 1 : 0;
    info.connections = conns.size();
    info.ewma_plan_seconds = service_stats.ewma_plan_seconds;
    info.retry_after_hint_s = service_stats.retry_after_hint_s;
    // The service's own rejection breakdown plus the framing-layer codes
    // only this tier can produce.
    info.rejections_by_code = service_stats.rejections_by_code;
    for (std::size_t i = 0; i < kStatusCodeCount; ++i)
      info.rejections_by_code[i] +=
          statuses[i].load(std::memory_order_relaxed);
    return info;
  }

  // ---- handoff streamer ---------------------------------------------------

  void start_handoff_thread() {
    if (!options.handoff_enabled || handoff_thread.joinable()) return;
    handoff_thread = std::thread([this] { handoff_loop(); });
  }

  void stop_handoff_thread() {
    {
      const std::lock_guard<std::mutex> lock(handoff_mutex);
      handoff_stop = true;
    }
    handoff_cv.notify_all();
    if (handoff_thread.joinable()) handoff_thread.join();
  }

  void schedule_handoff() {
    {
      const std::lock_guard<std::mutex> lock(handoff_mutex);
      handoff_pending = true;
    }
    handoff_cv.notify_all();
  }

  bool handoff_stopping() {
    const std::lock_guard<std::mutex> lock(handoff_mutex);
    return handoff_stop;
  }

  void handoff_loop() {
    const auto retry = std::chrono::duration_cast<Clock::duration>(
        std::chrono::duration<double>(options.handoff_retry_interval_s));
    std::unique_lock<std::mutex> lock(handoff_mutex);
    for (;;) {
      handoff_cv.wait_for(lock, retry,
                          [this] { return handoff_pending || handoff_stop; });
      if (handoff_stop) return;
      handoff_pending = false;
      lock.unlock();
      stream_handoffs();
      lock.lock();
    }
  }

  /// Push every cached plan whose ring owner (under the *current* live
  /// set) is another shard to that shard.  Batches are idempotent on the
  /// receiving side (insert-if-absent) and epoch-fenced, so re-running
  /// after any membership change — or on the retry sweep, when an earlier
  /// attempt failed — is always safe.
  void stream_handoffs() {
    const std::vector<Endpoint> live = membership.live_endpoints();
    if (live.size() < 2) return;
    std::size_t self_index = live.size();
    for (std::size_t i = 0; i < live.size(); ++i)
      if (live[i] == self_endpoint) self_index = i;
    if (self_index == live.size()) return;  // not in our own live view yet
    const HashRing ring(live, options.ring_vnodes);

    std::vector<std::vector<ServedPlan>> buckets(live.size());
    for (const auto& plan : service.cache().export_entries()) {
      const std::size_t owner = ring.owner(plan->key);
      if (owner != self_index) buckets[owner].push_back(*plan);
    }
    for (std::size_t i = 0; i < live.size(); ++i) {
      if (i == self_index) continue;
      if (handoff_stopping()) return;
      // Skip peers already caught up to the current epoch: the sweep is
      // free once converged.  The epoch is captured *before* streaming so
      // a concurrent membership change forces another pass.
      const std::uint64_t epoch_before = membership.epoch();
      const std::string label = live[i].label();
      const auto done = handoff_done_epoch.find(label);
      if (done != handoff_done_epoch.end() && done->second == epoch_before)
        continue;
      if (buckets[i].empty() || send_handoff_to(live[i], buckets[i]))
        handoff_done_epoch[label] = epoch_before;
      else
        handoff_send_failures.fetch_add(1, std::memory_order_relaxed);
    }
  }

  /// One peer conversation: a gossip round trip first (converges both
  /// epochs, so the fence below carries max(ours, theirs)), then the plan
  /// batches.  Any defect — timeout, protocol surprise, a Status reply
  /// (STALE_EPOCH included) — abandons the peer; the next membership
  /// change retries from scratch.
  bool send_handoff_to(const Endpoint& peer,
                       const std::vector<ServedPlan>& plans) {
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(
                               options.handoff_io_timeout_s));
    const int fd = dial_peer(peer, options.handoff_io_timeout_s);
    if (fd < 0) return false;

    FrameAssembler assembler;
    Frame reply;
    std::uint64_t request_id = 1;

    WireGossip hello;
    hello.sender_is_shard = 1;
    hello.sender = self_endpoint;
    hello.sender_incarnation = incarnation;
    hello.view = membership.view();
    if (!send_all_by(fd,
                     encode_frame(FrameType::kGossip, request_id,
                                  encode_gossip(hello)),
                     deadline) ||
        !recv_frame_by(fd, assembler, &reply, deadline) ||
        reply.type != FrameType::kGossipReply) {
      ::close(fd);
      return false;
    }
    try {
      membership.merge(decode_gossip_reply(reply.body).view, mono_seconds());
    } catch (const MalformedFrameError&) {
      ::close(fd);
      return false;
    }

    for (std::size_t offset = 0; offset < plans.size();
         offset += options.handoff_batch_plans) {
      const std::size_t count =
          std::min(options.handoff_batch_plans, plans.size() - offset);
      WireHandoff batch;
      batch.epoch = membership.epoch();
      batch.plans.assign(plans.begin() + static_cast<std::ptrdiff_t>(offset),
                         plans.begin() +
                             static_cast<std::ptrdiff_t>(offset + count));
      ++request_id;
      if (!send_all_by(fd,
                       encode_frame(FrameType::kHandoff, request_id,
                                    encode_handoff(batch)),
                       deadline) ||
          !recv_frame_by(fd, assembler, &reply, deadline) ||
          reply.type != FrameType::kHandoffReply) {
        ::close(fd);
        return false;
      }
      try {
        const WireHandoffReply outcome = decode_handoff_reply(reply.body);
        handoff_batches_sent.fetch_add(1, std::memory_order_relaxed);
        handoff_plans_sent.fetch_add(outcome.accepted,
                                     std::memory_order_relaxed);
      } catch (const MalformedFrameError&) {
        ::close(fd);
        return false;
      }
    }
    ::close(fd);
    return true;
  }

  // ---- completion and writes ---------------------------------------------

  void pump_futures(Clock::time_point now) {
    std::vector<int> overflowed;
    for (auto& [fd, conn] : conns) {
      for (auto it = conn.pending.begin(); it != conn.pending.end();) {
        if (it->future.wait_for(std::chrono::seconds(0)) !=
            std::future_status::ready) {
          ++it;
          continue;
        }
        const std::uint64_t request_id = it->request_id;
        try {
          const PlanResponse response = it->future.get();
          WirePlanResponse wire;
          wire.cache_hit = response.cache_hit;
          wire.degraded = response.plan->degraded;
          wire.server_seconds = response.total_seconds;
          wire.plan = *response.plan;
          enqueue_frame(conn, FrameType::kPlanResponse, request_id,
                        encode_plan_response(wire), now);
          responses.fetch_add(1, std::memory_order_relaxed);
        } catch (const std::exception& error) {
          enqueue_status(conn, request_id, status_code_of(error),
                         retry_after_of(error), error.what(), now);
        }
        it = conn.pending.erase(it);
      }
      if (conn.out.size() > options.max_outbound_bytes)
        overflowed.push_back(fd);
    }
    for (const int fd : overflowed) {
      // A reader this slow would grow the buffer without bound; treat it
      // like any other stalled peer.
      timeout_closes.fetch_add(1, std::memory_order_relaxed);
      close_connection(fd);
    }
  }

  /// Returns false when the connection must be closed now.
  bool handle_writable(Connection& conn, Clock::time_point now) {
    while (!conn.out.empty()) {
      const ssize_t n =
          ::send(conn.fd, conn.out.data(), conn.out.size(), MSG_NOSIGNAL);
      if (n > 0) {
        conn.out.erase(0, static_cast<std::size_t>(n));
        conn.last_write_progress = now;
        continue;
      }
      if (errno == EAGAIN || errno == EWOULDBLOCK) return true;
      if (errno == EINTR) continue;
      return false;  // hard socket error
    }
    if (conn.condemned) return false;  // diagnosis flushed; close
    poller.update(conn.fd, true, false);
    return true;
  }

  void enforce_timeouts(Clock::time_point now) {
    std::vector<int> expired;
    for (const auto& [fd, conn] : conns) {
      const bool read_stalled =
          conn.has_partial && seconds_between(conn.partial_since, now) >
                                  options.read_idle_timeout_s;
      const bool write_stalled =
          !conn.out.empty() &&
          seconds_between(conn.last_write_progress, now) >
              options.write_stall_timeout_s;
      const bool idle =
          options.idle_timeout_s > 0.0 && conn.pending.empty() &&
          conn.out.empty() &&
          seconds_between(conn.last_read, now) > options.idle_timeout_s;
      if (read_stalled || write_stalled || idle) expired.push_back(fd);
    }
    for (const int fd : expired) {
      timeout_closes.fetch_add(1, std::memory_order_relaxed);
      close_connection(fd);
    }
  }

  // ---- loop ---------------------------------------------------------------

  int loop_timeout_ms(bool drain_engaged) const {
    for (const auto& [fd, conn] : conns)
      if (!conn.pending.empty()) return 2;  // futures resolve off-loop
    if (drain_engaged) return 2;
    return 25;
  }

  void run_loop(const std::function<bool()>& external_drain) {
    FOSCIL_EXPECTS(listen_fd >= 0);  // listen() first

    // Warm-up sequencing: the socket is already open (peers connect and
    // wait in the listen backlog), the restore attempt runs, then READY
    // flips.  A corrupt or missing snapshot degrades to a cold start —
    // warm-up must never prevent serving.
    if (!options.manual_ready) {
      if (!options.warm_snapshot_path.empty()) {
        const std::size_t before = service.cache().size();
        try {
          service.load_snapshot_file(options.warm_snapshot_path);
          warm_plans = service.cache().size() - before;
        } catch (const SnapshotError& error) {
          ++warm_failures;
          std::cerr << "foscil-net: warm start failed (serving cold): "
                    << error.what() << "\n";
        }
      }
      ready->store(true, std::memory_order_release);
    }

    std::vector<IoEvent> events;
    bool drain_engaged = false;
    while (!stop.load(std::memory_order_acquire)) {
      if (!drain_engaged &&
          (drain_requested.load(std::memory_order_acquire) ||
           (external_drain && external_drain()))) {
        drain_engaged = true;
        draining->store(true, std::memory_order_release);
        if (!listener_closed) {
          poller.remove(listen_fd);
          ::close(listen_fd);
          listen_fd = -1;
          listener_closed = true;
        }
      }

      // Drain completion: nothing in flight, nothing left to flush.
      if (drain_engaged) {
        bool quiet = true;
        for (const auto& [fd, conn] : conns)
          if (!conn.pending.empty() || !conn.out.empty()) quiet = false;
        if (quiet) break;
      }

      poller.wait(events, loop_timeout_ms(drain_engaged));
      const Clock::time_point now = Clock::now();

      for (const IoEvent& event : events) {
        if (event.fd == wake_read) {
          char sink[64];
          while (::read(wake_read, sink, sizeof(sink)) > 0) {
          }
          continue;
        }
        if (event.fd == listen_fd && !listener_closed) {
          accept_ready(now);
          continue;
        }
        auto it = conns.find(event.fd);
        if (it == conns.end()) continue;
        if (event.broken) {
          close_connection(event.fd);
          continue;
        }
        bool alive = true;
        if (event.readable) alive = handle_readable(it->second, now);
        if (alive && (event.writable || !it->second.out.empty()))
          alive = handle_writable(it->second, now);
        if (!alive) close_connection(event.fd);
      }

      pump_futures(now);
      enforce_timeouts(now);
    }

    // Hard stop or drain complete: close everything still open.
    std::vector<int> fds;
    fds.reserve(conns.size());
    for (const auto& [fd, conn] : conns) fds.push_back(fd);
    for (const int fd : fds) close_connection(fd);
    if (!listener_closed && listen_fd >= 0) {
      poller.remove(listen_fd);
      ::close(listen_fd);
      listen_fd = -1;
      listener_closed = true;
    }

    // The drain contract ends with one snapshot flush so a planned restart
    // starts warm; a hard shutdown() skips it.  The flush is serialized
    // against any periodic flusher by the service's flush mutex.
    if (drain_engaged && !options.drain_snapshot_path.empty()) {
      try {
        service.save_snapshot_file(options.drain_snapshot_path);
      } catch (const SnapshotError& error) {
        std::cerr << "foscil-net: drain snapshot failed: " << error.what()
                  << "\n";
      }
    }
  }
};

PlanServer::PlanServer(PlanningService& service, core::Platform platform,
                       ServerOptions options)
    : impl_(std::make_unique<Impl>(service, std::move(platform),
                                   std::move(options), &ready_, &draining_)) {
  impl_->options.check();
  FOSCIL_EXPECTS(impl_->platform.model != nullptr);
}

PlanServer::~PlanServer() {
  shutdown();
  Impl& impl = *impl_;
  impl.stop_handoff_thread();
  for (auto& [fd, conn] : impl.conns) ::close(fd);
  impl.conns.clear();
  if (impl.listen_fd >= 0) ::close(impl.listen_fd);
  if (impl.wake_read >= 0) ::close(impl.wake_read);
  if (impl.wake_write >= 0) ::close(impl.wake_write);
}

std::uint16_t PlanServer::listen() {
  Impl& impl = *impl_;
  FOSCIL_EXPECTS(impl.listen_fd < 0);

  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) != 0)
    throw ServeError("net server: cannot create wake pipe: " +
                     std::string(std::strerror(errno)));
  impl.wake_read = pipe_fds[0];
  impl.wake_write = pipe_fds[1];
  set_nonblocking(impl.wake_read);
  set_nonblocking(impl.wake_write);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0)
    throw ServeError("net server: cannot create socket: " +
                     std::string(std::strerror(errno)));
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(impl.options.listen_port);
  if (::inet_pton(AF_INET, impl.options.listen_host.c_str(),
                  &addr.sin_addr) != 1) {
    ::close(fd);
    throw ServeError("net server: bad listen host " +
                     impl.options.listen_host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw ServeError("net server: cannot bind " + impl.options.listen_host +
                     ":" + std::to_string(impl.options.listen_port) + ": " +
                     why);
  }
  if (::listen(fd, 128) != 0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw ServeError("net server: cannot listen: " + why);
  }
  set_nonblocking(fd);

  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) !=
      0) {
    const std::string why = std::strerror(errno);
    ::close(fd);
    throw ServeError("net server: getsockname failed: " + why);
  }
  impl.listen_fd = fd;
  port_ = ntohs(bound.sin_port);

  impl.self_endpoint.host = impl.options.advertised_host.empty()
                                ? impl.options.listen_host
                                : impl.options.advertised_host;
  impl.self_endpoint.port = impl.options.advertised_port != 0
                                ? impl.options.advertised_port
                                : port_;
  impl.membership.set_self(impl.self_endpoint, impl.incarnation);
  impl.start_handoff_thread();

  impl.poller.add(impl.wake_read, true, false);
  impl.poller.add(impl.listen_fd, true, false);
  return port_;
}

void PlanServer::run(const std::function<bool()>& external_drain) {
  impl_->run_loop(external_drain);
}

void PlanServer::begin_drain() {
  impl_->drain_requested.store(true, std::memory_order_release);
  impl_->wake();
}

void PlanServer::shutdown() {
  impl_->stop.store(true, std::memory_order_release);
  impl_->wake();
}

void PlanServer::set_ready(bool ready) {
  ready_.store(ready, std::memory_order_release);
}

ServerStats PlanServer::stats() const {
  const Impl& impl = *impl_;
  ServerStats stats;
  stats.accepted = impl.accepted.load(std::memory_order_relaxed);
  stats.closed = impl.closed.load(std::memory_order_relaxed);
  stats.shed_connections =
      impl.shed_connections.load(std::memory_order_relaxed);
  stats.frames_in = impl.frames_in.load(std::memory_order_relaxed);
  stats.frames_out = impl.frames_out.load(std::memory_order_relaxed);
  stats.malformed_closes =
      impl.malformed_closes.load(std::memory_order_relaxed);
  stats.timeout_closes = impl.timeout_closes.load(std::memory_order_relaxed);
  stats.requests = impl.requests.load(std::memory_order_relaxed);
  stats.responses = impl.responses.load(std::memory_order_relaxed);
  stats.drains = impl.drains.load(std::memory_order_relaxed);
  stats.gossip_frames = impl.gossip_frames.load(std::memory_order_relaxed);
  stats.handoff_batches_received =
      impl.handoff_batches_received.load(std::memory_order_relaxed);
  stats.handoff_plans_received =
      impl.handoff_plans_received.load(std::memory_order_relaxed);
  stats.handoff_plans_skipped =
      impl.handoff_plans_skipped.load(std::memory_order_relaxed);
  stats.stale_handoff_rejections =
      impl.stale_handoff_rejections.load(std::memory_order_relaxed);
  stats.handoff_batches_sent =
      impl.handoff_batches_sent.load(std::memory_order_relaxed);
  stats.handoff_plans_sent =
      impl.handoff_plans_sent.load(std::memory_order_relaxed);
  stats.handoff_send_failures =
      impl.handoff_send_failures.load(std::memory_order_relaxed);
  stats.membership_epoch = impl.membership.epoch();
  for (std::size_t i = 0; i < kStatusCodeCount; ++i)
    stats.statuses_by_code[i] =
        impl.statuses[i].load(std::memory_order_relaxed);
  return stats;
}

std::size_t PlanServer::connection_count() const {
  return impl_->open_connections.load(std::memory_order_relaxed);
}

Endpoint PlanServer::advertised_endpoint() const {
  return impl_->self_endpoint;
}

std::uint64_t PlanServer::incarnation() const { return impl_->incarnation; }

MembershipView PlanServer::membership_view() const {
  return impl_->membership.view();
}

std::uint64_t PlanServer::membership_epoch() const {
  return impl_->membership.epoch();
}

}  // namespace foscil::serve::net
