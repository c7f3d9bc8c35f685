// Helpers of the benchmark that carry its measurement rules:
// percentile selection, seeded input generation (Zipf keys, Poisson
// arrivals, stratified thresholds), the open-loop sender, and in-memory
// spans with self-time arithmetic.  Header-only and free of foscil types so
// lib_test.cpp can check each rule in isolation.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

// ---- percentiles ------------------------------------------------------------

/// 1-based nearest rank of percentile p among n samples: ceil(p/100 * n),
/// with a relative guard so 99.9 of 1000 is rank 999, not 1000.
inline std::size_t nearest_rank(std::size_t n, double p) {
  const double exact = p / 100.0 * static_cast<double>(n);
  const double rank = std::ceil(exact * (1.0 - 1e-12));
  return std::min(n, static_cast<std::size_t>(std::max(1.0, rank)));
}

/// Nearest-rank percentile: the sample at nearest_rank(n, p), so every
/// reported value is one that was measured.  `p` in (0, 100]; empty input
/// gives NaN.
inline double percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  return values[nearest_rank(values.size(), p) - 1];
}

/// Samples ranked strictly above the nearest-rank percentile p of n.
inline std::size_t samples_beyond(std::size_t n, double p) {
  return n == 0 ? 0 : n - nearest_rank(n, p);
}

/// The highest of p99.9, p99, p90, p75 and p50 that leaves at least ten
/// samples above it, or 0 when none does (the sample supports no tail).
inline double highest_supported_percentile(std::size_t n) {
  for (double p : {99.9, 99.0, 90.0, 75.0, 50.0})
    if (samples_beyond(n, p) >= 10) return p;
  return 0.0;
}

inline double median(std::vector<double> values) {
  return percentile(std::move(values), 50.0);
}

/// Median, over consecutive blocks of `block` samples in arrival order, of
/// each block's nearest-rank percentile p.  A remainder shorter than
/// `block` joins the last block; fewer than `block` samples form one block.
/// A slow stretch of the run then moves the blocks it covers, not the
/// result, as long as it covers fewer than half of them.
inline double blocked_percentile(const std::vector<double>& values,
                                 std::size_t block, double p) {
  if (values.empty() || block == 0)
    return std::numeric_limits<double>::quiet_NaN();
  const std::size_t blocks = std::max<std::size_t>(1, values.size() / block);
  std::vector<double> per_block;
  for (std::size_t b = 0; b < blocks; ++b) {
    const auto first = values.begin() + static_cast<std::ptrdiff_t>(b * block);
    const auto last = b + 1 == blocks
                          ? values.end()
                          : first + static_cast<std::ptrdiff_t>(block);
    per_block.push_back(percentile(std::vector<double>(first, last), p));
  }
  return median(std::move(per_block));
}

inline double mean(const std::vector<double>& values) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

// ---- seeded generation --------------------------------------------------------

/// SplitMix64: the benchmark's only random source.  Defined bit for bit
/// here (no std:: distributions, whose output is implementation-defined), so
/// a seed names the same inputs on every standard library.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1) with 53 random bits.
  double uniform() {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
  /// Uniform index in [0, n), 0 < n <= 2^53.
  std::size_t index(std::size_t n) {
    return static_cast<std::size_t>(uniform() * static_cast<double>(n));
  }

 private:
  std::uint64_t state_;
};

/// Zipf(s) over ranks 0..n-1: P(rank k) proportional to 1/(k+1)^s.
class ZipfSampler {
 public:
  ZipfSampler(std::size_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      total += std::pow(static_cast<double>(k + 1), -s);
      cdf_[k] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  /// Map a uniform draw u in [0, 1) to a rank.
  [[nodiscard]] std::size_t rank(double u) const {
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return std::min(static_cast<std::size_t>(it - cdf_.begin()),
                    cdf_.size() - 1);
  }
  /// Probability mass of the `k` most popular ranks.
  [[nodiscard]] double head_mass(std::size_t k) const {
    return k == 0 ? 0.0 : cdf_[std::min(k, cdf_.size()) - 1];
  }

 private:
  std::vector<double> cdf_;
};

/// A seeded random permutation of 0..n-1 (Fisher-Yates), so which keys are
/// hot changes with the seed.
inline std::vector<std::size_t> permutation(std::size_t n, SplitMix& rng) {
  std::vector<std::size_t> p(n);
  for (std::size_t i = 0; i < n; ++i) p[i] = i;
  for (std::size_t i = n; i > 1; --i) std::swap(p[i - 1], p[rng.index(i)]);
  return p;
}

/// Poisson arrival offsets (seconds from 0) at `rate` per second over
/// [0, seconds).
inline std::vector<double> poisson_arrivals(double rate, double seconds,
                                            SplitMix& rng) {
  std::vector<double> due;
  double t = 0.0;
  for (;;) {
    t += -std::log1p(-rng.uniform()) / rate;
    if (t >= seconds) return due;
    due.push_back(t);
  }
}

/// `count` values in [lo, hi): consecutive blocks of `block` values cover
/// the block's `block` equal strata once each, in a seeded order, with a
/// seeded offset inside each stratum.  Every value is distinct, and the
/// mean of any whole block sits near the interval's midpoint whatever the
/// seed -- so a per-block mean of a smooth function of the value (like a
/// plan's throughput) varies little between seeds.
inline std::vector<double> stratified_values(std::size_t count,
                                             std::size_t block, double lo,
                                             double hi, SplitMix& rng) {
  std::vector<double> values;
  values.reserve(count);
  const double width = (hi - lo) / static_cast<double>(block);
  while (values.size() < count) {
    const std::vector<std::size_t> order = permutation(block, rng);
    for (std::size_t i = 0; i < block && values.size() < count; ++i)
      values.push_back(lo + width * (static_cast<double>(order[i]) +
                                     rng.uniform()));
  }
  return values;
}

// ---- open loop -------------------------------------------------------------------

/// One scheduled request as the generator saw it.  All times are seconds
/// on the sender's clock; `due` is the intended send time.
struct Sent {
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
  bool ok = false;
  /// Latency as the user sees it: from the intended send time, so a stall
  /// that delays later sends is charged to every request it delayed.
  [[nodiscard]] double latency() const { return done - due; }
  /// How late the generator let the request leave.
  [[nodiscard]] double lag() const { return sent - due; }
};

/// One open-loop sender.  Senders share `next`: each claims the next
/// unsent request, waits until its due time (never sleeping when already
/// late) and sends it.  `send(i)` returns whether request i succeeded;
/// `now()` and `sleep_until(t)` are injected so tests can drive a fake
/// clock.  Fills out[i] for every request it claims.
template <typename Now, typename SleepUntil, typename Send>
void open_loop_sender(const std::vector<double>& due,
                      std::atomic<std::size_t>& next, std::vector<Sent>& out,
                      Now&& now, SleepUntil&& sleep_until, Send&& send) {
  for (;;) {
    const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
    if (i >= due.size()) return;
    if (now() < due[i]) sleep_until(due[i]);
    Sent& s = out[i];
    s.due = due[i];
    s.sent = now();
    s.ok = send(i);
    s.done = now();
  }
}

// ---- spans -------------------------------------------------------------------------

/// One timed call into a layer, recorded by the benchmark around its own
/// call.  `parent` indexes the causing span in the same trace (-1: root);
/// spans of one request share `request`.
struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  long parent = -1;
  std::uint64_t request = 0;
};

/// An in-memory span list owned by one thread; traces of several threads
/// are joined with append() once they have stopped.
class Trace {
 public:
  std::size_t open(std::string name, double start, long parent,
                   std::uint64_t request) {
    spans_.push_back({std::move(name), start, start, parent, request});
    return spans_.size() - 1;
  }
  void close(std::size_t id, double end) { spans_[id].end = end; }
  /// Append `other`, re-basing its parent indices.
  void append(const Trace& other) {
    const long base = static_cast<long>(spans_.size());
    for (Span s : other.spans_) {
      if (s.parent >= 0) s.parent += base;
      spans_.push_back(std::move(s));
    }
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// covered by the union of its children (children clipped to the parent,
/// overlapping children counted once).
inline std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans)
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size())
      children[static_cast<std::size_t>(s.parent)].push_back(
          {s.start, s.end});
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    auto& cs = children[i];
    std::sort(cs.begin(), cs.end());
    double covered = 0.0;
    double reach = p.start;  // end of the union so far
    for (auto [a, b] : cs) {
      a = std::max({a, p.start, reach});
      b = std::min(b, p.end);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    self[i] = (p.end - p.start) - covered;
  }
  return self;
}

/// Self-time samples grouped by span name.
inline std::map<std::string, std::vector<double>> self_times_by_name(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, std::vector<double>> by_name;
  for (std::size_t i = 0; i < spans.size(); ++i)
    by_name[spans[i].name].push_back(self[i]);
  return by_name;
}

}  // namespace perfbench
