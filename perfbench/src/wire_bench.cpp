// wire-hot and wire-mixed: open-loop traffic from one generator thread
// over two nonblocking loopback connections into an in-process pbcd
// daemon, plus a /metrics scrape every 5 s from a scraper thread.
//
// Each run: generate inputs from the seed, compute the bit-identity
// oracle on a fresh engine, set the daemon up (construct, start, connect,
// warm up) several times and keep the last, then measure. The low and
// nominal rates alternate in one-second blocks. With --trace 1 they take
// 40% of the run, and then a fixed rate ladder above nominal is climbed at
// least five times, each climb ending when two rungs in a row fail. A rung
// fails when its p99 misses the latency limit, it sheds or fails more than
// 0.1% of its requests, its backlog grows, or the generator ran late.
// Latency is timed from each request's scheduled send time.
#include <fcntl.h>
#include <netinet/in.h>
#include <sched.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#include <arpa/inet.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <fstream>
#include <memory>
#include <mutex>
#include <numeric>
#include <optional>
#include <thread>

#include "net/client.hpp"
#include "net/codec.hpp"
#include "net/server.hpp"
#include "net/wire.hpp"
#include "obs/exposition.hpp"
#include "runners.hpp"

namespace perfbench {

using namespace pbc;

namespace {

/// Per-workload rates and limits. The rate ladder is low, nominal, then
/// `ladder` (fixed, ascending, above nominal).
struct WireSpec {
  double low_rps = 0.0;
  double nominal_rps = 0.0;
  std::vector<double> ladder;
  double limit_ms = 1.0;
  std::size_t setups = 3;
  std::size_t warmup_len = 0;  ///< wire-mixed warm-up stream length
};

constexpr double kRungSeconds = 0.35;
/// The ladder is climbed at least this many times, and again while its
/// share of the run lasts; max_rps is the mean of the climbs' results
/// without the highest and the lowest.
constexpr std::size_t kClimbs = 5;
/// A phase whose generator lateness p99 exceeds this share of the limit
/// is invalid: the generator, not the daemon, set its latency.
constexpr double kLatenessShare = 0.25;
/// Requests in flight per connection during the closed-loop warm-up.
constexpr std::size_t kWarmupDepth = 32;

[[nodiscard]] WireSpec wire_spec(const std::string& workload) {
  WireSpec s;
  if (workload == "wire-hot") {
    s.low_rps = 5000.0;
    s.nominal_rps = 20000.0;
    s.ladder = {23000, 26500, 30500, 35000, 40000, 46000, 53000,
                61000, 70000, 80500, 92500, 106000, 122000};
    s.limit_ms = 1.0;
    s.setups = 15;  // a set-up takes milliseconds here
  } else {
    s.low_rps = 1500.0;
    s.nominal_rps = 2500.0;
    s.ladder = {2750, 3150, 3650, 4200, 4800,  5500,  6350,
                7300, 8400, 9650, 11100, 12800, 14700};
    s.limit_ms = 5.0;
    s.warmup_len = 12000;
  }
  return s;
}

struct Pending {
  std::int64_t sched_ns = 0;
  std::uint32_t idx = 0;
};

/// One nonblocking client connection with its send buffer, response
/// decoder, and the requests awaiting responses (answered in order).
class Conn {
 public:
  explicit Conn(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      fd_ = -1;
      return;
    }
    int one = 1;
    (void)setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    (void)fcntl(fd_, F_SETFL, fcntl(fd_, F_GETFL, 0) | O_NONBLOCK);
  }
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;

  [[nodiscard]] int fd() const noexcept { return fd_; }

  void queue(std::span<const std::uint8_t> frame, Pending p) {
    out_.insert(out_.end(), frame.begin(), frame.end());
    pending_.push_back(p);
  }

  /// Writes what the socket takes now; false on a hard error.
  [[nodiscard]] bool flush() {
    while (off_ < out_.size()) {
      const ssize_t n = ::send(fd_, out_.data() + off_, out_.size() - off_,
                               MSG_DONTWAIT | MSG_NOSIGNAL);
      if (n > 0) {
        off_ += static_cast<std::size_t>(n);
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;
      } else if (!(n < 0 && errno == EINTR)) {
        return false;
      }
    }
    out_.clear();
    off_ = 0;
    return true;
  }

  /// Reads what is buffered now into the frame decoder; false on a
  /// closed or failed socket.
  [[nodiscard]] bool read_available(bool& got) {
    std::uint8_t buf[65536];
    while (true) {
      const ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
      if (n > 0) {
        decoder_.feed(std::span<const std::uint8_t>(
            buf, static_cast<std::size_t>(n)));
        got = true;
        continue;
      }
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
  }

  [[nodiscard]] net::FrameDecoder& decoder() noexcept { return decoder_; }
  [[nodiscard]] std::deque<Pending>& pending() noexcept { return pending_; }

 private:
  int fd_ = -1;
  std::vector<std::uint8_t> out_;
  std::size_t off_ = 0;
  net::FrameDecoder decoder_;
  std::deque<Pending> pending_;
};

/// Outcome of one phase (or of warm-up).
struct PhaseResult {
  std::string name;
  double rate = 0.0;  ///< offered req/s (0 = closed loop)
  double seconds = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::uint64_t shed = 0;
  std::uint64_t deadline = 0;
  std::uint64_t failed = 0;
  /// Every request, from scheduled send to response; a shed, failed or
  /// unanswered request counts as the drain timeout.
  std::vector<double> latency_ms;
  /// The p99 window (see windows_per_s) of each sample's scheduled send.
  std::vector<std::uint32_t> window;
  std::uint32_t windows = 1;
  std::vector<double> lateness_us; ///< generator: actual - scheduled send
  std::size_t backlog_mid = 0;
  std::size_t backlog_end = 0;
  double achieved_rps = 0.0;
  double span_s = 0.0;  ///< first scheduled send to last response
  bool drained = true;
  // Derived by finish().
  Summary latency;
  /// Median over the phase's windows of each window's p99, so one host
  /// stall moves one window, not the phase's figure.
  double p99_ms = 0.0;
  std::vector<double> window_p99_ms;
  Summary lateness;
  bool backlog_growing = false;
  bool generator_valid = true;
  bool passes = false;
  // Registry deltas over the phase (daemon counters).
  std::uint64_t d_shed = 0;
  std::uint64_t d_deadline = 0;
};

constexpr double kDrainTimeoutMs = 5000.0;

/// p99 windows per second of a phase: as many as keep at least 1000
/// samples (ten beyond the p99) in each, up to two.
[[nodiscard]] double windows_per_s(double rate) {
  return std::clamp(std::floor(rate / 1000.0), 1.0, 2.0);
}

/// Restricts the calling thread to CPUs [first, last]; threads it starts
/// afterwards inherit the set. False when the host refuses.
bool pin_to(int first, int last) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c = first; c <= last; ++c) CPU_SET(c, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

/// Keeps CPUs [first, last] from going idle while it lives: one
/// SCHED_IDLE thread per CPU busy-polls, and a thread of normal priority
/// that wakes there preempts it at once. On a VM an idle vCPU halts, and
/// waking it goes through the hypervisor: with the daemon's CPUs halting
/// between requests, that wake-up added a third or more to the wire-mixed
/// p50 and made it vary 2x from run to run as the host's load changed.
/// This is what booting with idle=poll does, for these CPUs only. A
/// spinner that cannot get its CPU or SCHED_IDLE exits rather than
/// compete.
class IdleSpinners {
 public:
  IdleSpinners(int first, int last) {
    for (int c = first; c <= last; ++c) {
      threads_.emplace_back([this, c] {
        sched_param none{};
        if (!pin_to(c, c) || sched_setscheduler(0, SCHED_IDLE, &none) != 0) {
          return;
        }
        ++active_;
        // No pause instruction: a pause loop can make the hypervisor
        // deschedule the vCPU, which is what this avoids.
        while (!stop_.load(std::memory_order_relaxed)) {
        }
      });
    }
  }
  ~IdleSpinners() {
    stop_ = true;
    for (auto& t : threads_) t.join();
  }
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

  /// Spinners that got their CPU and SCHED_IDLE.
  [[nodiscard]] int active() const { return active_.load(); }

 private:
  std::atomic<bool> stop_{false};
  std::atomic<int> active_{0};
  std::vector<std::thread> threads_;
};

class Generator {
 public:
  /// `spin`: busy-poll between sends instead of sleeping (for a
  /// generator with a CPU of its own; wake-ups would make it run late).
  Generator(std::uint16_t port, const RequestInputs& in,
            const std::vector<std::vector<std::uint8_t>>& frames,
            const Oracle& oracle, RunResult& result, bool spin)
      : in_(in),
        frames_(frames),
        oracle_(oracle),
        result_(result),
        spin_(spin) {
    for (int i = 0; i < 2; ++i) {
      conns_.push_back(std::make_unique<Conn>(port));
      if (conns_.back()->fd() < 0) result_.fail("cannot connect to pbcd");
    }
  }

  [[nodiscard]] bool connected() const {
    return std::all_of(conns_.begin(), conns_.end(),
                       [](const auto& c) { return c->fd() >= 0; });
  }

  /// Open loop at `rate` for `seconds` from `t0` (rate > 0), or closed
  /// loop over `count` requests with `depth` in flight per connection
  /// (rate == 0), over order[cursor...], advancing cursor.
  PhaseResult run(const std::string& name, double rate, double seconds,
                  std::size_t count, std::size_t depth,
                  const std::vector<std::uint32_t>& order, std::size_t& cursor,
                  std::int64_t t0) {
    PhaseResult pr;
    pr.name = name;
    pr.rate = rate;
    pr.seconds = seconds;
    const std::uint64_t n =
        rate > 0.0 ? std::max<std::uint64_t>(
                         1, static_cast<std::uint64_t>(std::llround(rate * seconds)))
                   : count;
    pr.latency_ms.reserve(n);
    pr.window.reserve(n);
    pr.lateness_us.reserve(n);
    pr.windows = rate > 0.0 ? static_cast<std::uint32_t>(std::max(
                                  1.0, std::floor(seconds * windows_per_s(rate))))
                            : 1;
    t0_ = t0;
    window_ns_ = seconds * 1e9 / pr.windows;
    const double interval = rate > 0.0 ? 1e9 / rate : 0.0;
    std::int64_t send_end = 0;
    std::int64_t last_recv = t0;
    std::uint64_t k = 0;
    while (true) {
      bool progressed = false;
      std::int64_t now = now_ns();
      while (k < n) {
        const std::int64_t sched =
            rate > 0.0 ? t0 + static_cast<std::int64_t>(
                                  static_cast<double>(k) * interval)
                       : now;
        Conn& c = *conns_[k % conns_.size()];
        if (rate > 0.0 ? sched > now : c.pending().size() >= depth) break;
        const std::uint32_t idx = order[cursor++ % order.size()];
        c.queue(frames_[idx], Pending{sched, idx});
        pr.lateness_us.push_back(static_cast<double>(now - sched) * 1e-3);
        ++k;
        ++pr.sent;
        progressed = true;
        if (k == n / 2) pr.backlog_mid = outstanding();
        if (k == n) {
          pr.backlog_end = outstanding();
          send_end = now;
        }
      }
      for (auto& c : conns_) {
        if (!c->flush()) return abort(pr, "send failed");
      }
      for (auto& c : conns_) {
        bool got = false;
        if (!c->read_available(got)) return abort(pr, "connection closed");
        if (!got) continue;
        progressed = true;
        now = now_ns();
        last_recv = now;
        while (true) {
          auto next = c->decoder().next();
          if (!next.ok()) return abort(pr, "corrupt response stream");
          if (!next.value().has_value()) break;
          on_response(*c, *next.value(), now, pr);
        }
      }
      if (k == n && outstanding() == 0) break;
      if (progressed) continue;
      now = now_ns();
      if (k == n &&
          static_cast<double>(now - send_end) * 1e-6 > kDrainTimeoutMs) {
        pr.drained = false;
        pr.failed += outstanding();
        pr.latency_ms.insert(pr.latency_ms.end(), outstanding(),
                             kDrainTimeoutMs);
        pr.window.insert(pr.window.end(), outstanding(), pr.windows - 1);
        break;
      }
      // Sleep until the next send is due (or a response arrives), but
      // spin for the last 50 µs so sends leave on time.
      std::int64_t wait_ns = 1000000;
      if (k < n && rate > 0.0) {
        wait_ns = t0 + static_cast<std::int64_t>(static_cast<double>(k) *
                                                   interval) -
                  now - 50000;
      }
      if (!spin_ && wait_ns > 20000) wait_for_input(wait_ns);
    }
    pr.span_s = static_cast<double>(last_recv - t0) * 1e-9;
    pr.achieved_rps =
        pr.span_s > 0.0 ? static_cast<double>(pr.ok) / pr.span_s : 0.0;
    return pr;
  }

 private:
  [[nodiscard]] std::size_t outstanding() const {
    std::size_t n = 0;
    for (const auto& c : conns_) n += c->pending().size();
    return n;
  }

  PhaseResult abort(PhaseResult& pr, const char* why) {
    result_.fail(std::string("wire phase ") + pr.name + ": " + why);
    pr.failed += outstanding();
    pr.drained = false;
    return std::move(pr);
  }

  void wait_for_input(std::int64_t ns) {
    pollfd fds[2];
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      fds[i] = pollfd{conns_[i]->fd(), POLLIN, 0};
    }
    const timespec ts{static_cast<time_t>(ns / 1000000000),
                      static_cast<long>(ns % 1000000000)};
    (void)::ppoll(fds, conns_.size(), &ts, nullptr);
  }

  void on_response(Conn& c, const net::Frame& frame, std::int64_t now,
                   PhaseResult& pr) {
    if (c.pending().empty()) {
      ++pr.failed;
      result_.fail("response without a request");
      return;
    }
    const Pending p = c.pending().front();
    c.pending().pop_front();
    pr.window.push_back(std::min<std::uint32_t>(
        pr.windows - 1,
        static_cast<std::uint32_t>(
            std::max(0.0, static_cast<double>(p.sched_ns - t0_) / window_ns_))));
    if (frame.payload == oracle_.payload[p.idx]) {
      ++pr.ok;
      pr.latency_ms.push_back(static_cast<double>(now - p.sched_ns) * 1e-6);
      return;
    }
    pr.latency_ms.push_back(kDrainTimeoutMs);
    std::uint64_t error_id = 0;
    const auto resp =
        net::decode_response(frame.payload, frame.header.codec, &error_id);
    if (!resp.ok() && resp.error().code == ErrorCode::kUnavailable) {
      ++pr.shed;
    } else if (!resp.ok() &&
               resp.error().code == ErrorCode::kDeadlineExceeded) {
      ++pr.deadline;
    } else {
      ++pr.failed;
      if (++reported_ <= 5) {
        result_.fail("request id " +
                     std::to_string(in_.requests[p.idx].id) +
                     (resp.ok() ? ": wire response differs from execute()"
                                : ": error " + resp.error().message));
      }
    }
  }

  const RequestInputs& in_;
  const std::vector<std::vector<std::uint8_t>>& frames_;
  const Oracle& oracle_;
  RunResult& result_;
  std::vector<std::unique_ptr<Conn>> conns_;
  bool spin_ = false;
  std::int64_t t0_ = 0;
  double window_ns_ = 1e9;
  int reported_ = 0;
};

void finish(PhaseResult& pr, const WireSpec& spec) {
  pr.latency = summarize(pr.latency_ms);
  std::vector<std::vector<double>> by_window(pr.windows);
  for (std::size_t i = 0; i < pr.latency_ms.size(); ++i) {
    by_window[pr.window[i]].push_back(pr.latency_ms[i]);
  }
  pr.window_p99_ms.clear();
  for (auto& w : by_window) {
    if (!w.empty()) pr.window_p99_ms.push_back(summarize(std::move(w)).p99);
  }
  pr.p99_ms = median(pr.window_p99_ms);
  pr.lateness = summarize(pr.lateness_us);
  pr.generator_valid =
      pr.lateness.p99 * 1e-3 <= kLatenessShare * spec.limit_ms;
  pr.backlog_growing =
      pr.backlog_growing ||
      static_cast<double>(pr.backlog_end) >
          static_cast<double>(pr.backlog_mid) +
              std::max(16.0, 0.5 * pr.rate * spec.limit_ms * 1e-3);
  const double bad = static_cast<double>(pr.shed + pr.deadline + pr.failed);
  pr.passes = pr.drained && pr.p99_ms <= spec.limit_ms &&
              bad <= 0.001 * static_cast<double>(pr.sent) &&
              !pr.backlog_growing && pr.generator_valid;
}

/// Folds a finished block into the phase it belongs to; the block's
/// windows follow the phase's.
void absorb(PhaseResult& into, const PhaseResult& block) {
  into.rate = block.rate;
  into.seconds += block.seconds;
  into.sent += block.sent;
  into.ok += block.ok;
  into.shed += block.shed;
  into.deadline += block.deadline;
  into.failed += block.failed;
  into.latency_ms.insert(into.latency_ms.end(), block.latency_ms.begin(),
                         block.latency_ms.end());
  for (const std::uint32_t w : block.window) {
    into.window.push_back(into.windows + w);
  }
  into.windows += block.windows;
  into.lateness_us.insert(into.lateness_us.end(), block.lateness_us.begin(),
                          block.lateness_us.end());
  into.span_s += block.span_s;
  into.achieved_rps =
      into.span_s > 0.0 ? static_cast<double>(into.ok) / into.span_s : 0.0;
  into.drained = into.drained && block.drained;
  into.backlog_growing = into.backlog_growing || block.backlog_growing;
  into.d_shed += block.d_shed;
  into.d_deadline += block.d_deadline;
}

/// Seconds between /metrics scrapes. An odd multiple of the one-second
/// block, so scrapes alternate between low and nominal blocks and land in
/// under a third of either phase's one-second p99 windows; the median
/// window then holds, while the scraped windows show the render stall.
constexpr double kScrapeInterval = 5.0;

/// /metrics scrapes on their own thread, as Prometheus would, on a fixed
/// schedule from the start of the measurement.
class Scraper {
 public:
  explicit Scraper(std::uint16_t port)
      : thread_([this, port] { loop(port); }) {}
  ~Scraper() { stop(); }
  Scraper(const Scraper&) = delete;
  Scraper& operator=(const Scraper&) = delete;

  /// Schedules a scrape every kScrapeInterval for `seconds` from `t0_ns`.
  void schedule(std::int64_t t0_ns, double seconds) {
    {
      std::scoped_lock lock(mu_);
      for (double at = 0.5; at < seconds; at += kScrapeInterval) {
        due_.push_back(t0_ns + static_cast<std::int64_t>(at * 1e9));
      }
    }
    cv_.notify_all();
  }

  void stop() {
    {
      std::scoped_lock lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  [[nodiscard]] std::vector<double> samples_us() const {
    std::scoped_lock lock(mu_);
    return samples_us_;
  }
  [[nodiscard]] std::uint64_t failures() const {
    std::scoped_lock lock(mu_);
    return failures_;
  }

 private:
  void loop(std::uint16_t port) {
    std::unique_lock lock(mu_);
    while (!stop_) {
      if (due_.empty()) {
        cv_.wait(lock, [&] { return stop_ || !due_.empty(); });
        continue;
      }
      const auto due = Clock::time_point(std::chrono::nanoseconds(due_.front()));
      if (cv_.wait_until(lock, due, [&] { return stop_; })) break;
      due_.pop_front();
      lock.unlock();
      const std::int64_t t = now_ns();
      const auto body = net::scrape_metrics("127.0.0.1", port);
      const double us = static_cast<double>(now_ns() - t) * 1e-3;
      const bool ok = body.ok() && body.value().find("pbc_net_requests_total") !=
                                       std::string::npos;
      lock.lock();
      if (ok) {
        samples_us_.push_back(us);
      } else {
        ++failures_;
      }
    }
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::deque<std::int64_t> due_;
  std::vector<double> samples_us_;
  std::uint64_t failures_ = 0;
  std::thread thread_;
};

[[nodiscard]] std::uint64_t counter(const obs::MetricsSnapshot& s,
                                    const char* name,
                                    const char* cache = nullptr) {
  return cache ? s.counter(name, {{"cache", cache}}) : s.counter(name);
}

void phase_json(Json& j, const PhaseResult& p) {
  j.begin_object()
      .field("name", p.name)
      .field("offered_rps", p.rate)
      .field("seconds", p.seconds)
      .field("sent", p.sent)
      .field("ok", p.ok)
      .field("shed", p.shed)
      .field("deadline_rejected", p.deadline)
      .field("failed", p.failed)
      .field("achieved_rps", p.achieved_rps)
      .field("latency_samples", static_cast<std::uint64_t>(p.latency.n))
      .field("p50_ms", p.latency.p50)
      .field("p99_ms_windowed", p.p99_ms)
      .field("windows", static_cast<std::uint64_t>(p.windows))
      .field("p99_ms_whole_phase", p.latency.p99);
  j.key("window_p99_ms").begin_array();
  for (const double w : p.window_p99_ms) j.value(w);
  j.end_array()
      .field("max_ms", p.latency.max)
      .field("lateness_p99_us", p.lateness.p99)
      .field("generator_valid", p.generator_valid)
      .field("backlog_mid", static_cast<std::uint64_t>(p.backlog_mid))
      .field("backlog_end", static_cast<std::uint64_t>(p.backlog_end))
      .field("backlog_growing", p.backlog_growing)
      .field("registry_shed_delta", p.d_shed)
      .field("registry_deadline_delta", p.d_deadline)
      .field("passes", p.passes)
      .end_object();
}

void print_phase(const PhaseResult& p) {
  std::printf(
      "  %-14s offered %8.0f/s  sent %7llu ok %7llu shed %llu failed %llu  "
      "p50 %.4f ms p99 %.4f ms (n=%zu, %u windows)  late p99 %.1f us  %s\n",
      p.name.c_str(), p.rate, static_cast<unsigned long long>(p.sent),
      static_cast<unsigned long long>(p.ok),
      static_cast<unsigned long long>(p.shed + p.deadline),
      static_cast<unsigned long long>(p.failed), p.latency.p50, p.p99_ms,
      p.latency.n, p.windows, p.lateness.p99,
      p.passes ? "pass" : (p.generator_valid ? "fail" : "fail (generator late)"));
}

}  // namespace

Oracle build_oracle(const std::vector<svc::Request>& requests,
                    RunResult& result) {
  Oracle o;
  o.payload.resize(requests.size());
  std::vector<double> sample_s;
  ThreadPool engine_pool(kPoolThreads);
  svc::EngineOptions eo;
  eo.pool = &engine_pool;
  svc::QueryEngine engine(eo);
  for (std::size_t i = 0; i < requests.size(); ++i) {
    const svc::Request& req = requests[i];
    const auto fail = [&](const std::string& why) {
      result.fail("request id " + std::to_string(req.id) + ": " + why);
    };
    auto resp = engine.execute(req);
    if (!resp.ok()) {
      fail("execute failed: " + resp.error().message);
      continue;
    }
    net::encode_response(resp.value(), net::Codec::kBinary, o.payload[i]);
    const auto& r = resp.value().result;
    if (const auto* a = std::get_if<core::CpuAllocation>(&r)) {
      const auto& op = std::get<svc::QueryCpuOp>(req.op);
      if (a->status != core::CoordStatus::kBudgetTooSmall &&
          a->cpu.value() + a->mem.value() > op.budget.value() + 1e-9) {
        fail("cpu + mem exceeds the budget");
      }
    } else if (const auto* g = std::get_if<core::GpuAllocation>(&r)) {
      const auto& op = std::get<svc::QueryGpuOp>(req.op);
      if (g->status != core::CoordStatus::kBudgetTooSmall &&
          g->sm.value() + g->mem.value() > op.budget.value() + 1e-9) {
        fail("sm + mem exceeds the budget");
      }
    } else if (const auto* s = std::get_if<sim::AllocationSample>(&r)) {
      if (s->rate_gunits > 0.0) sample_s.push_back(1.0 / s->rate_gunits);
    } else if (const auto* c = std::get_if<core::ClusterRun>(&r)) {
      const auto& op = std::get<svc::ClusterOp>(req.op);
      if (c->jobs.size() != op.jobs.size() || !c->event_stats.caps_respected) {
        fail("cluster run completed " + std::to_string(c->jobs.size()) +
             " of " + std::to_string(op.jobs.size()) + " jobs" +
             (c->event_stats.caps_respected ? "" : ", broke a cap"));
      }
    }
  }
  o.sim_seconds = summarize(std::move(sample_s)).mean;
  return o;
}

RunResult run_wire(const RunArgs& args) {
  RunResult result;
  const WireSpec spec = wire_spec(args.workload);
  const bool hot = args.workload == "wire-hot";
  // The ladder only feeds max_rps, a per-layer metric, so it runs only
  // with --trace 1: 40% of that run alternates low and nominal blocks and
  // 60% climbs. With --trace 0 the blocks take the whole run, which steadies
  // the bounded metrics they set.
  const bool climb = args.trace;
  const auto pairs = static_cast<std::size_t>(
      std::max(2.0, std::floor((climb ? 0.2 : 0.5) * args.seconds)));
  const double climb_s = 0.6 * args.seconds / static_cast<double>(kClimbs);
  double total = static_cast<double>(pairs) * (spec.low_rps + spec.nominal_rps);
  for (std::size_t c = 0; climb && c < kClimbs; ++c) {
    double t = 0.0;
    for (const double r : spec.ladder) {
      if ((t += kRungSeconds) > climb_s) break;
      total += r * kRungSeconds;
    }
  }
  const auto stream_len = static_cast<std::size_t>(total) + 1024;

  // Inputs, generator self-test, oracle.
  const RequestInputs in =
      hot ? make_hot_inputs(args.seed, stream_len)
          : make_mixed_inputs(args.seed, stream_len, spec.warmup_len);
  if (const std::string st = generator_self_test(); !st.empty()) {
    result.fail("generator self-test: " + st);
  }
  const std::int64_t oracle_t0 = now_ns();
  const Oracle oracle = build_oracle(in.requests, result);
  const double oracle_s = static_cast<double>(now_ns() - oracle_t0) * 1e-9;
  std::vector<std::vector<std::uint8_t>> frames;
  frames.reserve(in.requests.size());
  for (const auto& req : in.requests) {
    frames.push_back(net::frame_request(req, net::Codec::kBinary));
  }

  // Daemon: one event thread, one monitor thread, an explicitly sized
  // engine pool; the generator is this thread, the scraper one more
  // (asleep between scrapes). With four or more CPUs the generator gets
  // CPU 0 to itself and every daemon-side thread (started below,
  // inheriting this set) CPUs 1-3, so they do not preempt each other, and
  // CPUs 1-3 are kept from idling until the daemon stops.
  const int cpus = static_cast<int>(std::thread::hardware_concurrency());
  const bool pinned = cpus >= 4 && pin_to(1, 3);
  std::optional<IdleSpinners> spinners;
  if (pinned) spinners.emplace(1, 3);
  ThreadPool engine_pool(kPoolThreads);
  net::DaemonOptions opt;
  opt.engine.pool = &engine_pool;
  std::vector<double> setup_s;
  std::unique_ptr<net::Daemon> daemon;
  std::unique_ptr<Generator> gen;
  PhaseResult warm;
  for (std::size_t s = 0; s < spec.setups; ++s) {
    gen.reset();
    daemon.reset();
    const std::int64_t t = now_ns();
    daemon = std::make_unique<net::Daemon>(opt);
    if (const auto st = daemon->start(); !st.ok()) {
      result.fail("pbcd start failed: " + st.error().message);
      return result;
    }
    gen = std::make_unique<Generator>(daemon->port(), in, frames, oracle,
                                      result, pinned);
    if (!gen->connected()) return result;
    std::size_t cursor = 0;
    warm = gen->run("warmup", 0.0, 0.0, in.warmup.size(), kWarmupDepth,
                    in.warmup, cursor, now_ns());
    setup_s.push_back(static_cast<double>(now_ns() - t) * 1e-9);
  }

  // Measured phases. The low and nominal rates alternate in one-second
  // blocks, so both sample the host over the same stretch of time; each
  // block is one p99 window. Then, with --trace 1, the ladder is climbed at
  // least kClimbs times, each climb ending when two rungs in a row fail or
  // its time is up.
  std::vector<PhaseResult> phases;  // every block and rung, in run order
  std::vector<std::string> registry_json;
  const auto before_all = daemon->metrics().snapshot();
  std::size_t cursor = 0;
  Scraper scraper(daemon->port());
  scraper.schedule(now_ns(), 2.0 * args.seconds);
  if (pinned) (void)pin_to(0, 0);
  const auto measure = [&](const std::string& name, double rate, double secs) {
    const auto before = daemon->metrics().snapshot();
    const std::int64_t t0 = now_ns() + 200000;
    PhaseResult pr = gen->run(name, rate, secs, 0, 0, in.stream, cursor, t0);
    const auto after = daemon->metrics().snapshot();
    pr.d_shed = counter(after, "pbc_net_shed_total") -
                counter(before, "pbc_net_shed_total");
    pr.d_deadline = counter(after, "pbc_net_deadline_rejected_total") -
                    counter(before, "pbc_net_deadline_rejected_total");
    finish(pr, spec);
    if (args.trace) {
      Json j;
      j.begin_object()
          .field("phase", name)
          .key("before")
          .raw(obs::render_json(before))
          .key("after")
          .raw(obs::render_json(after))
          .end_object();
      registry_json.push_back(j.str());
    }
    // The run keeps only the summary of each block and rung.
    PhaseResult kept = pr;
    kept.latency_ms = {};
    kept.window = {};
    kept.lateness_us = {};
    phases.push_back(std::move(kept));
    return pr;
  };
  PhaseResult low;
  low.name = "low";
  low.windows = 0;
  PhaseResult nominal;
  nominal.name = "nominal";
  nominal.windows = 0;
  for (std::size_t b = 0; b < pairs; ++b) {
    absorb(low, measure("low", spec.low_rps, 1.0));
    absorb(nominal, measure("nominal", spec.nominal_rps, 1.0));
  }
  finish(low, spec);
  finish(nominal, spec);
  // Peak memory through set-up and the fixed rates, before the ladder's
  // overloaded rungs back requests up in socket and decoder buffers.
  const double rss_mb = peak_rss_mb();
  // The p50 of each fixed rate is the median of its blocks' p50s, so a
  // host slowdown over a few blocks moves few of them.
  const auto block_p50 = [&](const std::string& name) {
    std::vector<double> p50s;
    for (const auto& p : phases) {
      if (p.name == name) p50s.push_back(p.latency.p50);
    }
    return median(std::move(p50s));
  };
  const double p50_low = block_p50("low");
  const double p50_nominal = block_p50("nominal");
  // A climb starts above nominal, so nominal (or low) is its floor.
  const double floor_rps = nominal.passes ? nominal.achieved_rps
                                          : low.achieved_rps;
  std::vector<double> climb_max;
  // Climbs that end early leave time for more, so the ladder always
  // takes its share of the run.
  const std::int64_t ladder_end =
      now_ns() + static_cast<std::int64_t>(climb_s * kClimbs * 1e9);
  for (std::size_t c = 0; climb && (c < kClimbs || now_ns() < ladder_end);
       ++c) {
    const std::int64_t climb_end =
        now_ns() + static_cast<std::int64_t>(climb_s * 1e9);
    double best = floor_rps;
    int failed_in_a_row = 0;
    for (const double rate : spec.ladder) {
      if (failed_in_a_row >= 2 ||
          now_ns() + static_cast<std::int64_t>(kRungSeconds * 1e9) > climb_end) {
        break;
      }
      const PhaseResult pr =
          measure("climb" + std::to_string(c + 1) + "@" +
                      std::to_string(static_cast<int>(rate)),
                  rate, kRungSeconds);
      if (!pr.drained) break;
      failed_in_a_row = pr.passes ? 0 : failed_in_a_row + 1;
      if (pr.passes) best = pr.achieved_rps;
    }
    climb_max.push_back(best);
  }
  scraper.stop();
  const auto after_all = daemon->metrics().snapshot();
  gen.reset();
  daemon->stop();
  daemon.reset();
  const int spinning = spinners ? spinners->active() : 0;
  spinners.reset();

  for (const auto& p : phases) {
    result.attempted += p.sent;
    result.failed += p.failed;
  }
  result.attempted += warm.sent;
  result.failed += warm.failed;
  if (!low.drained || !nominal.drained) {
    result.fail("a fixed-rate phase did not drain");
  }

  result.end_to_end = {
      {"p50_ms.nominal", p50_nominal, "ms"},
      {"jobs_per_s", nominal.achieved_rps, "1/s"},
      {"sim_makespan_s", oracle.sim_seconds, "s"},
      {"setup_s", median(setup_s), "s"},
      {"rss_mb", rss_mb, "MB"},
  };
  // Unbounded: on a shared host their run-to-run spread exceeds any bound
  // the benchmark may set (perfbench/README.md).
  result.per_layer = {
      {"p50_ms.low", p50_low, "ms"},
      {"p99_ms.low", low.p99_ms, "ms"},
      {"p99_ms.nominal", nominal.p99_ms, "ms"},
  };
  if (climb) {
    std::vector<double> sorted_max = climb_max;
    std::sort(sorted_max.begin(), sorted_max.end());
    result.per_layer.push_back(
        {"max_rps",
         std::accumulate(sorted_max.begin() + 1, sorted_max.end() - 1, 0.0) /
             static_cast<double>(sorted_max.size() - 2),
         "1/s"});
  }

  // Registry deltas over the measured phases.
  const auto delta = [&](const char* name, const char* cache = nullptr) {
    return static_cast<double>(counter(after_all, name, cache) -
                               counter(before_all, name, cache));
  };
  struct CacheRatio {
    const char* cache;
    double hits, misses;
  };
  std::vector<CacheRatio> ratios;
  for (const char* cache : {"profile", "frontier", "sim", "replay", "online"}) {
    ratios.push_back({cache, delta("pbc_svc_cache_hits_total", cache),
                      delta("pbc_svc_cache_misses_total", cache)});
  }
  const auto ratio = [](const CacheRatio& r) {
    const double n = r.hits + r.misses;
    return n > 0.0 ? r.hits / n : 0.0;
  };
  const Summary scrape = summarize(scraper.samples_us());

  // Traced run: the same inputs through the layer calls in-process.
  SpanLog spans;
  if (args.trace) {
    const std::size_t n =
        std::min<std::size_t>(20000, low.sent + nominal.sent);
    TracedLayers layers =
        trace_requests(in, in.stream, n, oracle, engine_pool, spans, result);
    result.per_layer.insert(result.per_layer.end(), layers.metrics.begin(),
                            layers.metrics.end());
    const auto add = [&](const std::string& name, double v, const char* unit) {
      result.per_layer.push_back({name, v, unit});
    };
    add("net.transport.us", p50_low * 1e3 - layers.pipeline_p50_us, "us");
    add("net.queue.us", (p50_nominal - p50_low) * 1e3, "us");
    double shed = 0.0;
    double deadline = 0.0;
    for (const auto& p : phases) {
      shed += static_cast<double>(p.d_shed);
      deadline += static_cast<double>(p.d_deadline);
    }
    add("net.shed", shed, "count");
    add("net.deadline_rejected", deadline, "count");
    for (std::size_t i = 0; i < 4; ++i) {
      add(std::string("svc.hit_ratio.") + ratios[i].cache, ratio(ratios[i]),
          "ratio");
    }
    add("svc.single_flight.joined", delta("pbc_svc_coalesced_total"), "count");
    add("obs.scrape.us", scrape.mean, "us");
    add("obs.scrape.us.p99", scrape.p99, "us");
    add("obs.scrape.n", static_cast<double>(scrape.n), "count");
  }

  // Detail report.
  Json j;
  j.begin_object();
  j.key("spec").begin_object()
      .field("low_rps", spec.low_rps)
      .field("nominal_rps", spec.nominal_rps)
      .field("limit_ms", spec.limit_ms)
      .field("lateness_limit_share", kLatenessShare)
      .field("low_nominal_block_pairs", static_cast<std::uint64_t>(pairs))
      .field("rung_s", kRungSeconds)
      .field("min_climbs", static_cast<std::uint64_t>(climb ? kClimbs : 0))
      .field("connections", 2)
      .field("setups", static_cast<std::uint64_t>(spec.setups))
      .end_object();
  j.key("threads").begin_object()
      .field("generator", 1)
      .field("scraper_mostly_asleep", 1)
      .field("daemon_event", 1)
      .field("daemon_monitor", 1)
      .field("engine_pool", static_cast<std::uint64_t>(engine_pool.thread_count()))
      .field("daemon_shards", static_cast<std::uint64_t>(opt.shards))
      .field("generator_pinned_to_cpu0", pinned)
      .field("idle_spinners", static_cast<std::uint64_t>(spinning))
      .end_object();
  const svc::EngineOptions eo;
  j.key("cache_capacities").begin_object()
      .field("profile", static_cast<std::uint64_t>(eo.profile_cache_capacity))
      .field("frontier", static_cast<std::uint64_t>(eo.frontier_cache_capacity))
      .field("sim", static_cast<std::uint64_t>(eo.sim_cache_capacity))
      .field("replay", static_cast<std::uint64_t>(eo.replay_cache_capacity))
      .end_object();
  j.key("inputs").begin_object()
      .field("population", static_cast<std::uint64_t>(in.requests.size()))
      .field("warmup_requests", static_cast<std::uint64_t>(in.warmup.size()))
      .field("stream_len", static_cast<std::uint64_t>(in.stream.size()))
      .field("oracle_s", oracle_s)
      .end_object();
  j.key("setup_s").begin_array();
  for (const double s : setup_s) j.value(s);
  j.end_array();
  j.key("warmup");
  phase_json(j, warm);
  j.key("low");
  phase_json(j, low);
  j.key("nominal");
  phase_json(j, nominal);
  j.field("p50_ms_low_block_median", p50_low);
  j.field("p50_ms_nominal_block_median", p50_nominal);
  j.key("climb_max_rps").begin_array();
  for (const double m : climb_max) j.value(m);
  j.end_array();
  j.key("blocks_and_rungs").begin_array();
  for (const auto& p : phases) phase_json(j, p);
  j.end_array();
  j.key("hit_ratios").begin_object();
  for (const auto& r : ratios) {
    j.key(r.cache).begin_object()
        .field("hits", r.hits)
        .field("misses", r.misses)
        .field("ratio", ratio(r))
        .end_object();
  }
  j.end_object();
  j.key("scrapes").begin_object()
      .field("n", static_cast<std::uint64_t>(scrape.n))
      .field("mean_us", scrape.mean)
      .field("p99_us", scrape.p99)
      .field("failures", scraper.failures())
      .end_object();
  j.end_object();
  result.details_json = j.str();
  if (scraper.failures() > 0) result.fail("a /metrics scrape failed");

  // Human-readable phase table.
  std::printf("phases (%s, seed %llu):\n", args.workload.c_str(),
              static_cast<unsigned long long>(args.seed));
  print_phase(warm);
  print_phase(low);
  print_phase(nominal);
  for (const auto& p : phases) {
    if (p.name.rfind("climb", 0) == 0) print_phase(p);
  }
  std::printf("  p50 median of blocks: low %.4f ms, nominal %.4f ms\n", p50_low,
              p50_nominal);
  if (climb) {
    std::printf("  max_rps per climb:");
    for (const double m : climb_max) std::printf(" %.0f", m);
    std::printf("\n");
  }
  std::printf("  cache hit ratios over the measured phases:");
  for (const auto& r : ratios) {
    std::printf(" %s %.4f (%.0f/%.0f)", r.cache, ratio(r), r.hits,
                r.hits + r.misses);
  }
  std::printf("\n  /metrics scrapes: %zu, mean %.1f us\n", scrape.n, scrape.mean);

  if (args.trace) {
    const std::string base = args.out_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed);
    if (!spans.write_chrome(base + "-trace.json", 50000)) {
      result.fail("cannot write the trace file");
    }
    std::ofstream reg(base + "-registry.json");
    reg << "[";
    for (std::size_t i = 0; i < registry_json.size(); ++i) {
      reg << (i ? ",\n" : "\n") << registry_json[i];
    }
    reg << "\n]\n";
    print_span_table(spans);
  }
  return result;
}

}  // namespace perfbench
