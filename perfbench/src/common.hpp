// Shared harness vocabulary: clocks, summaries, the metric set a run
// reports, the in-memory span log of the traced run, and a small JSON
// writer for the result line and the detail files.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// Distribution summary of one sample set (values in the caller's unit).
struct Summary {
  std::size_t n = 0;
  double mean = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// Linear-interpolated percentiles (0 for an empty set).
[[nodiscard]] Summary summarize(std::vector<double> values);
[[nodiscard]] double median(std::vector<double> values);

/// Minimal streaming JSON writer: the caller emits keys and values in
/// order; commas and escaping are handled here.
class Json {
 public:
  Json& begin_object();
  Json& end_object();
  Json& begin_array();
  Json& end_array();
  Json& key(const std::string& k);
  Json& value(double v);
  Json& value(std::uint64_t v);
  Json& value(std::int64_t v);
  Json& value(int v) { return value(static_cast<std::int64_t>(v)); }
  Json& value(bool v);
  Json& value(const std::string& v);
  Json& value(const char* v) { return value(std::string(v)); }
  /// Inserts an already-rendered JSON value verbatim.
  Json& raw(const std::string& json);
  template <class T>
  Json& field(const std::string& k, const T& v) {
    key(k);
    return value(v);
  }
  [[nodiscard]] const std::string& str() const noexcept { return out_; }

 private:
  void comma();
  std::string out_;
  bool need_comma_ = false;
};

[[nodiscard]] std::string json_escape(const std::string& s);

/// One reported metric: name, value as measured, unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// One span of the traced run. `parent` indexes the same log (-1 = root);
/// spans of one request share `request`.
struct Span {
  std::string name;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;
  std::uint64_t request = 0;
  std::uint32_t thread = 0;
};

/// In-memory span store; thread-safe so node-provider callbacks running on
/// a pool can record into it.
class SpanLog {
 public:
  /// Opens a span now; returns its id for end() and as a parent.
  std::int32_t begin(const std::string& name, std::int32_t parent,
                     std::uint64_t request);
  void end(std::int32_t id);
  /// Records a span whose bounds were measured by the caller.
  std::int32_t add(const std::string& name, std::int64_t start_ns,
                   std::int64_t end_ns, std::int32_t parent,
                   std::uint64_t request);

  /// Per-name duration summaries in microseconds, with self time (the
  /// span minus the part of it its direct children cover).
  struct NameStats {
    std::string name;
    Summary total_us;
    double self_mean_us = 0.0;
  };
  [[nodiscard]] std::vector<NameStats> by_name() const;
  /// Durations (µs) of every span with this name.
  [[nodiscard]] std::vector<double> durations_us(const std::string& name) const;

  /// Chrome trace-event JSON ("X" complete events, µs timestamps), at most
  /// `max_spans` spans, so the file stays loadable.
  [[nodiscard]] bool write_chrome(const std::string& path,
                                  std::size_t max_spans) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// RAII span on a SpanLog.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, const std::string& name, std::int32_t parent,
             std::uint64_t request)
      : log_(log), id_(log.begin(name, parent, request)) {}
  ~ScopedSpan() { log_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  [[nodiscard]] std::int32_t id() const noexcept { return id_; }

 private:
  SpanLog& log_;
  std::int32_t id_;
};

/// Command-line arguments shared by every workload.
struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir = ".";
};

/// What a workload run hands back to main(): the correctness verdict, the
/// operation counts, both metric families, and a detail report (a JSON
/// object) written next to the trace files.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::string details_json = "{}";
  std::vector<std::string> problems;  ///< correctness failures, one a line

  void fail(std::string why) {
    correct = false;
    problems.push_back(std::move(why));
  }
};

/// Prints the per-span table (count, mean, p99, self mean) to stdout.
void print_span_table(const SpanLog& spans);

/// Peak resident set size of this process, in MiB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
