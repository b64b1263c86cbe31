#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>
#include <thread>

namespace perfbench {

namespace {

/// Linear-interpolated percentile of an ascending vector (0 when empty).
[[nodiscard]] double percentile_sorted(const std::vector<double>& sorted,
                                       double p) {
  if (sorted.empty()) return 0.0;
  const double pos = p * static_cast<double>(sorted.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return sorted[lo] + frac * (sorted[hi] - sorted[lo]);
}

}  // namespace

Summary summarize(std::vector<double> values) {
  Summary s;
  s.n = values.size();
  if (values.empty()) return s;
  std::sort(values.begin(), values.end());
  s.mean = std::accumulate(values.begin(), values.end(), 0.0) /
           static_cast<double>(values.size());
  s.p50 = percentile_sorted(values, 0.50);
  s.p99 = percentile_sorted(values, 0.99);
  s.max = values.back();
  return s;
}

double median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return percentile_sorted(values, 0.5);
}

// --- JSON --------------------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void Json::comma() {
  if (need_comma_) out_ += ',';
  need_comma_ = true;
}

Json& Json::begin_object() {
  comma();
  out_ += '{';
  need_comma_ = false;
  return *this;
}

Json& Json::end_object() {
  out_ += '}';
  need_comma_ = true;
  return *this;
}

Json& Json::begin_array() {
  comma();
  out_ += '[';
  need_comma_ = false;
  return *this;
}

Json& Json::end_array() {
  out_ += ']';
  need_comma_ = true;
  return *this;
}

Json& Json::key(const std::string& k) {
  comma();
  out_ += '"' + json_escape(k) + "\":";
  need_comma_ = false;
  return *this;
}

Json& Json::value(double v) {
  comma();
  if (!std::isfinite(v)) {
    out_ += "null";
    return *this;
  }
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  out_ += buf;
  return *this;
}

Json& Json::value(std::uint64_t v) {
  comma();
  out_ += std::to_string(v);
  return *this;
}

Json& Json::value(std::int64_t v) {
  comma();
  out_ += std::to_string(v);
  return *this;
}

Json& Json::value(bool v) {
  comma();
  out_ += v ? "true" : "false";
  return *this;
}

Json& Json::value(const std::string& v) {
  comma();
  out_ += '"' + json_escape(v) + '"';
  return *this;
}

Json& Json::raw(const std::string& json) {
  comma();
  out_ += json;
  return *this;
}

// --- spans -------------------------------------------------------------

namespace {

[[nodiscard]] std::uint32_t thread_tag() {
  static std::mutex mu;
  static std::map<std::thread::id, std::uint32_t> ids;
  std::scoped_lock lock(mu);
  const auto [it, inserted] =
      ids.try_emplace(std::this_thread::get_id(),
                      static_cast<std::uint32_t>(ids.size() + 1));
  return it->second;
}

}  // namespace

std::int32_t SpanLog::begin(const std::string& name, std::int32_t parent,
                            std::uint64_t request) {
  const std::uint32_t tid = thread_tag();
  std::scoped_lock lock(mu_);
  spans_.push_back(Span{name, 0, 0, parent, request, tid});
  // Stamp after the push, so a vector reallocation is not timed.
  spans_.back().start_ns = now_ns();
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void SpanLog::end(std::int32_t id) {
  const std::int64_t t = now_ns();
  std::scoped_lock lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = t;
}

std::int32_t SpanLog::add(const std::string& name, std::int64_t start_ns,
                          std::int64_t end_ns, std::int32_t parent,
                          std::uint64_t request) {
  const std::uint32_t tid = thread_tag();
  std::scoped_lock lock(mu_);
  spans_.push_back(Span{name, start_ns, end_ns, parent, request, tid});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::vector<double> SpanLog::durations_us(const std::string& name) const {
  std::scoped_lock lock(mu_);
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) {
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    }
  }
  return out;
}

std::vector<SpanLog::NameStats> SpanLog::by_name() const {
  std::scoped_lock lock(mu_);
  // Children of one parent never overlap (each span's children run in
  // sequence on its thread), so the covered time is their sum.
  std::vector<std::int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, std::pair<std::vector<double>, double>> acc;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& [durations, self_sum] = acc[s.name];
    const auto d = s.end_ns - s.start_ns;
    durations.push_back(static_cast<double>(d) * 1e-3);
    self_sum += static_cast<double>(d - child_ns[i]) * 1e-3;
  }
  std::vector<NameStats> out;
  for (auto& [name, entry] : acc) {
    NameStats ns;
    ns.name = name;
    ns.self_mean_us =
        entry.second / static_cast<double>(std::max<std::size_t>(
                           1, entry.first.size()));
    ns.total_us = summarize(std::move(entry.first));
    out.push_back(std::move(ns));
  }
  return out;
}

bool SpanLog::write_chrome(const std::string& path,
                           std::size_t max_spans) const {
  std::scoped_lock lock(mu_);
  std::ofstream f(path);
  if (!f) return false;
  const std::int64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
  f << "{\"displayTimeUnit\":\"ns\",\"traceEvents\":[";
  const std::size_t n = std::min(max_spans, spans_.size());
  for (std::size_t i = 0; i < n; ++i) {
    const Span& s = spans_[i];
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f",
                  s.thread, static_cast<double>(s.start_ns - t0) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    f << (i ? ",\n" : "\n") << "{\"name\":\"" << json_escape(s.name)
      << "\"," << buf << ",\"args\":{\"id\":" << i
      << ",\"parent\":" << s.parent << ",\"request\":" << s.request << "}}";
  }
  f << "\n]}\n";
  return static_cast<bool>(f);
}

void print_span_table(const SpanLog& spans) {
  std::printf("traced run spans (us):\n  %-22s %9s %12s %12s %12s\n", "span",
              "count", "mean", "p99", "self mean");
  for (const auto& ns : spans.by_name()) {
    std::printf("  %-22s %9zu %12.3f %12.3f %12.3f\n", ns.name.c_str(),
                ns.total_us.n, ns.total_us.mean, ns.total_us.p99,
                ns.self_mean_us);
  }
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
