#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <filesystem>
#include <fstream>
#include <unordered_map>

#include "gansec/error.hpp"
#include "gansec/obs/json.hpp"

namespace gansec::e2e {

namespace {

/// Innermost open span on this thread (0 = none).
thread_local std::uint32_t t_open_span = 0;

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

}  // namespace

SpanRecorder::SpanRecorder(bool enabled, std::string run_id)
    : enabled_(enabled),
      run_id_(std::move(run_id)),
      epoch_(std::chrono::steady_clock::now()) {
  if (enabled_) records_.reserve(1 << 14);
}

std::uint64_t SpanRecorder::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch_)
          .count());
}

std::uint32_t SpanRecorder::open_span(std::uint32_t* parent) {
  std::uint32_t id = 0;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    id = next_id_++;
  }
  *parent = t_open_span;
  t_open_span = id;
  return id;
}

void SpanRecorder::close_span(const Record& record) {
  t_open_span = record.parent;
  const std::lock_guard<std::mutex> lock(mu_);
  records_.push_back(record);
}

SpanRecorder::Span::Span(SpanRecorder& recorder, const char* name) {
  if (!recorder.enabled()) return;
  recorder_ = &recorder;
  name_ = name;
  id_ = recorder.open_span(&parent_);
  start_ns_ = recorder.now_ns();
}

void SpanRecorder::Span::end() {
  if (recorder_ == nullptr) return;
  Record record;
  record.name = name_;
  record.start_ns = start_ns_;
  record.end_ns = recorder_->now_ns();
  record.id = id_;
  record.parent = parent_;
  record.thread = thread_index();
  recorder_->close_span(record);
  recorder_ = nullptr;
}

std::vector<double> SpanRecorder::durations_ms(const char* name) const {
  std::vector<double> out;
  for (const Record& r : records_) {
    if (std::string_view(r.name) == name) {
      out.push_back(static_cast<double>(r.end_ns - r.start_ns) * 1e-6);
    }
  }
  return out;
}

std::vector<SpanRecorder::Summary> SpanRecorder::summarize() const {
  std::unordered_map<std::uint32_t, std::uint64_t> child_ns;
  for (const Record& r : records_) {
    if (r.parent != 0) child_ns[r.parent] += r.end_ns - r.start_ns;
  }
  std::vector<Summary> out;
  std::unordered_map<std::string, std::size_t> slot;
  for (const Record& r : records_) {
    const auto [it, inserted] = slot.try_emplace(r.name, out.size());
    if (inserted) out.push_back(Summary{r.name, 0, 0.0, 0.0});
    Summary& s = out[it->second];
    const std::uint64_t dur = r.end_ns - r.start_ns;
    const auto child = child_ns.find(r.id);
    const std::uint64_t covered =
        child == child_ns.end() ? 0 : std::min(child->second, dur);
    ++s.count;
    s.total_ms += static_cast<double>(dur) * 1e-6;
    s.self_ms += static_cast<double>(dur - covered) * 1e-6;
  }
  std::sort(out.begin(), out.end(), [](const Summary& a, const Summary& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

void SpanRecorder::write_chrome_trace(const std::string& path) const {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  std::error_code ignored;  // a failure surfaces as the open error below
  if (!parent.empty()) std::filesystem::create_directories(parent, ignored);
  std::ofstream os(path, std::ios::trunc);
  if (!os) throw IoError("SpanRecorder: cannot open " + path);
  const std::string run = obs::json_escape(run_id_);
  os << "{\"traceEvents\":[";
  for (std::size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    if (i != 0) os << ',';
    os << "{\"name\":\"" << obs::json_escape(r.name)
       << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << r.thread
       << ",\"ts\":" << obs::json_number(static_cast<double>(r.start_ns) / 1e3)
       << ",\"dur\":"
       << obs::json_number(static_cast<double>(r.end_ns - r.start_ns) / 1e3)
       << ",\"args\":{\"id\":" << r.id << ",\"parent\":" << r.parent
       << ",\"run\":\"" << run << "\"}}";
  }
  os << "]}\n";
  if (!os) throw IoError("SpanRecorder: write failed for " + path);
}

double SpanRecorder::span_cost_ns() {
  constexpr std::size_t kSpans = 20000;
  SpanRecorder scratch(true, "calibration");
  const std::uint64_t t0 = scratch.now_ns();
  for (std::size_t i = 0; i < kSpans; ++i) {
    const Span span(scratch, "calibration");
  }
  return static_cast<double>(scratch.now_ns() - t0) /
         static_cast<double>(kSpans);
}

}  // namespace gansec::e2e
