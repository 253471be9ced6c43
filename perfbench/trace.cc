#include "perfbench/trace.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "src/util/json.h"

namespace perfbench {

void TraceRecorder::NameLane(uint32_t lane, std::string name) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [id, existing] : lane_names_) {
    if (id == lane) return;
  }
  lane_names_.emplace_back(lane, std::move(name));
}

uint32_t TraceRecorder::LaneOfThisThread(const std::string& prefix) {
  std::thread::id self = std::this_thread::get_id();
  uint32_t lane = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = std::find(thread_lanes_.begin(), thread_lanes_.end(), self);
    if (it != thread_lanes_.end()) {
      return kFirstThreadLane + static_cast<uint32_t>(it - thread_lanes_.begin());
    }
    thread_lanes_.push_back(self);
    lane = kFirstThreadLane + static_cast<uint32_t>(thread_lanes_.size() - 1);
  }
  NameLane(lane, prefix + std::to_string(lane - kFirstThreadLane));
  return lane;
}

void TraceRecorder::ResetThreadLanes() {
  std::lock_guard<std::mutex> lock(mu_);
  thread_lanes_.clear();
}

void TraceRecorder::Span(const char* name, uint32_t lane,
                         Clock::time_point start, Clock::time_point end,
                         std::string request, const char* parent) {
  SpanEvent event{name, parent, lane, Ns(start), Ns(end), std::move(request)};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(std::move(event));
}

void TraceRecorder::Counter(const char* name, Clock::time_point at,
                            double value) {
  CounterEvent event{name, Ns(at), value};
  std::lock_guard<std::mutex> lock(mu_);
  counters_.push_back(event);
}

bool TraceRecorder::WriteChromeJson(const std::string& path) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  // Events are written one per line so the file stays greppable.
  std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n", f);
  bool first = true;
  auto emit = [&](const std::string& event) {
    if (!first) std::fputs(",\n", f);
    first = false;
    std::fputs(event.c_str(), f);
  };
  for (const auto& [lane, name] : lane_names_) {
    gqc::JsonWriter w;
    w.BeginObject();
    w.Key("name").String("thread_name");
    w.Key("ph").String("M");
    w.Key("pid").UInt(1);
    w.Key("tid").UInt(lane);
    w.Key("args").BeginObject().Key("name").String(name).EndObject();
    w.EndObject();
    emit(w.Take());
  }
  for (const SpanEvent& s : spans_) {
    gqc::JsonWriter w;
    w.BeginObject();
    w.Key("name").String(s.name);
    w.Key("ph").String("X");
    w.Key("pid").UInt(1);
    w.Key("tid").UInt(s.lane);
    w.Key("ts").Double(static_cast<double>(s.start_ns) / 1e3);
    w.Key("dur").Double(static_cast<double>(s.end_ns - s.start_ns) / 1e3);
    w.Key("args").BeginObject();
    if (!s.request.empty()) w.Key("id").String(s.request);
    if (s.parent != nullptr && s.parent[0] != '\0') {
      w.Key("parent").String(s.parent);
    }
    w.EndObject();
    w.EndObject();
    emit(w.Take());
  }
  for (const CounterEvent& c : counters_) {
    gqc::JsonWriter w;
    w.BeginObject();
    w.Key("name").String(c.name);
    w.Key("ph").String("C");
    w.Key("pid").UInt(1);
    w.Key("ts").Double(static_cast<double>(c.at_ns) / 1e3);
    w.Key("args").BeginObject().Key("value").Double(c.value).EndObject();
    w.EndObject();
    emit(w.Take());
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

}  // namespace perfbench
