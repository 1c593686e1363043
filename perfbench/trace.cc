#include "trace.h"

#include <algorithm>
#include <cstdio>

#include "perfbench.h"
#include "server/json.h"

namespace perfbench {

SpanLog::SpanLog(bool enabled) : enabled_(enabled), origin_us_(NowUs()) {}

void SpanLog::Add(int track, const std::string& name, int64_t begin_us,
                  int64_t end_us, uint64_t session) {
  if (!enabled_) return;
  spans_.push_back(Span{track, name, begin_us, std::max(begin_us, end_us),
                        session});
}

std::map<int, std::vector<const SpanLog::Span*>> SpanLog::SortedByTrack()
    const {
  std::map<int, std::vector<const Span*>> tracks;
  for (const Span& s : spans_) tracks[s.track].push_back(&s);
  for (auto& [track, spans] : tracks) {
    // Earlier start first; on a tie the longer span is the parent.
    std::stable_sort(spans.begin(), spans.end(),
                     [](const Span* a, const Span* b) {
                       if (a->begin_us != b->begin_us) {
                         return a->begin_us < b->begin_us;
                       }
                       return a->end_us > b->end_us;
                     });
  }
  return tracks;
}

bool SpanLog::Nested() const {
  for (const auto& [track, spans] : SortedByTrack()) {
    std::vector<const Span*> stack;
    for (const Span* s : spans) {
      while (!stack.empty() && stack.back()->end_us <= s->begin_us) {
        stack.pop_back();
      }
      if (!stack.empty() && s->end_us > stack.back()->end_us) return false;
      stack.push_back(s);
    }
  }
  return true;
}

bool SpanLog::WriteChromeJson(const std::string& path) const {
  using seedb::server::JsonValue;
  JsonValue events = JsonValue::Array();
  auto event = [&](const Span* s, const char* ph, int64_t ts) {
    JsonValue e = JsonValue::Object();
    e.Set("name", JsonValue::Str(s->name));
    e.Set("ph", JsonValue::Str(ph));
    e.Set("ts", JsonValue::Number(static_cast<double>(ts - origin_us_)));
    e.Set("pid", JsonValue::Number(1));
    e.Set("tid", JsonValue::Number(s->track));
    if (s->session != 0) {
      JsonValue args = JsonValue::Object();
      args.Set("session", JsonValue::Number(static_cast<double>(s->session)));
      e.Set("args", std::move(args));
    }
    events.Append(std::move(e));
  };
  for (const auto& [track, spans] : SortedByTrack()) {
    std::vector<const Span*> stack;
    for (const Span* s : spans) {
      while (!stack.empty() && stack.back()->end_us <= s->begin_us) {
        event(stack.back(), "E", stack.back()->end_us);
        stack.pop_back();
      }
      event(s, "B", s->begin_us);
      stack.push_back(s);
    }
    while (!stack.empty()) {
      event(stack.back(), "E", stack.back()->end_us);
      stack.pop_back();
    }
  }
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string text = events.Dump();
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

ScopedSpan::ScopedSpan(SpanLog* log, int track, std::string name,
                       uint64_t session)
    : log_(log != nullptr && log->enabled() ? log : nullptr),
      track_(track),
      name_(std::move(name)),
      session_(session),
      begin_us_(log_ != nullptr ? NowUs() : 0) {}

ScopedSpan::~ScopedSpan() {
  if (log_ != nullptr) log_->Add(track_, name_, begin_us_, NowUs(), session_);
}

}  // namespace perfbench
