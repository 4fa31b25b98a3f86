#include "probes.hpp"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <memory>

namespace mha::benchmark {

const char* span_name(SpanKind kind) {
  switch (kind) {
    case SpanKind::kPass:
      return "pass";
    case SpanKind::kStep:
      return "step";
    case SpanKind::kTranslate:
      return "io.translate";
    case SpanKind::kPlan:
      return "sched.plan";
    case SpanKind::kDispatch:
      return "sched.dispatch";
  }
  return "?";
}

void SpanLog::begin_pass(std::int64_t now) {
  pass_id_ = next_id_++;
  pass_start_ = now;
  step_id_ = next_id_++;
  step_start_ = now;
}

void SpanLog::barrier(std::int64_t now) {
  spans_.push_back(Span{SpanKind::kStep, step_id_, pass_id_, step_start_, now});
  step_id_ = next_id_++;
  step_start_ = now;
}

void SpanLog::end_pass(std::int64_t now) {
  spans_.push_back(Span{SpanKind::kPass, pass_id_, Span::kNoParent, pass_start_, now});
  pass_id_ = Span::kNoParent;
  step_id_ = Span::kNoParent;
}

void SpanLog::leaf(SpanKind kind, std::int64_t start, std::int64_t end) {
  spans_.push_back(Span{kind, next_id_++, step_id_, start, end});
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(path.c_str(), "w"),
                                                     &std::fclose);
  if (!f) return false;
  std::int64_t origin = 0;
  bool have_origin = false;
  for (const Span& s : spans_) {
    if (!have_origin || s.start_ns < origin) origin = s.start_ns;
    have_origin = true;
  }
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f.get());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f.get(),
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                 "\"dur\":%.3f,\"args\":{\"id\":%" PRIu32 ",\"parent\":%" PRId64 "}}",
                 i == 0 ? "" : ",", span_name(s.kind),
                 static_cast<double>(s.start_ns - origin) / 1e3,
                 static_cast<double>(s.duration_ns()) / 1e3, s.id,
                 s.parent == Span::kNoParent ? std::int64_t{-1}
                                             : static_cast<std::int64_t>(s.parent));
  }
  std::fputs("\n]}\n", f.get());
  return std::ferror(f.get()) == 0;
}

std::vector<SpanTotals> span_totals(const std::vector<Span>& spans) {
  std::vector<SpanTotals> totals(kSpanKinds);
  if (spans.empty()) return totals;
  // Ids are dense, so children's time can be summed into a flat array.
  std::uint32_t max_id = 0;
  for (const Span& s : spans) max_id = std::max(max_id, s.id);
  std::vector<std::int64_t> child_ns(static_cast<std::size_t>(max_id) + 1, 0);
  for (const Span& s : spans) {
    if (s.parent != Span::kNoParent && s.parent <= max_id) child_ns[s.parent] += s.duration_ns();
  }
  for (const Span& s : spans) {
    SpanTotals& t = totals[static_cast<std::size_t>(s.kind)];
    ++t.count;
    t.total_ns += s.duration_ns();
    t.self_ns += s.duration_ns() - child_ns[s.id];
  }
  return totals;
}

std::vector<double> step_durations_ns(const std::vector<Span>& spans) {
  std::vector<double> out;
  for (const Span& s : spans) {
    if (s.kind == SpanKind::kStep) out.push_back(static_cast<double>(s.duration_ns()));
  }
  return out;
}

void TimedInterceptor::translate(common::Offset offset, common::ByteCount size,
                                 io::SegmentList& out) {
  const std::int64_t start = now_ns();
  inner_.translate(offset, size, out);
  log_.leaf(SpanKind::kTranslate, start, now_ns());
  ++calls_;
  segments_ += out.size();
}

void TimedInterceptor::translate(common::Offset offset, common::ByteCount size,
                                 io::SegmentList& out, io::TranslateCursor& cursor) {
  const std::int64_t start = now_ns();
  inner_.translate(offset, size, out, cursor);
  log_.leaf(SpanKind::kTranslate, start, now_ns());
  ++calls_;
  segments_ += out.size();
}

sched::DispatchResult TimedScheduler::dispatch(const sched::ServerRow& row,
                                               std::span<const sim::SubRequest> subs,
                                               common::Seconds arrival) {
  const std::int64_t start = now_ns();
  sched::DispatchResult result = inner_.dispatch(row, subs, arrival);
  log_.leaf(SpanKind::kDispatch, start, now_ns());
  return result;
}

std::vector<std::size_t> TimedScheduler::plan(const std::vector<common::Request>& batch) {
  const std::int64_t start = now_ns();
  std::vector<std::size_t> order = inner_.plan(batch);
  log_.leaf(SpanKind::kPlan, start, now_ns());
  return order;
}

}  // namespace mha::benchmark
