// Traced-run probes: in-memory spans recorded around calls into the library's
// public interfaces, from the benchmark's own code.
//
// A traced pass attaches three forwarding wrappers — TimedInterceptor around
// the deployment's io::IoInterceptor, TimedScheduler around the pass's
// sched::Scheduler, and a ReplayOptions::on_barrier hook — and every wrapper
// only forwards and timestamps, so the simulated outcome of the pass is
// unchanged (the transparency check in mha_benchmark.cpp holds the benchmark
// to that).  Span tree: pass -> step (between two barriers) -> translate /
// plan / dispatch.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "io/mpi_file.hpp"
#include "sched/scheduler.hpp"

namespace mha::benchmark {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

enum class SpanKind : std::uint8_t { kPass = 0, kStep, kTranslate, kPlan, kDispatch };
inline constexpr std::size_t kSpanKinds = 5;

/// "pass", "step", "io.translate", "sched.plan", "sched.dispatch".
const char* span_name(SpanKind kind);

struct Span {
  static constexpr std::uint32_t kNoParent = ~std::uint32_t{0};
  SpanKind kind = SpanKind::kPass;
  std::uint32_t id = 0;
  std::uint32_t parent = kNoParent;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;

  std::int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Spans of one or more traced passes, kept in memory until the run ends.
/// Passes and steps are opened and closed by the benchmark; leaf spans are
/// parented to the step open at the time they are recorded.
class SpanLog {
 public:
  /// Opens a pass and its first step.
  void begin_pass(std::int64_t now);
  /// Closes the open step at a barrier and opens the next one.
  void barrier(std::int64_t now);
  /// Closes the pass.  The step opened by the last barrier issues no
  /// requests and is dropped, so the replay's tail after that barrier (a
  /// cache's final flush, result assembly) is the pass's own (self) time.
  void end_pass(std::int64_t now);
  void leaf(SpanKind kind, std::int64_t start, std::int64_t end);

  const std::vector<Span>& spans() const { return spans_; }

  /// Writes every span as Chrome trace-event JSON ("X" events, microsecond
  /// timestamps relative to the first pass; args carry id and parent).
  bool write_chrome_trace(const std::string& path) const;

 private:
  std::uint32_t next_id_ = 0;
  std::uint32_t pass_id_ = Span::kNoParent;
  std::int64_t pass_start_ = 0;
  std::uint32_t step_id_ = Span::kNoParent;
  std::int64_t step_start_ = 0;
  std::vector<Span> spans_;
};

/// Per-kind totals: how many spans, their summed duration, and their summed
/// self time (duration minus the part covered by child spans).
struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t total_ns = 0;
  std::int64_t self_ns = 0;
};

std::vector<SpanTotals> span_totals(const std::vector<Span>& spans);

/// Durations of every step span, in nanoseconds.
std::vector<double> step_durations_ns(const std::vector<Span>& spans);

/// Forwards every call to the wrapped interceptor and records an
/// io.translate span around each translation.
class TimedInterceptor final : public io::IoInterceptor {
 public:
  TimedInterceptor(io::IoInterceptor& inner, SpanLog& log) : inner_(inner), log_(log) {}

  using io::IoInterceptor::translate;
  void translate(common::Offset offset, common::ByteCount size,
                 io::SegmentList& out) override;
  void translate(common::Offset offset, common::ByteCount size, io::SegmentList& out,
                 io::TranslateCursor& cursor) override;
  common::Seconds lookup_overhead() const override { return inner_.lookup_overhead(); }
  void note_write(common::Offset offset, common::ByteCount size) override {
    inner_.note_write(offset, size);
  }
  std::string locate(common::Offset offset) const override { return inner_.locate(offset); }

  std::uint64_t calls() const { return calls_; }
  std::uint64_t segments() const { return segments_; }

 private:
  io::IoInterceptor& inner_;
  SpanLog& log_;
  std::uint64_t calls_ = 0;
  std::uint64_t segments_ = 0;
};

/// Forwards plan() and dispatch() to the wrapped policy and records a
/// sched.plan / sched.dispatch span around each.  Decision counters stay in
/// the wrapped policy's metrics().
class TimedScheduler final : public sched::Scheduler {
 public:
  TimedScheduler(sched::Scheduler& inner, SpanLog& log) : inner_(inner), log_(log) {}

  std::string name() const override { return inner_.name(); }
  using sched::Scheduler::dispatch;
  sched::DispatchResult dispatch(const sched::ServerRow& row,
                                 std::span<const sim::SubRequest> subs,
                                 common::Seconds arrival) override;
  std::vector<std::size_t> plan(const std::vector<common::Request>& batch) override;

 private:
  sched::Scheduler& inner_;
  SpanLog& log_;
};

}  // namespace mha::benchmark
