// In-memory span tracer for the benchmark's traced run.
//
// Spans are recorded from the benchmark's own code, around each call into a
// layer (run_workload, the per-op closure, a critical section, a tree call,
// a ShardedKv request, traffic generation). Every simulated thread is a
// fiber on the one host thread, so one append-only event log in host order
// is the whole trace; nothing is written out until the benchmark ends.
//
// Attribution: each host interval between two consecutive events belongs to
// exactly one bucket — the innermost open span of the fiber that emitted
// both events, or the switch gap when the two events come from different
// simulated threads. The buckets therefore sum to the traced wall time.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

enum class SpanName : std::uint8_t {
  kRun,       // harness::run_workload (host context)
  kOp,        // one benchmark operation (the per-op closure)
  kRegion,    // locks::CriticalSection::run
  kDsLookup,  // ds::RbTree::contains
  kDsInsert,  // ds::RbTree::insert
  kDsErase,   // ds::RbTree::erase
  kKvGet,     // service::ShardedKv::get
  kKvPut,
  kKvMultiPut,
  kKvTransfer,
  kZipf,   // service::ZipfGenerator::next
  kClock,  // service::OpenLoopClock::pop
  kCount,
};

const char* span_name(SpanName n);

inline std::uint64_t host_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

// Host thread id used for events emitted outside any simulated thread.
inline constexpr int kHostThread = -1;

class Tracer {
 public:
  enum class Kind : std::uint8_t { kBegin, kEnd, kEndAborted };
  struct Event {
    std::uint64_t t_ns;
    std::uint32_t span;
    std::int16_t thread;
    SpanName name;
    Kind kind;
  };

  void reserve(std::size_t n) { events_.reserve(n); }
  void clear() {
    events_.clear();
    next_span_ = 0;
  }

  std::uint32_t begin(SpanName name, int thread) {
    const std::uint32_t id = next_span_++;
    events_.push_back({host_ns(), id, static_cast<std::int16_t>(thread), name,
                       Kind::kBegin});
    return id;
  }
  void end(std::uint32_t id, SpanName name, int thread, bool aborted) {
    events_.push_back({host_ns(), id, static_cast<std::int16_t>(thread), name,
                       aborted ? Kind::kEndAborted : Kind::kEnd});
  }

  const std::vector<Event>& events() const { return events_; }

 private:
  std::vector<Event> events_;
  std::uint32_t next_span_ = 0;
};

// RAII span. A span whose scope is left without close() — an aborted
// transactional attempt unwinding via TxAbortException — is tagged aborted.
// With a null tracer it records nothing (the untraced configuration).
class Span {
 public:
  Span(Tracer* tr, SpanName name, int thread)
      : tr_(tr), name_(name), thread_(thread) {
    if (tr_ != nullptr) id_ = tr_->begin(name, thread);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span() {
    if (tr_ != nullptr) tr_->end(id_, name_, thread_, !closed_);
  }
  void close() { closed_ = true; }

 private:
  Tracer* tr_;
  SpanName name_;
  int thread_;
  std::uint32_t id_ = 0;
  bool closed_ = false;
};

// Where the host time of one traced run_workload call went.
struct Buckets {
  static constexpr std::size_t kNames = static_cast<std::size_t>(SpanName::kCount);
  std::uint64_t wall_ns = 0;   // first to last event of the run span
  std::uint64_t start_ns = 0;  // run_workload call -> first op
  std::uint64_t loop_ns = 0;   // inside run_workload, outside ops and gaps
  std::uint64_t gap_ns = 0;    // between events of two simulated threads
  std::array<std::uint64_t, kNames> self_ns{};  // per span name
  std::array<std::uint64_t, kNames> calls{};    // closed spans per name
  // Self time of a critical section's children in attempts that did not
  // complete it: every child but the last of each region span. This counts
  // attempts that abort after the child returned (at commit) as well as
  // those unwound through it.
  std::uint64_t wasted_ns = 0;

  std::uint64_t sum_ns() const;
};

// Attributes every interval of the event log (which must start with the run
// span's begin and end with its end). Returns false with *why set when the
// log is malformed (unbalanced spans).
bool attribute(const std::vector<Tracer::Event>& events, Buckets* out,
               std::string* why);

// Writes one line per span — id, name, thread, parent, start, end (ns
// relative to the first event), aborted — as tab-separated text.
bool write_spans(const std::vector<Tracer::Event>& events,
                 const std::string& path);

}  // namespace perfbench
