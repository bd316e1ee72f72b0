#include "trace.hpp"

#include <cstdio>

namespace perfbench {

const char* span_name(SpanName n) {
  switch (n) {
    case SpanName::kRun: return "harness.run_workload";
    case SpanName::kOp: return "op";
    case SpanName::kRegion: return "locks.region";
    case SpanName::kDsLookup: return "ds.contains";
    case SpanName::kDsInsert: return "ds.insert";
    case SpanName::kDsErase: return "ds.erase";
    case SpanName::kKvGet: return "service.get";
    case SpanName::kKvPut: return "service.put";
    case SpanName::kKvMultiPut: return "service.multi_put";
    case SpanName::kKvTransfer: return "service.transfer";
    case SpanName::kZipf: return "service.zipf_next";
    case SpanName::kClock: return "service.clock_pop";
    case SpanName::kCount: break;
  }
  return "?";
}

std::uint64_t Buckets::sum_ns() const {
  std::uint64_t s = start_ns + loop_ns + gap_ns;
  for (const std::uint64_t v : self_ns) s += v;
  return s;
}

namespace {

// Per-thread stacks of open span ids, indexed by simulated thread + 1 (slot
// 0 is the host context).
class OpenSpans {
 public:
  std::vector<std::uint32_t>& of(int thread) {
    const auto slot = static_cast<std::size_t>(thread + 1);
    if (stacks_.size() <= slot) stacks_.resize(slot + 1);
    return stacks_[slot];
  }
  bool all_closed() const {
    for (const auto& s : stacks_) {
      if (!s.empty()) return false;
    }
    return true;
  }

 private:
  std::vector<std::vector<std::uint32_t>> stacks_;
};

bool well_formed_ends(const std::vector<Tracer::Event>& ev, std::string* why) {
  if (ev.size() < 2 || ev.front().name != SpanName::kRun ||
      ev.front().kind != Tracer::Kind::kBegin ||
      ev.back().name != SpanName::kRun ||
      ev.back().kind == Tracer::Kind::kBegin) {
    *why = "trace does not start and end with the run_workload span";
    return false;
  }
  return true;
}

}  // namespace

bool attribute(const std::vector<Tracer::Event>& ev, Buckets* out,
               std::string* why) {
  if (!well_formed_ends(ev, why)) return false;
  Buckets b;
  OpenSpans open;
  // Per span id: self time, parent, and for region spans the summed and the
  // last child self time.
  std::vector<std::uint64_t> span_self, child_sum, child_last;
  std::vector<std::uint32_t> parent;
  std::vector<SpanName> name_of;
  constexpr std::uint32_t kNoParent = ~0u;
  const std::size_t n = ev.size();
  for (std::size_t i = 0; i < n; ++i) {
    const Tracer::Event& e = ev[i];
    auto& stack = open.of(e.thread);
    if (e.kind == Tracer::Kind::kBegin) {
      if (span_self.size() <= e.span) {
        const std::size_t size = e.span + 1;
        span_self.resize(size, 0);
        child_sum.resize(size, 0);
        child_last.resize(size, 0);
        parent.resize(size, kNoParent);
        name_of.resize(size, SpanName::kCount);
      }
      parent[e.span] = stack.empty() ? kNoParent : stack.back();
      name_of[e.span] = e.name;
      stack.push_back(e.span);
    } else {
      if (stack.empty() || stack.back() != e.span) {
        *why = "unbalanced span end for " + std::string(span_name(e.name));
        return false;
      }
      stack.pop_back();
      const std::uint64_t self = span_self[e.span];
      const auto k = static_cast<std::size_t>(e.name);
      b.self_ns[k] += self;
      ++b.calls[k];
      const std::uint32_t p = parent[e.span];
      if (p != kNoParent && name_of[p] == SpanName::kRegion) {
        child_sum[p] += self;
        child_last[p] = self;
      }
      if (e.name == SpanName::kRegion) b.wasted_ns += child_sum[e.span] - child_last[e.span];
    }
    if (i + 1 == n) break;
    const std::uint64_t dt = ev[i + 1].t_ns - e.t_ns;
    if (i == 0) {
      b.start_ns += dt;
    } else if (i + 2 == n) {
      b.loop_ns += dt;  // last op -> run_workload returns (fiber teardown)
    } else if (ev[i + 1].thread != e.thread) {
      b.gap_ns += dt;
    } else if (stack.empty()) {
      b.loop_ns += dt;  // the runner's loop between two ops of one thread
    } else {
      span_self[stack.back()] += dt;
    }
  }
  if (!open.all_closed()) {
    *why = "trace ended with open spans";
    return false;
  }
  b.wall_ns = ev.back().t_ns - ev.front().t_ns;
  *out = b;
  return true;
}

bool write_spans(const std::vector<Tracer::Event>& ev, const std::string& path) {
  struct Rec {
    SpanName name = SpanName::kCount;
    int thread = 0;
    std::uint32_t parent = 0;
    std::uint64_t start = 0, end = 0;
    bool aborted = false;
  };
  std::vector<Rec> spans;
  OpenSpans open;
  const std::uint64_t t0 = ev.empty() ? 0 : ev.front().t_ns;
  for (const Tracer::Event& e : ev) {
    auto& stack = open.of(e.thread);
    if (e.kind == Tracer::Kind::kBegin) {
      if (spans.size() <= e.span) spans.resize(e.span + 1);
      // A thread's outermost span hangs off the run span (id 0).
      spans[e.span] = {e.name, e.thread, stack.empty() ? 0u : stack.back(),
                       e.t_ns - t0, 0, false};
      stack.push_back(e.span);
    } else {
      if (!stack.empty()) stack.pop_back();
      spans[e.span].end = e.t_ns - t0;
      spans[e.span].aborted = e.kind == Tracer::Kind::kEndAborted;
    }
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "id\tname\tthread\tparent\tstart_ns\tend_ns\taborted\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Rec& r = spans[i];
    std::fprintf(f, "%zu\t%s\t%d\t%u\t%llu\t%llu\t%d\n", i, span_name(r.name),
                 r.thread, r.parent, static_cast<unsigned long long>(r.start),
                 static_cast<unsigned long long>(r.end), r.aborted ? 1 : 0);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
