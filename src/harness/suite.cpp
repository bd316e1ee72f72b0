#include "harness/suite.hpp"

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <iterator>
#include <map>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>

#include "harness/micro_point.hpp"
#include "support/check.hpp"
#include "tsx/telemetry.hpp"

namespace elision::harness {

const char* point_kind_name(PointKind k) {
  switch (k) {
    case PointKind::kRb: return "rb";
    case PointKind::kMicro: return "micro";
    case PointKind::kBtree: return "btree";
    case PointKind::kPhase: return "phase";
    case PointKind::kKv: return "kv";
  }
  return "?";
}

const char* suite_tier_name(SuiteTier t) {
  switch (t) {
    case SuiteTier::kSmoke: return "smoke";
    case SuiteTier::kFull: return "full";
    case SuiteTier::kPaper: return "paper";
  }
  return "?";
}

std::optional<SuiteTier> suite_tier_from_name(const std::string& name) {
  if (name == "smoke") return SuiteTier::kSmoke;
  if (name == "full") return SuiteTier::kFull;
  if (name == "paper") return SuiteTier::kPaper;
  return std::nullopt;
}

namespace {

// ---- per-kind field tables ----
//
// Each kind's point fields, in JSON line order: the key, the member it
// mirrors, the `--list` column it fills (if any), and whether it is an
// override, written only when it differs from a default-constructed point.
// Overrides go on a second line so the lines of points that leave them
// unset stay byte-identical to documents written before the override
// existed. The JSON emitter, the parser and `--list` all walk these tables,
// so a field added here is written, read back and listed consistently.
// Beside each table, id() spells the point's stable id from its fields.
template <class P, class T>
struct Field {
  const char* key;
  T P::*member;
  const char* column;
  bool is_override;

  template <class Q>
  auto& of(Q& p) const {
    return p.*member;
  }
  T default_value() const { return P{}.*member; }
};

// An override of the point's engine configuration (RbPoint::tsx).
template <class T>
struct TsxField {
  const char* key;
  T tsx::TsxConfig::*member;
  const char* column = nullptr;
  bool is_override = true;

  template <class Q>
  auto& of(Q& p) const {
    return p.tsx.*member;
  }
  T default_value() const { return tsx::TsxConfig{}.*member; }
};

template <class P, class T>
constexpr Field<P, T> field(const char* key, T P::*member,
                            const char* column = nullptr) {
  return {key, member, column, false};
}

template <class P, class T>
constexpr Field<P, T> override_field(const char* key, T P::*member) {
  return {key, member, nullptr, true};
}

template <class T>
constexpr TsxField<T> tsx_field(const char* key, T tsx::TsxConfig::*member) {
  return {key, member};
}

const char* conflict_policy_name(tsx::ConflictPolicy c) {
  return c == tsx::ConflictPolicy::kOldestWins ? "oldest-wins"
                                               : "requestor-wins";
}

std::string text(double d);

// Concatenates strings and numbers, the numbers as text() writes them.
template <class... Parts>
std::string cat(const Parts&... parts) {
  std::string out;
  auto append = [&](const auto& part) {
    if constexpr (std::is_arithmetic_v<std::remove_cvref_t<decltype(part)>>) {
      out += text(part);
    } else {
      out += part;
    }
  };
  (append(parts), ...);
  return out;
}

template <class P>
struct Fields;

template <>
struct Fields<RbPoint> {
  static constexpr auto all = std::tuple{
      field("lock", &RbPoint::lock, "lock"),
      field("scheme", &RbPoint::scheme, "scheme"),
      field("size", &RbPoint::size, "size"),
      field("update_pct", &RbPoint::update_pct, "upd%"),
      field("threads", &RbPoint::threads, "thr"),
      field("seeds", &RbPoint::seeds, "seeds"),
      field("duration_sec", &RbPoint::duration_sec),
      field("seed", &RbPoint::seed),
      field("telemetry", &RbPoint::telemetry),
      override_field("n_cores", &RbPoint::n_cores),
      override_field("smt_per_core", &RbPoint::smt_per_core),
      override_field("yield_slack_cycles", &RbPoint::yield_slack_cycles),
      override_field("micro_ops", &RbPoint::micro_ops),
      override_field("micro_shared_period", &RbPoint::micro_shared_period),
      tsx_field("conflict_policy", &tsx::TsxConfig::conflict_policy),
      tsx_field("allow_hle_in_rtm", &tsx::TsxConfig::allow_hle_in_rtm),
      tsx_field("hardware_extension", &tsx::TsxConfig::hardware_extension),
      tsx_field("spurious_per_begin", &tsx::TsxConfig::spurious_per_begin),
      tsx_field("spurious_per_access", &tsx::TsxConfig::spurious_per_access)};

  // rb-s<size>-u<update%>-t<threads>-<lock>-<scheme>, then one tag per
  // setting that tells registered points apart: the machine shape, the
  // engine's conflict policy, Ch. 7 extension and spurious-abort rates, and
  // a duration other than the default 3 ms.
  // allow_hle_in_rtm takes no tag: only hle-scm-nested reads it, and that
  // scheme's name already says it nests.
  static std::string id(const RbPoint& p) {
    const RbPoint def;
    std::string id = cat("rb-s", p.size, "-u", p.update_pct, "-t", p.threads,
                         "-", lock_sel_slug(p.lock), "-", p.scheme.spec());
    if (p.n_cores != 0) id += cat("-m", p.n_cores, "x", p.smt_per_core);
    if (p.tsx.conflict_policy != def.tsx.conflict_policy) {
      id += cat("-", conflict_policy_name(p.tsx.conflict_policy));
    }
    if (p.tsx.hardware_extension) id += "-hwext";
    if (p.tsx.spurious_per_begin != def.tsx.spurious_per_begin) {
      id += cat("-spb", p.tsx.spurious_per_begin);
    }
    if (p.tsx.spurious_per_access != def.tsx.spurious_per_access) {
      id += cat("-spa", p.tsx.spurious_per_access);
    }
    if (p.duration_sec != def.duration_sec) id += cat("-d", p.duration_sec);
    return id;
  }
};

template <>
struct Fields<MicroShape> : Fields<RbPoint> {
  static std::string id(const MicroShape& p) {
    return cat("micro-engine-rtm-t", p.threads);
  }
};

template <>
struct Fields<BtPoint> {
  static constexpr auto all = std::tuple{
      field("lock", &BtPoint::lock, "lock"),
      field("scheme", &BtPoint::policy, "scheme"),
      field("size", &BtPoint::size, "size"),
      field("update_pct", &BtPoint::update_pct, "upd%"),
      field("scan_pct", &BtPoint::scan_pct),
      field("scan_len", &BtPoint::scan_len),
      field("threads", &BtPoint::threads, "thr"),
      field("seeds", &BtPoint::seeds, "seeds"),
      field("duration_sec", &BtPoint::duration_sec),
      field("seed", &BtPoint::seed),
      field("telemetry", &BtPoint::telemetry)};

  // bt-s<size>-u<update%>-c<scan%>-l<scan len>-t<threads>-<lock>-<policy>.
  static std::string id(const BtPoint& p) {
    return cat("bt-s", p.size, "-u", p.update_pct, "-c", p.scan_pct, "-l",
               p.scan_len, "-t", p.threads, "-", shared_lock_sel_name(p.lock),
               "-", p.policy.spec());
  }
};

template <>
struct Fields<PhasePoint> {
  static constexpr auto all = std::tuple{
      field("lock", &PhasePoint::lock, "lock"),
      field("scheme", &PhasePoint::scheme, "scheme"),
      field("size", &PhasePoint::size, "size"),
      field("calm_update_pct", &PhasePoint::calm_update_pct, "upd%"),
      field("storm_update_pct", &PhasePoint::storm_update_pct, "upd%"),
      field("threads", &PhasePoint::threads, "thr"),
      field("seeds", &PhasePoint::seeds, "seeds"),
      field("phase_sec", &PhasePoint::phase_sec),
      field("seed", &PhasePoint::seed),
      field("telemetry", &PhasePoint::telemetry)};

  // ph-s<size>-u<calm%>-<storm%>-t<threads>-<lock>-<scheme>.
  static std::string id(const PhasePoint& p) {
    return cat("ph-s", p.size, "-u", p.calm_update_pct, "-",
               p.storm_update_pct, "-t", p.threads, "-", lock_sel_slug(p.lock),
               "-", p.scheme.spec());
  }
};

template <>
struct Fields<service::KvPoint> {
  using P = service::KvPoint;
  static constexpr auto all = std::tuple{
      field("scheme", &P::policy, "scheme"),
      field("shards", &P::shards),
      field("keys", &P::keys, "size"),
      field("clients", &P::clients),
      field("client_rate_hz", &P::client_rate_hz),
      field("zipf_theta", &P::zipf_theta),
      field("put_pct", &P::put_pct, "upd%"),
      field("multi_put_pct", &P::multi_put_pct, "upd%"),
      field("transfer_pct", &P::transfer_pct, "upd%"),
      field("multi_put_keys", &P::multi_put_keys),
      field("threads", &P::threads, "thr"),
      field("seeds", &P::seeds, "seeds"),
      field("duration_sec", &P::duration_sec),
      field("seed", &P::seed),
      field("telemetry", &P::telemetry)};

  // kv-sh<shards>-k<keys>-z<theta x100>-u<mutating %>-t<threads>-<policy>;
  // the mutating share is put + multi_put + transfer.
  static std::string id(const P& p) {
    return cat("kv-sh", p.shards, "-k", p.keys, "-z",
               static_cast<int>(p.zipf_theta * 100 + 0.5), "-u",
               p.put_pct + p.multi_put_pct + p.transfer_pct, "-t", p.threads,
               "-", p.policy.spec());
  }
};

// Calls fn(field, value) for every field of the spec's kind, in table
// order; `value` is mutable when `spec` is.
template <class Spec, class Fn>
void for_each_field(Spec& spec, Fn&& fn) {
  std::visit(
      [&](auto& p) {
        using P = std::remove_cvref_t<decltype(p)>;
        std::apply([&](const auto&... f) { (fn(f, f.of(p)), ...); },
                   Fields<P>::all);
      },
      spec);
}

// Field values as text: numbers as printf's %d/%u/%zu/%llu/%g write them,
// lock selections and policies by name (JSON-quoted by json_member).
template <class T>
  requires std::is_integral_v<T>
std::string text(T v) {
  return std::to_string(v);
}
std::string text(bool b) { return b ? "true" : "false"; }
std::string text(double d) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", d);
  return buf;
}
std::string text(LockSel l) { return lock_sel_name(l); }
std::string text(tsx::ConflictPolicy c) { return conflict_policy_name(c); }
std::string text(SharedLockSel l) { return shared_lock_sel_name(l); }
std::string text(const locks::ElisionPolicy& p) { return p.spec(); }

template <class T>
std::string json_member(const char* key, const T& v) {
  std::string out = std::string("\"") + key + "\":";
  if constexpr (std::is_arithmetic_v<T>) return out + text(v);
  return out + '"' + support::json::escape(text(v)) + '"';
}

// Reads a JSON value into a field; false if a name does not parse.
template <class T>
  requires std::is_integral_v<T>
bool read(const support::json::Value& v, T& out) {
  out = static_cast<T>(v.as_u64());
  return true;
}
bool read(const support::json::Value& v, bool& out) {
  out = v.as_bool();
  return true;
}
bool read(const support::json::Value& v, double& out) {
  out = v.as_double();
  return true;
}
// E's enumerators are 0..last.
template <class E>
bool read_enum(const support::json::Value& v, E& out, E last) {
  for (int i = 0; i <= static_cast<int>(last); ++i) {
    if (v.as_string() == text(static_cast<E>(i))) {
      out = static_cast<E>(i);
      return true;
    }
  }
  return false;
}
bool read(const support::json::Value& v, LockSel& out) {
  return read_enum(v, out, LockSel::kBackoffTtas);
}
bool read(const support::json::Value& v, tsx::ConflictPolicy& out) {
  return read_enum(v, out, tsx::ConflictPolicy::kOldestWins);
}
bool read(const support::json::Value& v, SharedLockSel& out) {
  return read_enum(v, out, SharedLockSel::kSharedMcs);
}
bool read(const support::json::Value& v, locks::ElisionPolicy& out) {
  const auto p = locks::ElisionPolicy::parse(v.as_string());
  if (p) out = *p;
  return p.has_value();
}

// Default-constructs `spec` as the alternative of the kind named `name`.
template <std::size_t I = 0>
bool emplace_kind(PointSpec& spec, const std::string& name) {
  if constexpr (I == std::variant_size_v<PointSpec>) {
    return false;
  } else {
    if (name == point_kind_name(static_cast<PointKind>(I))) {
      spec.emplace<I>();
      return true;
    }
    return emplace_kind<I + 1>(spec, name);
  }
}

// ---- the registry ----

// Point definitions with the registry's defaults: 3 ms of virtual time (the
// phase points run 1 ms per phase) and two seeds, one for a solo thread.
RbPoint rb(std::size_t size, int update_pct, int threads, LockSel lock,
           locks::ElisionPolicy scheme, bool telemetry = false) {
  RbPoint p;
  p.size = size;
  p.update_pct = update_pct;
  p.threads = threads;
  p.lock = lock;
  p.scheme = scheme;
  p.telemetry = telemetry;
  p.duration_sec = 0.003;
  p.seeds = threads == 1 ? 1 : 2;
  return p;
}

// Algorithm 3 as designed: HLE nested in SCM's RTM transaction, which only
// runs where the engine allows HLE inside RTM (locks/scm.hpp).
RbPoint scm_nested(std::size_t size, int update_pct) {
  RbPoint p = rb(size, update_pct, 8, LockSel::kTtas,
                 locks::ElisionPolicy::hle_scm_nested());
  p.tsx.allow_hle_in_rtm = true;
  return p;
}

// The fig5.1 shape on a `cores`-core / 2-SMT machine. A bit of yield slack
// keeps the wide interleaving from degenerating into access-granularity
// round-robin.
RbPoint big_machine(int threads, unsigned cores) {
  RbPoint p = rb(64, 20, threads, LockSel::kTtas,
                 locks::ElisionPolicy::hle_scm());
  p.n_cores = cores;
  p.smt_per_core = 2;
  p.yield_slack_cycles = 200;
  return p;
}

// Fixed-work simulator-speed canary (harness/micro_point.hpp): one seed, no
// virtual-time limit.
MicroShape micro(int threads, std::size_t words) {
  MicroShape p;
  p.threads = threads;
  p.size = words;
  p.update_pct = 0;
  p.seeds = 1;
  p.duration_sec = 0.0;
  return p;
}

BtPoint bt(std::size_t size, int update_pct, int scan_pct,
           std::size_t scan_len, int threads, SharedLockSel lock,
           locks::ElisionPolicy policy, bool telemetry = false) {
  BtPoint p;
  p.size = size;
  p.update_pct = update_pct;
  p.scan_pct = scan_pct;
  p.scan_len = scan_len;
  p.threads = threads;
  p.lock = lock;
  p.policy = policy;
  p.telemetry = telemetry;
  p.duration_sec = 0.003;
  p.seeds = threads == 1 ? 1 : 2;
  return p;
}

service::KvPoint kv(int shards, std::size_t keys, int clients,
                    double zipf_theta, int put_pct, int multi_put_pct,
                    int transfer_pct, int threads,
                    locks::ElisionPolicy policy, bool telemetry = false) {
  service::KvPoint p;
  p.shards = shards;
  p.keys = keys;
  p.clients = clients;
  p.zipf_theta = zipf_theta;
  p.put_pct = put_pct;
  p.multi_put_pct = multi_put_pct;
  p.transfer_pct = transfer_pct;
  p.threads = threads;
  p.policy = policy;
  p.telemetry = telemetry;
  p.duration_sec = 0.003;
  p.seeds = threads == 1 ? 1 : 2;
  return p;
}

PhasePoint phase(std::size_t size, int calm_pct, int storm_pct, int threads,
                 LockSel lock, locks::ElisionPolicy policy) {
  PhasePoint p;
  p.size = size;
  p.calm_update_pct = calm_pct;
  p.storm_update_pct = storm_pct;
  p.threads = threads;
  p.lock = lock;
  p.scheme = policy;
  p.phase_sec = 0.001;
  p.seeds = 2;
  return p;
}

// A point's definition fields as text, telemetry left out: it records
// events beside the run without changing it.
std::string definition(const PointSpec& spec) {
  std::string out;
  for_each_field(spec, [&](const auto& f, const auto& value) {
    if (std::string_view(f.key) != "telemetry") {
      out += json_member(f.key, value);
    }
  });
  return out;
}

std::vector<SuitePoint> build_points() {
  using locks::ElisionPolicy;
  constexpr SuiteTier S = SuiteTier::kSmoke;
  constexpr SuiteTier F = SuiteTier::kFull;
  std::vector<SuitePoint> points;
  std::map<std::string, std::size_t> index;
  // Registers a point under the id its fields spell. Smoke and full ids are
  // new; a paper-tier sweep may meet a run registered before, which keeps
  // its first tier and figure label and must define the same run.
  auto add = [&](SuiteTier tier, const char* figure, PointSpec spec) {
    std::string id = point_id(spec);
    const auto [at, fresh] = index.emplace(id, points.size());
    if (fresh) {
      points.push_back({std::move(id), tier, figure, std::move(spec)});
    } else {
      ELISION_CHECK_MSG(tier == SuiteTier::kPaper &&
                            definition(points[at->second].spec) ==
                                definition(spec),
                        "two registrations of one suite point id differ");
    }
  };
  auto sweep = [&](const char* figure, PointSpec spec) {
    add(SuiteTier::kPaper, figure, std::move(spec));
  };

  // --- smoke tier: the qualitative backbone of Ch. 3/5/6, < 30s wall ---
  // Contended small tree on TTAS (Fig 5.1/5.2 left edge).
  add(S, "fig5.1", rb(64, 20, 8, LockSel::kTtas, ElisionPolicy::standard()));
  add(S, "fig5.1", rb(64, 20, 8, LockSel::kTtas, ElisionPolicy::hle()));
  add(S, "fig5.2", rb(64, 20, 8, LockSel::kTtas, ElisionPolicy::hle_scm()));
  add(S, "fig5.2",
      rb(64, 20, 8, LockSel::kTtas, ElisionPolicy::opt_slr_scm()));
  // Contended MCS: the avalanche point (Fig 3.3) and its SCM rescue, with
  // telemetry so episode counts land in the results.
  add(S, "fig3.3",
      rb(64, 20, 8, LockSel::kMcs, ElisionPolicy::hle(), /*telemetry=*/true));
  add(S, "fig5.2", rb(64, 20, 8, LockSel::kMcs, ElisionPolicy::hle_scm(),
                      /*telemetry=*/true));
  // Low-contention big tree (Fig 3.4 right edge: elision pays off solo).
  add(S, "fig3.4", rb(8192, 20, 8, LockSel::kTtas, ElisionPolicy::hle()));
  // Ch. 6 fair locks, solo: adjusted ticket/CLH must elide, the unadjusted
  // ticket must not (XRELEASE mismatch on every attempt).
  add(S, "ch6", rb(64, 20, 1, LockSel::kTicketAdj, ElisionPolicy::hle()));
  add(S, "ch6", rb(64, 20, 1, LockSel::kClhAdj, ElisionPolicy::hle()));
  add(S, "ch6", rb(64, 20, 1, LockSel::kTicket, ElisionPolicy::hle()));
  // Simulator-speed canary: fixed-work RTM microbenchmark whose
  // sim_ops_per_sec (simulated ops per host second) gates host-side engine
  // performance. Its simulated metrics are deterministic like every other
  // point's.
  add(S, "sim-speed", micro(8, 1024));
  // Big-machine simulator-speed canary: 64 threads on a 32-core / 2-SMT
  // machine, striped stripes with a sparser shared-line period (every 64th
  // op) and a little yield slack so the scheduler runs long bursts — the
  // configuration the O(log N) ready queue exists for. Gated like the t8
  // canary; the two together pin both ends of the machine-size range.
  {
    MicroShape p = micro(64, 16384);
    p.micro_ops = 8000;
    p.micro_shared_period = 64;
    p.n_cores = 32;
    p.smt_per_core = 2;
    p.yield_slack_cycles = 200;
    add(S, "sim-speed", p);
  }

  // Two-mode B+tree points (shared-mode elision). The read-mostly pair is
  // the headline comparison: identical mix and lock, reads exclusive vs
  // shared. Shared mode pays off through its fallback path: an exclusive
  // fallback read claims the writer word and serializes everyone, while a
  // shared fallback read counts itself on the reader line and coexists —
  // with the elided crowd too, since that line is not the one the crowd
  // subscribes to (see locks/shared_word.hpp). The writer-heavy point
  // watches the reader-avalanche (a writer's real acquisition of the
  // reader-writer word aborts the whole subscribed reader crowd) through
  // telemetry.
  add(S, "shared-elision", bt(1024, 10, 100, 64, 8,
                              SharedLockSel::kSharedTtas,
                              ElisionPolicy::hle()));
  add(S, "shared-elision", bt(1024, 10, 100, 64, 8,
                              SharedLockSel::kSharedTtas,
                              ElisionPolicy::hle().shared()));
  add(S, "shared-avalanche",
      bt(128, 80, 30, 16, 8, SharedLockSel::kSharedTtas,
         ElisionPolicy::hle().shared(), /*telemetry=*/true));

  // Phase-shifting adaptive headline (ROADMAP item 2): one read-mostly ->
  // write-storm -> read-mostly run, adaptive against each of its four
  // static modes. The adaptive invariants key on these ids: adaptive must
  // stay within 10% of the per-phase winner in every phase while every
  // static scheme loses at least one phase.
  for (const ElisionPolicy& pol :
       {ElisionPolicy::adaptive(), ElisionPolicy::hle(),
        ElisionPolicy::hle_scm(), ElisionPolicy::hle_grouped_scm(),
        ElisionPolicy::standard()}) {
    add(S, "adaptive-phases", phase(12, 10, 100, 16, LockSel::kTtas, pol));
  }

  // Sharded KV service under Zipf-skewed open-loop traffic (ROADMAP item 1:
  // the production-shaped workload). The headline pair runs the same
  // moderate-skew mix under per-shard adaptive elision vs the static HLE
  // baseline (plus plain locking for scale); the hot-shard point cranks the
  // skew until one shard saturates and — with telemetry on — must show the
  // avalanche signature there.
  for (const ElisionPolicy& pol :
       {ElisionPolicy::standard(), ElisionPolicy::hle(),
        ElisionPolicy::adaptive()}) {
    add(S, "kv-service", kv(8, 8192, 2000, 0.99, 20, 5, 5, 8, pol));
  }
  add(S, "kv-hot-shard", kv(8, 8192, 4000, 1.20, 40, 5, 5, 8,
                            ElisionPolicy::hle(), /*telemetry=*/true));

  // --- full tier: wider scheme / size / mix / lock coverage ---
  // KV coverage: SCM-managed and grouped-SCM service variants on the
  // standard mix, and a cross-shard-heavy mix exercising the multi-lock
  // elision region and its ordered fallback.
  add(F, "kv-service",
      kv(8, 8192, 2000, 0.99, 20, 5, 5, 8, ElisionPolicy::hle_scm()));
  add(F, "kv-service", kv(8, 8192, 2000, 0.99, 20, 5, 5, 8,
                          ElisionPolicy::hle_grouped_scm()));
  add(F, "kv-cross-shard",
      kv(8, 8192, 2000, 0.99, 10, 25, 25, 8, ElisionPolicy::hle()));
  // Shared-mode coverage: the fair family member, the SCM-managed pair
  // (fallbacks gated through the auxiliary lock never happen on this mix,
  // so the two run identically — speculation already admits everyone), and
  // the no-speculation shared baseline.
  for (const auto& [lock, pol] :
       {std::pair{SharedLockSel::kSharedMcs, ElisionPolicy::hle().shared()},
        std::pair{SharedLockSel::kSharedMcs, ElisionPolicy::hle()},
        std::pair{SharedLockSel::kSharedTtas,
                  ElisionPolicy::hle_scm().shared()},
        std::pair{SharedLockSel::kSharedTtas, ElisionPolicy::hle_scm()},
        std::pair{SharedLockSel::kSharedTtas,
                  ElisionPolicy::standard().shared()}}) {
    add(F, "shared-elision", bt(1024, 10, 100, 64, 8, lock, pol));
  }
  add(F, "fig5.2", rb(64, 20, 8, LockSel::kTtas, ElisionPolicy::pes_slr()));
  add(F, "fig5.2", rb(64, 20, 8, LockSel::kTtas, ElisionPolicy::opt_slr()));
  add(F, "fig5.1", rb(64, 20, 8, LockSel::kMcs, ElisionPolicy::standard()));
  add(F, "fig5.2",
      rb(64, 20, 8, LockSel::kMcs, ElisionPolicy::opt_slr_scm()));
  add(F, "fig3.4", rb(512, 20, 8, LockSel::kTtas, ElisionPolicy::hle()));
  add(F, "fig3.4", rb(32768, 20, 8, LockSel::kTtas, ElisionPolicy::hle()));
  add(F, "fig5.1", rb(64, 0, 8, LockSel::kTtas, ElisionPolicy::hle_scm()));
  add(F, "fig5.1", rb(64, 100, 8, LockSel::kTtas, ElisionPolicy::hle_scm()));
  add(F, "tbl-fairlocks",
      rb(64, 20, 8, LockSel::kTicketAdj, ElisionPolicy::hle_scm()));
  add(F, "tbl-fairlocks",
      rb(64, 20, 8, LockSel::kClhAdj, ElisionPolicy::hle_scm()));
  add(F, "fig3.5",
      rb(64, 20, 8, LockSel::kTtas, ElisionPolicy::rtm_elide()));
  add(F, "abl-scm-nested", scm_nested(64, 20));
  add(F, "abl-grouped-scm",
      rb(64, 20, 8, LockSel::kTtas, ElisionPolicy::hle_grouped_scm()));
  // Big-machine scaling points: the fig5.1 shape at 64 threads on a 32-core
  // / 2-SMT machine — the regime Fissile Locks / the HTM tree template
  // report from and the reason the scheduler grew an O(log N) ready queue —
  // extended to 128 and 256 threads on proportionally wider machines (256
  // is the scheduler's kMaxSimThreads cap and exercises the ready queue's
  // full two-level tournament). The per-access fast path bought the host
  // headroom to simulate them in the full tier at all.
  add(F, "fig5.1-big", big_machine(64, 32));
  add(F, "fig5.1-big", big_machine(128, 64));
  add(F, "fig5.1-big", big_machine(256, 128));

  // --- paper tier: every run of the RB-tree figures of Ch. 3-7 and of the
  // RB ablations, swept over their axes (scripts/figures.py renders them).
  // Figures share their baselines, so a run registered before keeps its
  // first tier and label.
  const std::size_t sizes[] = {2, 8, 32, 128, 512, 2048, 8192, 32768};
  const LockSel ttas_mcs[] = {LockSel::kTtas, LockSel::kMcs};
  // Fig 3.4: plain HLE against the standard lock, by contention.
  for (const int threads : {4, 8}) {
    for (const Mix& mix : kMixes) {
      for (const LockSel lock : ttas_mcs) {
        for (const std::size_t size : sizes) {
          for (const ElisionPolicy& pol :
               {ElisionPolicy::standard(), ElisionPolicy::hle()}) {
            sweep("fig3.4", rb(size, mix.update_pct, threads, lock, pol));
          }
        }
      }
    }
  }
  // Fig 3.5 (RTM-based elision) and Fig 5.2 (the software-assisted schemes)
  // at 8 threads, over the same axes. Fig 5.3 is Fig 5.2's 50i-50d slice.
  for (const Mix& mix : kMixes) {
    for (const LockSel lock : ttas_mcs) {
      for (const std::size_t size : sizes) {
        sweep("fig3.5",
              rb(size, mix.update_pct, 8, lock, ElisionPolicy::rtm_elide()));
        for (const ElisionPolicy& pol :
             {ElisionPolicy::hle_scm(), ElisionPolicy::pes_slr(),
              ElisionPolicy::opt_slr(), ElisionPolicy::opt_slr_scm()}) {
          sweep("fig5.2", rb(size, mix.update_pct, 8, lock, pol));
        }
      }
    }
  }
  // Ch. 7: plain HLE without and with the proposed hardware extension, for
  // a quarter of the default duration: 3 ms never finish on the 8-key TTAS
  // tree with updates (the extension's run livelocks or crashes somewhere
  // past 0.75 ms of virtual time).
  for (const Mix& mix : kMixes) {
    for (const LockSel lock : ttas_mcs) {
      for (const std::size_t size : {8, 128, 2048, 32768}) {
        for (const bool extension : {false, true}) {
          RbPoint p = rb(size, mix.update_pct, 8, lock, ElisionPolicy::hle());
          p.duration_sec = 0.00075;
          p.tsx.hardware_extension = extension;
          sweep("ch7", p);
        }
      }
    }
  }
  // Ch. 6: the fair locks, unadjusted and adjusted, beside MCS.
  for (const LockSel lock : {LockSel::kTicket, LockSel::kClh,
                             LockSel::kTicketAdj, LockSel::kClhAdj,
                             LockSel::kMcs}) {
    for (const std::size_t size : {64, 2048, 32768}) {
      for (const ElisionPolicy& pol :
           {ElisionPolicy::standard(), ElisionPolicy::hle(),
            ElisionPolicy::hle_scm()}) {
        sweep("tbl-fairlocks", rb(size, 20, 8, lock, pol));
      }
    }
  }
  // Ablation: opt-SLR with and without SCM under requestor-wins and the
  // TLR-style oldest-wins conflict policy.
  for (const std::size_t size : {16, 128, 2048}) {
    for (const auto policy : {tsx::ConflictPolicy::kRequestorWins,
                              tsx::ConflictPolicy::kOldestWins}) {
      for (const ElisionPolicy& pol :
           {ElisionPolicy::opt_slr(), ElisionPolicy::opt_slr_scm()}) {
        RbPoint p = rb(size, 100, 8, LockSel::kTtas, pol);
        p.tsx.conflict_policy = policy;
        sweep("abl-conflict-policy", p);
      }
    }
  }
  // Ablation: Algorithm 3 as designed against the evaluated workaround.
  for (const std::size_t size : {64, 2048}) {
    for (const int update_pct : {20, 100}) {
      sweep("abl-scm-nested", rb(size, update_pct, 8, LockSel::kTtas,
                                 ElisionPolicy::hle_scm()));
      sweep("abl-scm-nested", scm_nested(size, update_pct));
    }
  }
  // Ablations of Sec. 5.1 / 2.2 / Ch. 8: the SCM MAX_RETRIES sweep, the
  // spurious-abort rate on a lookup-only tree, and backoff against SCM.
  for (const int retries : {0, 1, 2, 5, 10, 20, 50}) {
    sweep("abl-tuning",
          rb(128, 100, 8, LockSel::kMcs,
             ElisionPolicy::hle_scm().with_scm_retries(retries)));
  }
  for (const auto& [per_begin, per_access] :
       {std::pair{0.0, 0.0}, std::pair{1e-5, 2e-7}, std::pair{1e-4, 2e-6},
        std::pair{1e-3, 2e-5}, std::pair{1e-2, 2e-4}}) {
    RbPoint p = rb(2048, 0, 8, LockSel::kMcs, ElisionPolicy::hle());
    p.tsx.spurious_per_begin = per_begin;
    p.tsx.spurious_per_access = per_access;
    sweep("abl-tuning", p);
  }
  for (const auto& [lock, pol] :
       {std::pair{LockSel::kTtas, ElisionPolicy::hle()},
        std::pair{LockSel::kBackoffTtas, ElisionPolicy::hle()},
        std::pair{LockSel::kTtas, ElisionPolicy::hle_scm()}}) {
    sweep("abl-tuning", rb(128, 100, 8, lock, pol));
  }
  return points;
}

}  // namespace

std::string point_id(const PointSpec& spec) {
  return std::visit(
      [](const auto& p) {
        return Fields<std::remove_cvref_t<decltype(p)>>::id(p);
      },
      spec);
}

const std::vector<SuitePoint>& suite_points() {
  static const std::vector<SuitePoint> points = build_points();
  return points;
}

std::vector<SuitePoint> suite_points_for(SuiteTier tier) {
  std::vector<SuitePoint> out;
  for (const auto& p : suite_points()) {
    if (p.tier <= tier) out.push_back(p);
  }
  return out;
}

std::vector<std::string> list_cells(const SuitePoint& sp) {
  std::vector<std::string> cells(std::size(kListColumns));
  for_each_field(sp.spec, [&](const auto& f, const auto& value) {
    if (f.column == nullptr) return;
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (std::string_view(f.column) != kListColumns[c]) continue;
      if (!cells[c].empty()) cells[c] += '-';
      cells[c] += text(value);
    }
  });
  for (auto& cell : cells) {
    if (cell.empty()) cell.push_back('-');
  }
  return cells;
}

PointMetrics PointMetrics::derive(const RunStats& stats) {
  PointMetrics m;
  m.throughput_ops_per_sec = stats.throughput();
  m.nonspec_fraction = stats.nonspec_fraction();
  m.spec_fraction =
      stats.ops > 0 ? static_cast<double>(stats.spec_ops) /
                          static_cast<double>(stats.ops)
                    : 0.0;
  m.attempts_per_op = stats.attempts_per_op();
  m.ops = stats.ops;
  m.attempts = stats.attempts;
  m.elapsed_cycles = stats.elapsed_cycles;
  m.tx_begins = stats.tx.begins;
  m.tx_commits = stats.tx.commits;
  m.tx_aborts = stats.tx.aborts;
  const auto n_causes = static_cast<std::size_t>(tsx::AbortCause::kCauseCount);
  m.aborts_by_cause.assign(n_causes, 0);
  for (std::size_t c = 0; c < n_causes; ++c) {
    m.aborts_by_cause[c] = stats.tx.aborts_by_cause[c];
  }
  m.avalanche_episodes = stats.episodes.size();
  for (const auto& ep : stats.episodes) {
    m.avalanche_victims += static_cast<std::uint64_t>(ep.victim_count());
  }
  for (const auto& ol : stats.op_latency) {
    m.latency.push_back({ol.op, ol.hist.samples(), ol.hist.quantile(0.50),
                         ol.hist.quantile(0.99), ol.hist.quantile(0.999),
                         ol.hist.max()});
  }
  m.fp_switches = stats.fp_switches;
  return m;
}

const PointRecord* SuiteResult::find(const std::string& id) const {
  for (const auto& p : points) {
    if (p.def.id == id) return &p;
  }
  return nullptr;
}

namespace {

RunStats run_spec(const RbPoint& p) { return run_rb_point(p); }
RunStats run_spec(const BtPoint& p) { return run_bt_point(p); }
RunStats run_spec(const PhasePoint& p) { return run_phase_point(p); }
RunStats run_spec(const service::KvPoint& p) {
  return service::run_kv_point(p);
}
RunStats run_spec(const MicroShape& p) {
  MicroPoint mp;
  mp.threads = p.threads;
  mp.array_words = p.size;
  mp.seed = p.seed;
  if (p.micro_ops != 0) mp.ops_per_thread = p.micro_ops;
  if (p.micro_shared_period != 0) mp.shared_period = p.micro_shared_period;
  mp.n_cores = p.n_cores;
  mp.smt_per_core = p.smt_per_core;
  mp.yield_slack_cycles = p.yield_slack_cycles;
  return run_micro_point(mp);
}

}  // namespace

PointRecord run_suite_point(const SuitePoint& sp, int host_threads) {
  PointSpec spec = sp.spec;
  std::visit([&](auto& p) { p.host_threads = std::max(host_threads, 1); },
             spec);
  const auto t0 = std::chrono::steady_clock::now();
  const RunStats stats =
      std::visit([](const auto& p) { return run_spec(p); }, spec);
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
  PointMetrics m = PointMetrics::derive(stats);
  if (sp.kind() == PointKind::kPhase) {
    const auto per_phase = phase_ops_of(stats);
    m.phase_ops.assign(per_phase.begin(), per_phase.end());
  }
  m.wall_ms = wall_ms;
  m.sim_ops_per_sec =
      wall_ms > 0 ? static_cast<double>(m.ops) / (wall_ms / 1e3) : 0.0;
  return {sp, m};
}

// ---- canonical JSON results ----

namespace {

void write_point_json(const PointRecord& r, std::FILE* out) {
  const auto& d = r.def;
  const auto& m = r.metrics;
  std::fprintf(out,
               "    {\"id\":\"%s\",\"tier\":\"%s\",\"figure\":\"%s\","
               "\"kind\":\"%s\",",
               support::json::escape(d.id).c_str(), suite_tier_name(d.tier),
               support::json::escape(d.figure).c_str(),
               point_kind_name(d.kind()));
  std::string overrides;
  for_each_field(d.spec, [&](const auto& f, const auto& value) {
    if (!f.is_override) {
      std::fprintf(out, "%s,", json_member(f.key, value).c_str());
    } else if (!(value == f.default_value())) {
      overrides += json_member(f.key, value) + ",";
    }
  });
  std::fprintf(out, "\n");
  if (!overrides.empty()) std::fprintf(out, "     %s\n", overrides.c_str());
  std::fprintf(
      out,
      "     \"metrics\":{\"throughput_ops_per_sec\":%.3f,"
      "\"spec_fraction\":%.6f,\"nonspec_fraction\":%.6f,"
      "\"attempts_per_op\":%.6f,\"ops\":%llu,\"attempts\":%llu,"
      "\"elapsed_cycles\":%llu,\"tx\":{\"begins\":%llu,\"commits\":%llu,"
      "\"aborts\":%llu},",
      m.throughput_ops_per_sec, m.spec_fraction, m.nonspec_fraction,
      m.attempts_per_op, static_cast<unsigned long long>(m.ops),
      static_cast<unsigned long long>(m.attempts),
      static_cast<unsigned long long>(m.elapsed_cycles),
      static_cast<unsigned long long>(m.tx_begins),
      static_cast<unsigned long long>(m.tx_commits),
      static_cast<unsigned long long>(m.tx_aborts));
  std::fprintf(out, "\"aborts_by_cause\":{");
  for (std::size_t c = 0; c < m.aborts_by_cause.size(); ++c) {
    std::fprintf(out, "%s\"%s\":%llu", c == 0 ? "" : ",",
                 tsx::to_string(static_cast<tsx::AbortCause>(c)),
                 static_cast<unsigned long long>(m.aborts_by_cause[c]));
  }
  std::fprintf(out,
               "},\"avalanche_episodes\":%llu,\"avalanche_victims\":%llu,",
               static_cast<unsigned long long>(m.avalanche_episodes),
               static_cast<unsigned long long>(m.avalanche_victims));
  if (!m.phase_ops.empty()) {
    std::fprintf(out, "\"phase_ops\":[");
    for (std::size_t p = 0; p < m.phase_ops.size(); ++p) {
      std::fprintf(out, "%s%llu", p == 0 ? "" : ",",
                   static_cast<unsigned long long>(m.phase_ops[p]));
    }
    std::fprintf(out, "],");
  }
  if (!m.latency.empty()) {
    std::fprintf(out, "\"latency\":{");
    for (std::size_t l = 0; l < m.latency.size(); ++l) {
      const auto& ol = m.latency[l];
      std::fprintf(out,
                   "%s\"%s\":{\"samples\":%llu,\"p50_cycles\":%llu,"
                   "\"p99_cycles\":%llu,\"p999_cycles\":%llu,"
                   "\"max_cycles\":%llu}",
                   l == 0 ? "" : ",", support::json::escape(ol.op).c_str(),
                   static_cast<unsigned long long>(ol.samples),
                   static_cast<unsigned long long>(ol.p50_cycles),
                   static_cast<unsigned long long>(ol.p99_cycles),
                   static_cast<unsigned long long>(ol.p999_cycles),
                   static_cast<unsigned long long>(ol.max_cycles));
    }
    std::fprintf(out, "},");
  }
  if (m.fp_switches != 0) {
    std::fprintf(out, "\"fastpath\":{\"switches\":%llu},",
                 static_cast<unsigned long long>(m.fp_switches));
  }
  std::fprintf(out, "\"sim_ops_per_sec\":%.3f,\"wall_ms\":%.3f}}",
               m.sim_ops_per_sec, m.wall_ms);
}

}  // namespace

void write_results_json(const SuiteResult& result, std::FILE* out) {
  std::fprintf(out,
               "{\n  \"schema_version\":%d,\n  \"suite\":\"elision-bench\",\n"
               "  \"tier\":\"%s\",\n  \"run\":{\"duration_scale\":%g,"
               "\"telemetry_compiled\":%s,"
               "\"machine\":{\"n_cores\":%u,\"smt_per_core\":%u,"
               "\"ghz\":%g},"
               "\"host\":{\"cores\":%u,\"jobs\":%d,\"host_threads\":%d,"
               "\"total_wall_ms\":%.3f}},\n  \"points\":[\n",
               kSuiteSchemaVersion, suite_tier_name(result.tier),
               result.duration_scale,
               result.telemetry_compiled ? "true" : "false", result.n_cores,
               result.smt_per_core, result.ghz, result.host_cores,
               result.jobs, result.host_threads, result.total_wall_ms);
  for (std::size_t i = 0; i < result.points.size(); ++i) {
    write_point_json(result.points[i], out);
    std::fprintf(out, "%s\n", i + 1 < result.points.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
}

namespace {

using support::json::Value;

// Member `key` of `obj` as a number (0 when absent or `obj` is null).
double num(const Value* obj, const char* key) {
  const Value* v = obj != nullptr ? obj->find(key) : nullptr;
  return v != nullptr ? v->as_double() : 0.0;
}
std::uint64_t u64(const Value* obj, const char* key) {
  const Value* v = obj != nullptr ? obj->find(key) : nullptr;
  return v != nullptr ? v->as_u64() : 0;
}

PointMetrics parse_metrics(const Value* metrics) {
  PointMetrics m;
  m.throughput_ops_per_sec = num(metrics, "throughput_ops_per_sec");
  m.spec_fraction = num(metrics, "spec_fraction");
  m.nonspec_fraction = num(metrics, "nonspec_fraction");
  m.attempts_per_op = num(metrics, "attempts_per_op");
  m.ops = u64(metrics, "ops");
  m.attempts = u64(metrics, "attempts");
  m.elapsed_cycles = u64(metrics, "elapsed_cycles");
  const Value* tx = metrics->find("tx");
  m.tx_begins = u64(tx, "begins");
  m.tx_commits = u64(tx, "commits");
  m.tx_aborts = u64(tx, "aborts");
  const auto n_causes = static_cast<std::size_t>(tsx::AbortCause::kCauseCount);
  m.aborts_by_cause.assign(n_causes, 0);
  const Value* causes = metrics->find("aborts_by_cause");
  for (std::size_t c = 0; c < n_causes; ++c) {
    m.aborts_by_cause[c] =
        u64(causes, tsx::to_string(static_cast<tsx::AbortCause>(c)));
  }
  m.avalanche_episodes = u64(metrics, "avalanche_episodes");
  m.avalanche_victims = u64(metrics, "avalanche_victims");
  if (const Value* v = metrics->find("phase_ops")) {
    for (const Value& item : v->items()) m.phase_ops.push_back(item.as_u64());
  }
  if (const Value* lat = metrics->find("latency")) {
    for (const auto& mem : lat->members()) {
      const Value* l = &mem.value;
      m.latency.push_back({mem.key, u64(l, "samples"), u64(l, "p50_cycles"),
                           u64(l, "p99_cycles"), u64(l, "p999_cycles"),
                           u64(l, "max_cycles")});
    }
  }
  m.fp_switches = u64(metrics->find("fastpath"), "switches");
  m.sim_ops_per_sec = num(metrics, "sim_ops_per_sec");
  m.wall_ms = num(metrics, "wall_ms");
  return m;
}

std::optional<PointRecord> parse_point(const Value& p) {
  const Value* id = p.find("id");
  const Value* metrics = p.find("metrics");
  if (!p.is_object() || id == nullptr || metrics == nullptr ||
      !metrics->is_object()) {
    return std::nullopt;
  }
  PointRecord rec;
  rec.def.id = id->as_string();
  if (const Value* tier = p.find("tier")) {
    const auto t = suite_tier_from_name(tier->as_string());
    if (!t) return std::nullopt;
    rec.def.tier = *t;
  }
  if (const Value* fig = p.find("figure")) rec.def.figure = fig->as_string();
  if (const Value* kind = p.find("kind")) {
    if (!emplace_kind(rec.def.spec, kind->as_string())) return std::nullopt;
  }
  bool ok = true;
  for_each_field(rec.def.spec, [&](const auto& f, auto& value) {
    if (const Value* v = p.find(f.key)) ok = read(*v, value) && ok;
  });
  if (!ok) return std::nullopt;
  rec.metrics = parse_metrics(metrics);
  return rec;
}

}  // namespace

std::optional<SuiteResult> parse_results_json(const Value& doc) {
  if (!doc.is_object()) return std::nullopt;
  const Value* version = doc.find("schema_version");
  if (version == nullptr ||
      static_cast<int>(version->as_double()) != kSuiteSchemaVersion) {
    return std::nullopt;
  }
  SuiteResult out;
  if (const Value* tier = doc.find("tier")) {
    const auto t = suite_tier_from_name(tier->as_string());
    if (!t) return std::nullopt;
    out.tier = *t;
  }
  if (const Value* run = doc.find("run")) {
    if (const Value* v = run->find("duration_scale")) {
      out.duration_scale = v->as_double(1.0);
    }
    if (const Value* tc = run->find("telemetry_compiled")) {
      out.telemetry_compiled = tc->as_bool();
    }
    const Value* machine = run->find("machine");
    out.n_cores = static_cast<unsigned>(u64(machine, "n_cores"));
    out.smt_per_core = static_cast<unsigned>(u64(machine, "smt_per_core"));
    out.ghz = num(machine, "ghz");
    // Documents from before a host field existed parse with its default.
    if (const Value* host = run->find("host")) {
      out.host_cores = static_cast<unsigned>(u64(host, "cores"));
      if (const Value* v = host->find("jobs")) {
        out.jobs = static_cast<int>(v->as_u64());
      }
      if (const Value* v = host->find("host_threads")) {
        out.host_threads = static_cast<int>(v->as_u64());
      }
      out.total_wall_ms = num(host, "total_wall_ms");
    }
  }
  const Value* points = doc.find("points");
  if (points == nullptr || !points->is_array()) return std::nullopt;
  for (const Value& p : points->items()) {
    auto rec = parse_point(p);
    if (!rec) return std::nullopt;
    out.points.push_back(std::move(*rec));
  }
  return out;
}

std::optional<SuiteResult> load_results_file(const std::string& path) {
  const auto doc = support::json::parse_file(path.c_str());
  if (!doc) return std::nullopt;
  return parse_results_json(*doc);
}

// ---- regression gate ----

namespace {

// A point as the writer renders it, parsed back: numbers compare at their
// printed precision. The host fields are zeroed, and so are the avalanche
// counters unless both documents have telemetry compiled in.
Value deterministic_view(PointRecord r, bool with_avalanche) {
  r.metrics.sim_ops_per_sec = 0;
  r.metrics.wall_ms = 0;
  if (!with_avalanche) {
    r.metrics.avalanche_episodes = 0;
    r.metrics.avalanche_victims = 0;
  }
  char* buf = nullptr;
  std::size_t len = 0;
  std::FILE* f = open_memstream(&buf, &len);
  write_point_json(r, f);
  std::fclose(f);
  auto v = support::json::parse(std::string_view(buf, len));
  std::free(buf);
  return std::move(*v);
}

std::string leaf_text(const Value& v) {
  if (v.is_null()) return "absent";
  if (v.is_bool()) return text(v.as_bool());
  if (v.is_string()) return v.as_string();
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.15g", v.as_double());
  return buf;
}

// One regression per leaf key whose value differs between the two views
// (a key on one side only reads "absent" on the other).
void diff_views(const Value& base, const Value& cur, const std::string& key,
                const std::string& id, std::vector<GateIssue>& out) {
  const Value absent;
  auto child = [&](const std::string& k) {
    return key.empty() ? k : key + "." + k;
  };
  if (base.is_object() || cur.is_object()) {
    for (const auto& m : base.members()) {
      const Value* c = cur.find(m.key);
      diff_views(m.value, c != nullptr ? *c : absent, child(m.key), id, out);
    }
    for (const auto& m : cur.members()) {
      if (base.find(m.key) == nullptr) {
        diff_views(absent, m.value, child(m.key), id, out);
      }
    }
    return;
  }
  if (base.is_array() || cur.is_array()) {
    for (std::size_t i = 0; i < std::max(base.size(), cur.size()); ++i) {
      diff_views(i < base.size() ? base.items()[i] : absent,
                 i < cur.size() ? cur.items()[i] : absent,
                 key + "[" + std::to_string(i) + "]", id, out);
    }
    return;
  }
  if (base.type() != cur.type() || base.as_double() != cur.as_double() ||
      base.as_bool() != cur.as_bool() || base.as_string() != cur.as_string()) {
    out.push_back({id, key, leaf_text(base), leaf_text(cur),
                   "differs from the baseline"});
  }
}

std::string run_config(const SuiteResult& r) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "duration_scale %g, machine %ux%u @ %g GHz",
                r.duration_scale, r.n_cores, r.smt_per_core, r.ghz);
  return buf;
}

}  // namespace

GateReport compare_to_baseline(const SuiteResult& current,
                               const SuiteResult& baseline,
                               double simops_rel) {
  GateReport report;
  if (run_config(current) != run_config(baseline)) {
    report.regressions.push_back(
        {"run", "config", run_config(baseline), run_config(current),
         "not comparable: rerun at the baseline's duration scale and "
         "machine"});
    return report;
  }
  const bool with_avalanche =
      current.telemetry_compiled && baseline.telemetry_compiled;

  for (const auto& cur : current.points) {
    const PointRecord* base = baseline.find(cur.def.id);
    if (base == nullptr) {
      report.notes.push_back("point " + cur.def.id +
                             " is not in the baseline (new point; refresh "
                             "the baseline to gate it)");
      continue;
    }
    diff_views(deterministic_view(*base, with_avalanche),
               deterministic_view(cur, with_avalanche), "", cur.def.id,
               report.regressions);

    // Host simulator speed. Only meaningful when both sides report it (old
    // baselines carry 0) and the tolerance is enabled; wall_ms itself is
    // never gated, only the ratio metric.
    const double bs = base->metrics.sim_ops_per_sec;
    const double cs = cur.metrics.sim_ops_per_sec;
    if (bs > 0 && cs > 0 && simops_rel < 1.0 && cs < bs * (1 - simops_rel)) {
      report.regressions.push_back(
          {cur.def.id, "metrics.sim_ops_per_sec", text(bs), text(cs),
           "simulator executes this point more than " +
               std::to_string(static_cast<int>(simops_rel * 100)) +
               "% slower than the baseline host run"});
    }
  }

  // Coverage loss: a baseline point of this tier that no longer runs.
  for (const auto& base : baseline.points) {
    if (base.def.tier > current.tier) {
      continue;  // a smaller tier runs only its subset of the baseline
    }
    if (current.find(base.def.id) == nullptr) {
      report.regressions.push_back(
          {base.def.id, "coverage", "present", "absent",
           "baseline point missing from this run (coverage loss)"});
    }
  }
  return report;
}

void print_gate_report(const GateReport& report, std::FILE* out) {
  for (const auto& note : report.notes) {
    std::fprintf(out, "note: %s\n", note.c_str());
  }
  for (const auto& reg : report.regressions) {
    std::fprintf(out, "REGRESSION: %s %s: %s -> %s (%s)\n",
                 reg.point_id.c_str(), reg.key.c_str(), reg.baseline.c_str(),
                 reg.current.c_str(), reg.detail.c_str());
  }
  std::fprintf(out, "gate: %zu regression(s), %zu note(s)\n",
               report.regressions.size(), report.notes.size());
}

// ---- paper-qualitative invariants ----

namespace {

InvariantResult skipped(const char* name, const char* why) {
  return {name, /*ok=*/true, /*skipped=*/true, why};
}

}  // namespace

std::vector<InvariantResult> check_invariants(const SuiteResult& result) {
  std::vector<InvariantResult> out;
  auto point = [&](const char* id) { return result.find(id); };
  char buf[256];

  // The recurring shapes. Point `a` (labelled `a_label` in the detail)
  // matches or — when `strict` — beats point `b` on throughput.
  auto beats = [&](const char* name, const char* a_id, const char* a_label,
                   const char* b_id, const char* b_label, bool strict) {
    const auto* a = point(a_id);
    const auto* b = point(b_id);
    if (a == nullptr || b == nullptr) {
      out.push_back(skipped(name, "required points not in this tier"));
      return;
    }
    const double at = a->metrics.throughput_ops_per_sec;
    const double bt = b->metrics.throughput_ops_per_sec;
    std::snprintf(buf, sizeof buf, "%s %.3g ops/s vs %s %.3g ops/s", a_label,
                  at, b_label, bt);
    out.push_back({name, strict ? at > bt : at >= bt, false, buf});
  };
  // One point's fraction `metric` is at least `want` (exactly 0 when `want`
  // is 0).
  auto fraction = [&](const char* name, const char* id,
                      double PointMetrics::*metric, const char* label,
                      double want) {
    const auto* p = point(id);
    if (p == nullptr) {
      out.push_back(skipped(name, "required point not in this tier"));
      return;
    }
    const double v = p->metrics.*metric;
    if (want > 0) {
      std::snprintf(buf, sizeof buf, "%s %.4f (want >= %g)", label, v, want);
    } else {
      std::snprintf(buf, sizeof buf, "%s %.4f (want 0)", label, v);
    }
    out.push_back({name, want > 0 ? v >= want : v == 0.0, false, buf});
  };
  // One telemetry point recorded at least one avalanche episode.
  auto avalanche = [&](const char* name, const char* id) {
    const auto* p = point(id);
    if (p == nullptr) {
      out.push_back(skipped(name, "required point not in this tier"));
    } else if (!result.telemetry_compiled) {
      out.push_back(skipped(name, "telemetry compiled out"));
    } else {
      std::snprintf(
          buf, sizeof buf, "%llu avalanche episodes (want >= 1)",
          static_cast<unsigned long long>(p->metrics.avalanche_episodes));
      out.push_back({name, p->metrics.avalanche_episodes >= 1, false, buf});
    }
  };

  // (1) SCM >= plain HLE throughput on the contended MCS point: software
  // conflict management eliminates the avalanche (Fig 5.2 headline claim).
  beats("scm-beats-hle-on-contended-mcs", "rb-s64-u20-t8-mcs-hle-scm",
        "HLE-SCM", "rb-s64-u20-t8-mcs-hle", "HLE", /*strict=*/false);
  // (2) Same on the contended TTAS point (gains appear under contention).
  beats("scm-beats-hle-on-contended-ttas", "rb-s64-u20-t8-ttas-hle-scm",
        "HLE-SCM", "rb-s64-u20-t8-ttas-hle", "HLE", /*strict=*/false);

  // (3) Adjusted ticket/CLH locks commit speculatively when solo (Ch. 6:
  // the release-store adjustment restores XRELEASE elision).
  fraction("adjusted-ticket-elides-solo", "rb-s64-u20-t1-ticket-adj-hle",
           &PointMetrics::spec_fraction, "spec fraction", 0.9);
  fraction("adjusted-clh-elides-solo", "rb-s64-u20-t1-clh-adj-hle",
           &PointMetrics::spec_fraction, "spec fraction", 0.9);
  // (4) The unadjusted ticket lock never elides: its release store does not
  // restore the lock word, so every speculative attempt aborts.
  fraction("unadjusted-ticket-serializes", "rb-s64-u20-t1-ticket-hle",
           &PointMetrics::nonspec_fraction, "nonspec fraction", 0.99);
  // (5) The standard scheme never speculates.
  fraction("standard-is-nonspeculative", "rb-s64-u20-t8-ttas-standard",
           &PointMetrics::spec_fraction, "spec fraction", 0.0);

  // (6) HLE over MCS on a contended small tree exhibits the avalanche
  // (Fig 3.3); requires telemetry.
  avalanche("hle-mcs-avalanche-detected", "rb-s64-u20-t8-mcs-hle");

  // (7) Shared-mode elision pays off on the read-mostly B+tree point: with
  // 90% lookups/scans, the `+shared` policy (fallback readers coexist with
  // each other and with the elided crowd) must beat the exclusive-elided
  // equivalent, whose fallback reads serialize through the writer word.
  beats("shared-elision-beats-exclusive-read-mostly",
        "bt-s1024-u10-c100-l64-t8-shared-ttas-hle+shared", "hle+shared",
        "bt-s1024-u10-c100-l64-t8-shared-ttas-hle", "hle", /*strict=*/true);

  // (8) The writer-heavy B+tree point exhibits the reader avalanche: real
  // writer acquisitions of the reader-writer word abort the subscribed
  // elided-reader crowd, visible as telemetry episodes.
  avalanche("shared-btree-reader-avalanche-detected",
            "bt-s128-u80-c30-l16-t8-shared-ttas-hle+shared");

  // (9)+(10) The adaptive-elision headline on the phase-shifting point
  // (docs/adaptive.md): per phase, adaptive must commit at least 90% of the
  // best static scheme's ops — while each static scheme must itself fall
  // below that bar in at least one phase (i.e. no static scheme dominates;
  // only the controller tracks the per-phase winner).
  {
    const char* adaptive_id = "ph-s12-u10-100-t16-ttas-adaptive";
    const char* static_ids[] = {
        "ph-s12-u10-100-t16-ttas-hle",
        "ph-s12-u10-100-t16-ttas-hle-scm",
        "ph-s12-u10-100-t16-ttas-hle-gscm",
        "ph-s12-u10-100-t16-ttas-standard",
    };
    const double bar = 0.9;
    const auto* ad = point(adaptive_id);
    bool have_all = ad != nullptr && ad->metrics.phase_ops.size() == 3;
    std::vector<const PointRecord*> statics;
    for (const char* id : static_ids) {
      const auto* p = point(id);
      if (p == nullptr || p->metrics.phase_ops.size() != 3) have_all = false;
      statics.push_back(p);
    }
    if (!have_all) {
      out.push_back(skipped("adaptive-tracks-phase-winner",
                            "phase points not in this tier"));
      out.push_back(skipped("every-static-scheme-loses-a-phase",
                            "phase points not in this tier"));
    } else {
      // Per-phase best among the static schemes.
      std::uint64_t best[3] = {0, 0, 0};
      for (const auto* p : statics) {
        for (int ph = 0; ph < 3; ++ph) {
          if (p->metrics.phase_ops[static_cast<std::size_t>(ph)] > best[ph]) {
            best[ph] = p->metrics.phase_ops[static_cast<std::size_t>(ph)];
          }
        }
      }
      {
        const char* name = "adaptive-tracks-phase-winner";
        bool ok = true;
        int worst_phase = 0;
        double worst_ratio = 1e9;
        for (int ph = 0; ph < 3; ++ph) {
          const double ratio =
              best[ph] > 0
                  ? static_cast<double>(
                        ad->metrics.phase_ops[static_cast<std::size_t>(ph)]) /
                        static_cast<double>(best[ph])
                  : 1.0;
          if (ratio < worst_ratio) {
            worst_ratio = ratio;
            worst_phase = ph;
          }
          if (ratio < bar) ok = false;
        }
        std::snprintf(buf, sizeof buf,
                      "worst phase %d: adaptive at %.2fx the best static "
                      "scheme (want >= %.2fx in every phase)",
                      worst_phase, worst_ratio, bar);
        out.push_back({name, ok, false, buf});
      }
      {
        const char* name = "every-static-scheme-loses-a-phase";
        bool ok = true;
        std::string detail;
        for (std::size_t i = 0; i < statics.size(); ++i) {
          const auto* p = statics[i];
          bool loses_somewhere = false;
          for (int ph = 0; ph < 3; ++ph) {
            const auto ops =
                p->metrics.phase_ops[static_cast<std::size_t>(ph)];
            if (static_cast<double>(ops) <
                bar * static_cast<double>(best[ph])) {
              loses_somewhere = true;
              break;
            }
          }
          if (!loses_somewhere) {
            ok = false;
            if (!detail.empty()) detail += ", ";
            detail += static_ids[i];
            detail += " never drops below 0.9x the per-phase best";
          }
        }
        if (ok) detail = "each static scheme trails in at least one phase";
        out.push_back({name, ok, false, detail});
      }
    }
  }

  // (11) Every KV service point must report populated, ordered latency
  // percentiles for every op kind: samples > 0 (each op has non-zero mix
  // share on every kv point) and p50 <= p99 <= p999 <= max. This is the
  // schema guarantee downstream dashboards key on.
  {
    const char* name = "kv-latency-percentiles-ordered";
    int kv_points = 0;
    bool ok = true;
    std::string detail;
    for (const auto& rec : result.points) {
      if (rec.def.kind() != PointKind::kKv) continue;
      ++kv_points;
      const auto& lat = rec.metrics.latency;
      if (lat.size() != static_cast<std::size_t>(service::kKvOpKinds)) {
        ok = false;
        detail = rec.def.id + " reports " + std::to_string(lat.size()) +
                 " latency series (want " +
                 std::to_string(service::kKvOpKinds) + ")";
        break;
      }
      for (const auto& ol : lat) {
        if (ol.samples == 0 || ol.p50_cycles > ol.p99_cycles ||
            ol.p99_cycles > ol.p999_cycles ||
            ol.p999_cycles > ol.max_cycles) {
          ok = false;
          detail = rec.def.id + " op " + ol.op +
                   ": percentiles missing or unordered";
          break;
        }
      }
      if (!ok) break;
    }
    if (kv_points == 0) {
      out.push_back(skipped(name, "no kv points in this tier"));
    } else {
      if (ok) {
        detail = std::to_string(kv_points) +
                 " kv point(s): all op latencies populated and ordered";
      }
      out.push_back({name, ok, false, detail});
    }
  }

  // (12) The hot-shard point (zipf theta 1.2, write-heavy) concentrates
  // enough conflicting traffic on one shard's lock that plain HLE exhibits
  // the avalanche there — the service-scale rendition of Fig 3.3.
  avalanche("kv-hot-shard-avalanche-detected", "kv-sh8-k8192-z120-u50-t8-hle");

  // (13) The KV service actually elides: under the moderate-skew service
  // mix the per-shard locks are mostly uncontended, so the HLE point must
  // run overwhelmingly speculatively while the standard point never does.
  {
    const char* name = "kv-service-elides";
    const auto* hle = point("kv-sh8-k8192-z99-u30-t8-hle");
    const auto* std_ = point("kv-sh8-k8192-z99-u30-t8-standard");
    if (hle == nullptr || std_ == nullptr) {
      out.push_back(skipped(name, "required points not in this tier"));
    } else {
      const bool ok = hle->metrics.spec_fraction >= 0.5 &&
                      std_->metrics.spec_fraction == 0.0;
      std::snprintf(buf, sizeof buf,
                    "hle spec fraction %.4f (want >= 0.5), standard %.4f "
                    "(want 0)",
                    hle->metrics.spec_fraction, std_->metrics.spec_fraction);
      out.push_back({name, ok, false, buf});
    }
  }

  // (14) The nested-SCM point runs Algorithm 3 as designed: with HLE
  // allowed inside RTM, no attempt aborts for unsupported nesting (without
  // the flag every nested acquisition does, and the point measures that).
  {
    const char* name = "scm-nested-never-aborts-on-nesting";
    const auto* p = point("rb-s64-u20-t8-ttas-hle-scm-nested");
    if (p == nullptr) {
      out.push_back(skipped(name, "required point not in this tier"));
    } else {
      const std::uint64_t nesting = p->metrics.aborts_by_cause[
          static_cast<std::size_t>(tsx::AbortCause::kNesting)];
      std::snprintf(buf, sizeof buf, "%llu nesting aborts (want 0)",
                    static_cast<unsigned long long>(nesting));
      out.push_back({name, nesting == 0, false, buf});
    }
  }

  return out;
}

}  // namespace elision::harness
