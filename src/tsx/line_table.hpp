// Per-cache-line bookkeeping: transactional conflict state (reader mask +
// single buffered writer) and a MESI-like sharing model used both for
// memory-access cost estimation and for the Chapter 7 "cache footprint"
// semantics.
//
// The simulator runs on one host thread, so the records are plain data.
//
// This table sits on the hottest path in the whole simulator: every
// simulated load/store does at least one lookup. Two structural choices
// serve that path:
//
//   - The *index* is an open-addressing, power-of-two flat table of small
//     (32-byte) slots with tombstone-free lifetime management via
//     generation stamps: a slot is live iff its stamp equals the table's
//     current generation, so clear() is an O(1) generation bump and probe
//     chains never contain dead slots (records are never individually
//     erased, only bulk-invalidated).
//   - The *records* live outside the index, in fixed-size chunks that are
//     never reallocated, so a LineRecord pointer stays valid for as long as
//     the table generation it was captured under. Growing the index rehashes
//     32-byte slots only; the 100+-byte records never move. That pointer
//     stability is what lets the engine keep raw LineRecord pointers in its
//     per-transaction read/write sets and in the per-context line memo
//     (LineTable::Cache) — release and re-access paths revalidate with one
//     generation compare instead of re-probing the index.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "support/align.hpp"
#include "support/hash.hpp"
#include "tsx/thread_set.hpp"

namespace elision::tsx {

inline constexpr int kNoThread = -1;

// Field order is chosen for the access paths, not for grouping by concern:
// the scalars lead and each ThreadSet's word 0 sits within the record's
// first 48 bytes, so on machines of up to 64 simulated threads (every
// word-0 tid) a conflict check plus charge usually stays within one host
// cache line instead of always straddling two.
struct LineRecord {
  // --- transactional conflict detection ---
  int writer = kNoThread;     // tx id with this line in its (buffered) write set
  // --- cache sharing model ---
  std::int16_t dirty_owner = kNoThread;  // thread holding the line modified
  // Threads parked in a spin-wait on this line (Engine::spin_until); a write
  // to the line wakes them. Shares dirty_owner's word, so the record keeps
  // its size.
  std::uint16_t spinners = 0;
  ThreadSet readers;          // tx ids with this line in their read set
  ThreadSet copies;              // threads whose simulated cache holds the line
};
static_assert(sizeof(LineRecord) == 8 + 2 * sizeof(ThreadSet),
              "spinners must pack beside dirty_owner");

class LineTable {
 public:
  // A memoized (line -> record) mapping owned by the caller (one per
  // TxContext cache way). The pointer is valid exactly while `gen` matches
  // the table's current generation: records never move or get erased within
  // a generation, and clear() bumps the generation, which invalidates every
  // outstanding cache in O(1). A hit is two compares and no index probe.
  struct Cache {
    support::LineId line = 0;
    std::uint64_t gen = 0;        // valid iff == LineTable::generation()
    LineRecord* rec = nullptr;
  };

  explicit LineTable(std::size_t initial_pow2 = 12)
      : mask_((std::size_t{1} << initial_pow2) - 1), slots_(mask_ + 1) {}

  // Returns (creating if absent) the record of `line`. The reference stays
  // valid until the next clear() — insertions and index growth never move
  // existing records.
  LineRecord& record(support::LineId line) {
    Slot& s = probe(line);
    if (s.gen != gen_) return insert(s, line);
    return *record_at(s.rec_idx);
  }

  // Hot-path variant: consults `cache` before probing and refreshes it.
  LineRecord& record(support::LineId line, Cache& cache) {
    if (cache.line == line && cache.gen == gen_) return *cache.rec;
    Slot& s = probe(line);
    LineRecord& rec = s.gen == gen_ ? *record_at(s.rec_idx) : insert(s, line);
    cache = {line, gen_, &rec};
    return rec;
  }

  // Lookup without creating a record (used on read-mostly fast paths).
  LineRecord* find(support::LineId line) {
    Slot& s = probe(line);
    return s.gen == gen_ ? record_at(s.rec_idx) : nullptr;
  }

  // O(1): bumps the generation, logically emptying every slot and
  // invalidating every outstanding Cache. Record storage is retained and
  // reused in first-touch order, so steady-state refills allocate nothing.
  void clear() {
    ++gen_;
    size_ = 0;
  }

  std::size_t size() const { return size_; }
  std::size_t capacity() const { return slots_.size(); }
  std::uint64_t generation() const { return gen_; }

  // First-touch sequence number of `line` (1-based; 0 if absent). Line ids
  // are real addresses >> 6, so their *values* vary run to run with the
  // heap layout; first-touch order does not, because the simulation is
  // deterministic. Consumers that need a stable function of a line (e.g.
  // grouped-SCM's conflict-group hash) use this instead of the raw id, so
  // results reproduce across processes — which parallel bench-suite
  // execution relies on.
  std::uint64_t seq_of(support::LineId line) {
    Slot& s = probe(line);
    return s.gen == gen_ ? s.seq : 0;
  }

 private:
  // Records are handed out in first-touch order from fixed-size chunks;
  // a chunk, once allocated, is never freed or moved.
  static constexpr std::size_t kChunkShift = 12;  // 4096 records per chunk
  static constexpr std::size_t kChunkSize = std::size_t{1} << kChunkShift;

  struct Slot {
    support::LineId line = 0;
    std::uint64_t gen = 0;      // live iff == LineTable::gen_ (starts at 1)
    std::uint64_t seq = 0;      // first-touch order, assigned at insertion
    std::uint64_t rec_idx = 0;  // index into the chunked record storage
  };
  static_assert(sizeof(Slot) == 32, "slot indexing should be shift, not mul");

  LineRecord* record_at(std::uint64_t idx) {
    return &chunks_[idx >> kChunkShift][idx & (kChunkSize - 1)];
  }

  // First slot that holds `line` or is free (dead or never used). Probe
  // chains contain no dead slots between a key's home position and its
  // slot: slots only transition free -> live within a generation, and
  // clear() frees all of them at once.
  Slot& probe(support::LineId line) {
    std::size_t i = support::mix64(line) & mask_;
    while (slots_[i].gen == gen_ && slots_[i].line != line) {
      i = (i + 1) & mask_;
    }
    return slots_[i];
  }

  LineRecord& insert(Slot& free_slot, support::LineId line) {
    if ((size_ + 1) * 4 >= slots_.size() * 3) {
      grow();
      return fill(probe(line), line);  // all slots in the new index are free
    }
    return fill(free_slot, line);
  }

  LineRecord& fill(Slot& s, support::LineId line) {
    s.line = line;
    s.gen = gen_;
    s.seq = next_seq_++;
    const std::uint64_t idx = size_++;
    s.rec_idx = idx;
    if ((idx >> kChunkShift) == chunks_.size()) {
      chunks_.emplace_back(new LineRecord[kChunkSize]);
    }
    LineRecord& rec = *record_at(idx);
    rec = LineRecord{};  // storage is reused across generations
    return rec;
  }

  // Doubles and rehashes the slot index. Records are untouched: every live
  // slot carries its record index across, so outstanding pointers (read and
  // write sets, per-context caches) survive growth.
  void grow() {
    std::vector<Slot> old = std::move(slots_);
    mask_ = mask_ * 2 + 1;
    slots_.assign(mask_ + 1, Slot{});
    for (const Slot& s : old) {
      if (s.gen != gen_) continue;
      probe(s.line) = s;
    }
  }

  std::size_t mask_;
  std::vector<Slot> slots_;
  std::vector<std::unique_ptr<LineRecord[]>> chunks_;
  std::uint64_t gen_ = 1;
  std::uint64_t next_seq_ = 1;  // 0 is reserved for "absent"
  std::size_t size_ = 0;
};

}  // namespace elision::tsx
