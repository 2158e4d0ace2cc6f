//===- container/sharded_index_map.h - Concurrent sharded map ---*- C++-*-===//
//
// Part of the SEPE reproduction. Released under the GPL-3.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The concurrent serving front end over FlatIndexMap: a power-of-two
/// array of shards, each an independent FlatIndexMap behind its own
/// shared_mutex, routed by the high bits of an independent scramble of
/// the synthesized image (container/flat_index_map.h probe::shardOf —
/// a *different* odd multiplier than the in-shard group mapping, so
/// shard index and home group stay decorrelated).
///
/// Batch entry points hash a 64-key chunk densely first (one
/// SynthesizedHash::hashBatch call, so the AVX2 wide kernels run at
/// full width), then counting-sort the chunk's indices by shard and
/// probe each shard's dense group under a single lock acquisition —
/// lock traffic amortizes over the group instead of paying one
/// acquisition per key.
///
/// Hot swap across a re-synthesis is epoch-based, RCU-style: all state
/// a reader consults (hash, guard pattern, shard array, epoch number)
/// lives in one immutable-after-publish Table reached through a single
/// acquire load, so epochs cannot tear. migrate() builds the successor
/// table incrementally, one shard at a time, under that shard's write
/// lock — no global stop-the-world:
///
///   1. The successor pointer is stored into the old table, then each
///      shard is *sealed* (flag flipped under its write lock) and its
///      live entries copied through old-hash/new-hash batch sweeps into
///      the successor's shards (keys scatter: a new plan images a key
///      into a new shard).
///   2. Writers that find their shard sealed dual-write: the mutation
///      applies to the old table and is replayed against the successor
///      (re-hashed with the successor's plan). Seal + successor are
///      observed under the shard lock the migrator published them
///      under, so the handoff is race-free, and the copy loop holds the
///      old shard's write lock across its successor inserts so an
///      erase can never be resurrected by a stale copy.
///   3. Once every shard is sealed and copied, the successor is
///      published as the active table. Readers that loaded the old
///      table finish on it — dual-writes kept it current — and retired
///      tables stay alive until the map is destroyed, so in-flight
///      probes never touch freed memory.
///
/// Locks nest old-shard -> successor-shard only, and the old shards
/// held are always distinct across threads, so the order is acyclic.
///
/// FlatIndexMap stores images, not key text, so each shard keeps a
/// journal of inserted keys (appended under the write lock); the
/// journal is the key universe the migration sweep re-hashes, and is
/// compacted to the live keyset as a side effect of every migration.
///
//===----------------------------------------------------------------------===//

#ifndef SEPE_CONTAINER_SHARDED_INDEX_MAP_H
#define SEPE_CONTAINER_SHARDED_INDEX_MAP_H

#include "container/flat_index_map.h"
#include "core/key_pattern.h"
#include "support/telemetry.h"
#include "support/trace.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <vector>

namespace sepe {

namespace shard {

/// Keys per dense batch chunk: hashed in one hashBatch call, then
/// partitioned by shard. 64 keeps the images, shard ids and order
/// permutation on the stack while still filling the 8-wide AVX2
/// kernels many times over.
inline constexpr size_t ChunkSize = 64;

/// Stable counting-sort partition of \p N (<= ChunkSize) images by
/// shard. On return Order[Offsets[S] .. Offsets[S+1]) are the chunk
/// indices whose image routes to shard S, in input order; \p Offsets
/// must hold (1 << ShardBits) + 1 entries and ShardBits must be <= 8
/// (ShardedIndexMap clamps its shard count to 256 for this reason). The partition is definitionally
/// equivalent to probe::shardOf per key — the property the partition
/// tests pin across formats and ISA levels.
inline void partitionChunk(const uint64_t *Images, size_t N,
                           unsigned ShardBits, uint16_t *Order,
                           uint32_t *Offsets) {
  const size_t NumShards = size_t{1} << ShardBits;
  for (size_t S = 0; S != NumShards + 1; ++S)
    Offsets[S] = 0;
  uint8_t ShardOf[ChunkSize];
  for (size_t I = 0; I != N; ++I) {
    const size_t S = probe::shardOf(Images[I], ShardBits);
    ShardOf[I] = static_cast<uint8_t>(S);
    ++Offsets[S + 1];
  }
  for (size_t S = 0; S != NumShards; ++S)
    Offsets[S + 1] += Offsets[S];
  uint32_t Cursor[256 + 1];
  for (size_t S = 0; S != NumShards; ++S)
    Cursor[S] = Offsets[S];
  for (size_t I = 0; I != N; ++I)
    Order[Cursor[ShardOf[I]]++] = static_cast<uint16_t>(I);
}

} // namespace shard

/// Outcome of a probe through the labeled / guarded entry points.
/// Stale: the caller's images were computed against a different epoch
/// than the active table (a migration landed in between) — nothing was
/// read or written; redo through a guarded entry point. NotAdmitted:
/// the key does not conform to the active generation's pattern, so an
/// image-keyed probe would be unsound (FlatIndexMap's bijectivity only
/// covers conforming keys) — route it to a spill lane instead.
enum class ProbeResult { Hit, Miss, NotAdmitted, Stale };

/// Concurrent sharded map from format keys to \p Value. Each shard is
/// a FlatIndexMap (so the plan must be bijective); any number of
/// threads may call any entry point concurrently, with at most one
/// migrate() in flight (further calls serialize).
template <typename Value> class ShardedIndexMap {
public:
  /// Per-shard health snapshot for telemetry/reporting.
  struct ShardStats {
    size_t Size = 0;
    size_t Capacity = 0;
    size_t Tombstones = 0;
    size_t JournalLen = 0;
  };

  /// \p Hash must be bijective (FlatIndexMap's soundness condition).
  /// \p Pattern is the generation's guard: the unguarded entry points
  /// never check it (keys are preconditioned to conform, as everywhere
  /// in the executor), the *Guarded ones do. \p EpochLabel is an opaque
  /// generation tag the labeled entry points validate images against —
  /// the serving layer labels each table with the AdaptiveHash epoch
  /// whose plan keys it. \p ShardCountHint rounds up to a power of two,
  /// clamped to [1, 256].
  explicit ShardedIndexMap(SynthesizedHash Hash, KeyPattern Pattern = {},
                           uint64_t EpochLabel = 0,
                           size_t ShardCountHint = 16,
                           size_t InitialCapacityPerShard = 16) {
    size_t Count = std::bit_ceil(std::max<size_t>(1, ShardCountHint));
    Count = std::min<size_t>(Count, 256);
    Bits = static_cast<unsigned>(std::countr_zero(Count));
    auto T = std::make_unique<Table>(std::move(Hash), std::move(Pattern),
                                     EpochLabel, Count,
                                     InitialCapacityPerShard);
    Active.store(T.get(), std::memory_order_release);
    Tables.push_back(std::move(T));
  }

  ShardedIndexMap(const ShardedIndexMap &) = delete;
  ShardedIndexMap &operator=(const ShardedIndexMap &) = delete;

  size_t shardCount() const { return size_t{1} << Bits; }
  unsigned shardBits() const { return Bits; }

  /// Label of the active table (the EpochLabel it was constructed or
  /// migrated with). Label, hash and pattern live in one published
  /// Table object, so a reader can never observe a new epoch with an
  /// old hash or vice versa.
  uint64_t epoch() const { return active()->Epoch; }

  /// The active generation's hash (cheap: shared plan ownership).
  SynthesizedHash hasher() const { return active()->Hash; }

  /// The active generation's guard pattern (copy).
  KeyPattern pattern() const { return active()->Pattern; }

  /// Migrations completed since construction.
  uint64_t migrations() const {
    return Migrations.load(std::memory_order_relaxed);
  }

  /// Live elements across all shards. Takes every shard's read lock in
  /// turn, so under concurrent writers the result is a moment-in-time
  /// per shard, not a global snapshot.
  size_t size() const {
    const Table *T = active();
    size_t Total = 0;
    for (const auto &S : T->Shards) {
      std::shared_lock<std::shared_mutex> Lock(S->Mutex);
      Total += S->Map.size();
    }
    return Total;
  }

  ShardStats shardStats(size_t Index) const {
    const Table *T = active();
    const Shard &S = *T->Shards[Index & (shardCount() - 1)];
    std::shared_lock<std::shared_mutex> Lock(S.Mutex);
    return {S.Map.size(), S.Map.capacity(), S.Map.tombstones(),
            S.Journal.size()};
  }

  /// Per-shard lock-contention counters: how many read/write lock
  /// acquisitions the shard saw and how many of them had to wait
  /// (try-lock failed first). Counted relaxed by the acquire helpers —
  /// the numbers are measurements, they order nothing. The counters
  /// live on the *active* generation's shards: a migration publishes
  /// fresh shards, so each epoch's numbers describe lock pressure
  /// since that epoch was published.
  struct ShardContention {
    uint64_t SharedAcquires = 0;
    uint64_t SharedContended = 0;
    uint64_t UniqueAcquires = 0;
    uint64_t UniqueContended = 0;
  };

  ShardContention shardContention(size_t Index) const {
    const Table *T = active();
    const Shard &S = *T->Shards[Index & (shardCount() - 1)];
    return {S.SharedAcquires.load(std::memory_order_relaxed),
            S.SharedContended.load(std::memory_order_relaxed),
            S.UniqueAcquires.load(std::memory_order_relaxed),
            S.UniqueContended.load(std::memory_order_relaxed)};
  }

  /// The contention histogram as JSON — one row per shard plus totals,
  /// keyed by the active epoch. The shape sepeserve prints and the
  /// bench reports embed, so the jit dispatch ladder can be read
  /// against the lock pressure it ran under.
  std::string contentionJson() const {
    ShardContention Sum;
    std::string Json = "{\"epoch\": " + std::to_string(epoch()) +
                       ", \"shards\": [";
    for (size_t I = 0; I != shardCount(); ++I) {
      const ShardContention C = shardContention(I);
      Sum.SharedAcquires += C.SharedAcquires;
      Sum.SharedContended += C.SharedContended;
      Sum.UniqueAcquires += C.UniqueAcquires;
      Sum.UniqueContended += C.UniqueContended;
      if (I != 0)
        Json += ", ";
      Json += "{\"shared_acquires\": " + std::to_string(C.SharedAcquires) +
              ", \"shared_contended\": " + std::to_string(C.SharedContended) +
              ", \"unique_acquires\": " + std::to_string(C.UniqueAcquires) +
              ", \"unique_contended\": " + std::to_string(C.UniqueContended) +
              "}";
    }
    Json += "], \"totals\": {\"shared_acquires\": " +
            std::to_string(Sum.SharedAcquires) +
            ", \"shared_contended\": " + std::to_string(Sum.SharedContended) +
            ", \"unique_acquires\": " + std::to_string(Sum.UniqueAcquires) +
            ", \"unique_contended\": " + std::to_string(Sum.UniqueContended) +
            "}}";
    return Json;
  }

  /// Mirrors the per-shard counters into telemetry histograms — one
  /// sample per shard, so the exported histogram is the cross-shard
  /// distribution (a hot shard shows up as a long tail). No-op while
  /// telemetry is disabled.
  void recordContentionTelemetry() const {
    if (!telemetry::enabled())
      return;
    for (size_t I = 0; I != shardCount(); ++I) {
      const ShardContention C = shardContention(I);
      SEPE_RECORD("sharded_index_map.shard.shared_acquires",
                  C.SharedAcquires);
      SEPE_RECORD("sharded_index_map.shard.shared_contended",
                  C.SharedContended);
      SEPE_RECORD("sharded_index_map.shard.unique_acquires",
                  C.UniqueAcquires);
      SEPE_RECORD("sharded_index_map.shard.unique_contended",
                  C.UniqueContended);
    }
  }

  /// Inserts (key, value); returns false (keeping the old value) when
  /// present. Precondition: \p Key conforms to the active plan's
  /// format.
  bool put(std::string_view Key, Value V) {
    Table *T = activeMutable();
    const uint64_t Image = T->Hash(Key);
    Shard &S = T->shardFor(Image);
    std::unique_lock<std::shared_mutex> Lock(acquireUnique(S),
                                             std::adopt_lock);
    return putLocked(*T, S, Key, Image, std::move(V));
  }

  /// Removes \p Key; returns false when absent.
  bool erase(std::string_view Key) {
    Table *T = activeMutable();
    const uint64_t Image = T->Hash(Key);
    Shard &S = T->shardFor(Image);
    std::unique_lock<std::shared_mutex> Lock(acquireUnique(S),
                                             std::adopt_lock);
    const bool Erased = S.Map.eraseHashed(Image);
    if (S.Sealed && Erased)
      replayErase(*T, Key);
    return Erased;
  }

  /// Copies the value for \p Key into \p Out; false when absent. A
  /// copy, not a pointer: a pointer into a shard would dangle the
  /// moment the lock drops under concurrent writers.
  bool get(std::string_view Key, Value &Out) const {
    const Table *T = active();
    const uint64_t Image = T->Hash(Key);
    const Shard &S = T->shardFor(Image);
    std::shared_lock<std::shared_mutex> Lock(acquireShared(S),
                                             std::adopt_lock);
    if (const Value *V = S.Map.findHashed(Image)) {
      Out = *V;
      return true;
    }
    return false;
  }

  bool contains(std::string_view Key) const {
    Value Scratch;
    return get(Key, Scratch);
  }

  /// Batch lookup: Found[I] = 1 and Out[I] = value when Keys[I] is
  /// present, else Found[I] = 0 (Out[I] untouched). Returns the hit
  /// count. Hashes each 64-key chunk densely (AVX2 batch kernel), then
  /// partitions by shard and probes every shard's group under one read
  /// lock.
  size_t getBatch(const std::string_view *Keys, Value *Out, uint8_t *Found,
                  size_t N) const {
    const Table *T = active();
    size_t Hits = 0;
    uint64_t Images[shard::ChunkSize];
    uint16_t Order[shard::ChunkSize];
    uint32_t Offsets[256 + 1];
    for (size_t Base = 0; Base < N; Base += shard::ChunkSize) {
      const size_t Count = std::min(shard::ChunkSize, N - Base);
      T->Hash.hashBatch(Keys + Base, Images, Count);
      shard::partitionChunk(Images, Count, Bits, Order, Offsets);
      for (size_t S = 0; S != shardCount(); ++S) {
        if (Offsets[S] == Offsets[S + 1])
          continue;
        const Shard &Sh = *T->Shards[S];
        std::shared_lock<std::shared_mutex> Lock(acquireShared(Sh),
                                                 std::adopt_lock);
        for (uint32_t I = Offsets[S]; I != Offsets[S + 1]; ++I) {
          const size_t K = Base + Order[I];
          if (const Value *V = Sh.Map.findHashed(Images[Order[I]])) {
            Out[K] = *V;
            Found[K] = 1;
            ++Hits;
          } else {
            Found[K] = 0;
          }
        }
      }
    }
    SEPE_COUNT_N("sharded_index_map.get.hit", Hits);
    SEPE_COUNT_N("sharded_index_map.get.miss", N - Hits);
    return Hits;
  }

  /// Batch insert; returns the number of keys actually inserted. Same
  /// dense-hash-then-partition structure as getBatch, with each shard
  /// group applied under one write lock.
  size_t putBatch(const std::string_view *Keys, const Value *Values,
                  size_t N) {
    Table *T = activeMutable();
    size_t Inserted = 0;
    uint64_t Images[shard::ChunkSize];
    uint16_t Order[shard::ChunkSize];
    uint32_t Offsets[256 + 1];
    for (size_t Base = 0; Base < N; Base += shard::ChunkSize) {
      const size_t Count = std::min(shard::ChunkSize, N - Base);
      T->Hash.hashBatch(Keys + Base, Images, Count);
      shard::partitionChunk(Images, Count, Bits, Order, Offsets);
      for (size_t S = 0; S != shardCount(); ++S) {
        if (Offsets[S] == Offsets[S + 1])
          continue;
        Shard &Sh = *T->Shards[S];
        std::unique_lock<std::shared_mutex> Lock(acquireUnique(Sh),
                                                 std::adopt_lock);
        for (uint32_t I = Offsets[S]; I != Offsets[S + 1]; ++I) {
          const size_t K = Base + Order[I];
          Inserted +=
              putLocked(*T, Sh, Keys[K], Images[Order[I]], Values[K]) ? 1 : 0;
        }
      }
    }
    return Inserted;
  }

  /// Labeled probe: \p Image must be this map's active hash applied to
  /// the key, computed under generation \p EpochLabel. Returns Stale
  /// (nothing probed) when a migration has moved the map to a different
  /// generation since the caller hashed — the caller redoes the
  /// operation through a guarded entry point. The table is loaded once,
  /// so label check and probe cannot straddle a swap.
  ProbeResult getHashed(uint64_t Image, uint64_t EpochLabel,
                        Value &Out) const {
    const Table *T = active();
    if (T->Epoch != EpochLabel) {
      SEPE_COUNT("sharded_index_map.stale_epoch");
      return ProbeResult::Stale;
    }
    const Shard &S = T->shardFor(Image);
    std::shared_lock<std::shared_mutex> Lock(acquireShared(S),
                                             std::adopt_lock);
    if (const Value *V = S.Map.findHashed(Image)) {
      Out = *V;
      return ProbeResult::Hit;
    }
    return ProbeResult::Miss;
  }

  /// Labeled insert; false (nothing written) when \p EpochLabel no
  /// longer matches the active table. \p Key is journaled for future
  /// migrations, so it must be the preimage of \p Image.
  bool putHashed(std::string_view Key, uint64_t Image, uint64_t EpochLabel,
                 Value V, bool &Inserted) {
    Table *T = activeMutable();
    if (T->Epoch != EpochLabel) {
      SEPE_COUNT("sharded_index_map.stale_epoch");
      return false;
    }
    Shard &S = T->shardFor(Image);
    std::unique_lock<std::shared_mutex> Lock(acquireUnique(S),
                                             std::adopt_lock);
    Inserted = putLocked(*T, S, Key, Image, std::move(V));
    return true;
  }

  /// Labeled erase; false (nothing erased) on label mismatch.
  bool eraseHashed(std::string_view Key, uint64_t Image,
                   uint64_t EpochLabel, bool &Erased) {
    Table *T = activeMutable();
    if (T->Epoch != EpochLabel) {
      SEPE_COUNT("sharded_index_map.stale_epoch");
      return false;
    }
    Shard &S = T->shardFor(Image);
    std::unique_lock<std::shared_mutex> Lock(acquireUnique(S),
                                             std::adopt_lock);
    Erased = S.Map.eraseHashed(Image);
    if (S.Sealed && Erased)
      replayErase(*T, Key);
    return true;
  }

  /// Labeled batch lookup over pre-hashed images (same contract as
  /// getBatch otherwise); false and untouched outputs on label
  /// mismatch.
  bool getBatchHashed(const uint64_t *Images, uint64_t EpochLabel,
                      Value *Out, uint8_t *Found, size_t N,
                      size_t &Hits) const {
    const Table *T = active();
    if (T->Epoch != EpochLabel) {
      SEPE_COUNT("sharded_index_map.stale_epoch");
      return false;
    }
    Hits = 0;
    uint16_t Order[shard::ChunkSize];
    uint32_t Offsets[256 + 1];
    for (size_t Base = 0; Base < N; Base += shard::ChunkSize) {
      const size_t Count = std::min(shard::ChunkSize, N - Base);
      shard::partitionChunk(Images + Base, Count, Bits, Order, Offsets);
      for (size_t S = 0; S != shardCount(); ++S) {
        if (Offsets[S] == Offsets[S + 1])
          continue;
        const Shard &Sh = *T->Shards[S];
        std::shared_lock<std::shared_mutex> Lock(acquireShared(Sh),
                                                 std::adopt_lock);
        for (uint32_t I = Offsets[S]; I != Offsets[S + 1]; ++I) {
          const size_t K = Base + Order[I];
          if (const Value *V = Sh.Map.findHashed(Images[K])) {
            Out[K] = *V;
            Found[K] = 1;
            ++Hits;
          } else {
            Found[K] = 0;
          }
        }
      }
    }
    SEPE_COUNT_N("sharded_index_map.get.hit", Hits);
    SEPE_COUNT_N("sharded_index_map.get.miss", N - Hits);
    return true;
  }

  /// Labeled batch insert over pre-hashed images; false and nothing
  /// written on label mismatch.
  bool putBatchHashed(const std::string_view *Keys, const uint64_t *Images,
                      const Value *Values, size_t N, uint64_t EpochLabel,
                      size_t &Inserted) {
    Table *T = activeMutable();
    if (T->Epoch != EpochLabel) {
      SEPE_COUNT("sharded_index_map.stale_epoch");
      return false;
    }
    Inserted = 0;
    uint16_t Order[shard::ChunkSize];
    uint32_t Offsets[256 + 1];
    for (size_t Base = 0; Base < N; Base += shard::ChunkSize) {
      const size_t Count = std::min(shard::ChunkSize, N - Base);
      shard::partitionChunk(Images + Base, Count, Bits, Order, Offsets);
      for (size_t S = 0; S != shardCount(); ++S) {
        if (Offsets[S] == Offsets[S + 1])
          continue;
        Shard &Sh = *T->Shards[S];
        std::unique_lock<std::shared_mutex> Lock(acquireUnique(Sh),
                                                 std::adopt_lock);
        for (uint32_t I = Offsets[S]; I != Offsets[S + 1]; ++I) {
          const size_t K = Base + Order[I];
          Inserted +=
              putLocked(*T, Sh, Keys[K], Images[K], Values[K]) ? 1 : 0;
        }
      }
    }
    return true;
  }

  /// Guarded probe: checks the key against the active generation's own
  /// pattern before hashing with that generation's plan — table,
  /// pattern and hash come from one load, so this is the always-correct
  /// (if slower) path the serving layer falls back to around a
  /// migration, and the soundness gate for keys of unknown provenance:
  /// a non-conforming key never reaches an image probe.
  ProbeResult getGuarded(std::string_view Key, Value &Out) const {
    const Table *T = active();
    if (!T->Pattern.matches(Key)) {
      SEPE_TRACE_INSTANT(GuardReject, T->Epoch, 0);
      return ProbeResult::NotAdmitted;
    }
    const uint64_t Image = T->Hash(Key);
    const Shard &S = T->shardFor(Image);
    std::shared_lock<std::shared_mutex> Lock(acquireShared(S),
                                             std::adopt_lock);
    if (const Value *V = S.Map.findHashed(Image)) {
      Out = *V;
      return ProbeResult::Hit;
    }
    return ProbeResult::Miss;
  }

  /// Guarded insert: false when the key is not admitted by the active
  /// pattern (nothing written); \p Inserted reports the insert outcome
  /// otherwise.
  bool putGuarded(std::string_view Key, Value V, bool &Inserted) {
    Table *T = activeMutable();
    if (!T->Pattern.matches(Key)) {
      SEPE_TRACE_INSTANT(GuardReject, T->Epoch, 1);
      return false;
    }
    const uint64_t Image = T->Hash(Key);
    Shard &S = T->shardFor(Image);
    std::unique_lock<std::shared_mutex> Lock(acquireUnique(S),
                                             std::adopt_lock);
    Inserted = putLocked(*T, S, Key, Image, std::move(V));
    return true;
  }

  /// Guarded erase: false when not admitted; \p Erased reports the
  /// erase outcome otherwise.
  bool eraseGuarded(std::string_view Key, bool &Erased) {
    Table *T = activeMutable();
    if (!T->Pattern.matches(Key)) {
      SEPE_TRACE_INSTANT(GuardReject, T->Epoch, 2);
      return false;
    }
    const uint64_t Image = T->Hash(Key);
    Shard &S = T->shardFor(Image);
    std::unique_lock<std::shared_mutex> Lock(acquireUnique(S),
                                             std::adopt_lock);
    Erased = S.Map.eraseHashed(Image);
    if (S.Sealed && Erased)
      replayErase(*T, Key);
    return true;
  }

  /// Hot swap to \p NewHash / \p NewPattern under generation label
  /// \p NewLabel: builds the successor table shard by shard under each
  /// old shard's write lock (see the file comment for the
  /// seal/dual-write protocol), then publishes it. Readers and writers
  /// stay live throughout; concurrent migrate() calls serialize.
  /// \p NewHash must be bijective.
  void migrate(SynthesizedHash NewHash, KeyPattern NewPattern,
               uint64_t NewLabel) {
    SEPE_SPAN("sharded_index_map.migrate");
    SEPE_TRACE_SPAN(TraceSpan, MigrateShards, NewLabel);
    std::lock_guard<std::mutex> MigrateLock(MigrateMutex);
    Table *Old = activeMutable();
    auto Next = std::make_unique<Table>(
        std::move(NewHash), std::move(NewPattern), NewLabel,
        shardCount(), /*InitialCapacityPerShard=*/16);
    // Publish the successor pointer *before* any seal: a writer reads
    // it only after observing Sealed under a shard lock the migrator
    // released after this store, so the mutex ordering carries it over.
    Old->Successor = Next.get();
    size_t Copied = 0;
    for (size_t I = 0; I != Old->Shards.size(); ++I) {
      Shard &S = *Old->Shards[I];
      std::unique_lock<std::shared_mutex> Lock(S.Mutex);
      SEPE_TRACE_INSTANT(ShardSeal, NewLabel, I);
      S.Sealed = true;
      SEPE_TRACE_SPAN(CopySpan, ShardCopy, NewLabel);
      CopySpan.setArg(I);
      Copied += copyShardLocked(S, *Old, *Next);
    }
    SEPE_COUNT_N("sharded_index_map.migrate.entries", Copied);
    SEPE_COUNT("sharded_index_map.migrate.completed");
    Active.store(Next.get(), std::memory_order_release);
    SEPE_TRACE_INSTANT(MigratePublish, NewLabel, Copied);
    TraceSpan.setArg(Copied);
    Migrations.fetch_add(1, std::memory_order_relaxed);
    Tables.push_back(std::move(Next));
  }

private:
  /// One shard: an independent FlatIndexMap behind a shared_mutex,
  /// plus the inserted-key journal migrations re-hash. Cache-line
  /// aligned so two shards' mutexes never share a line.
  struct alignas(64) Shard {
    explicit Shard(const SynthesizedHash &Hash, size_t InitialCapacity)
        : Map(Hash, InitialCapacity) {}
    mutable std::shared_mutex Mutex;
    /// Per-shard lock pressure, counted by the acquire helpers
    /// (relaxed — the counts order nothing, they are measurements).
    /// Mutable for the same reason Mutex is: read paths count too.
    mutable std::atomic<uint64_t> SharedAcquires{0};
    mutable std::atomic<uint64_t> SharedContended{0};
    mutable std::atomic<uint64_t> UniqueAcquires{0};
    mutable std::atomic<uint64_t> UniqueContended{0};
    FlatIndexMap<Value> Map;
    /// Keys inserted into this shard, appended under the write lock.
    /// May hold erased keys (skipped at migration) and re-inserted
    /// duplicates (harmless there); compacted by each migration.
    std::vector<std::string> Journal;
    /// True once a migration has copied (or is copying) this shard;
    /// writers must replay their mutation against Successor. Guarded
    /// by Mutex.
    bool Sealed = false;
  };

  /// One epoch of the map. Immutable after publish except through the
  /// shard locks; readers reach the whole generation — hash, pattern,
  /// epoch, shards — through one acquire load of Active.
  struct Table {
    Table(SynthesizedHash Hash, KeyPattern Pattern, uint64_t Epoch,
          size_t ShardCount, size_t InitialCapacityPerShard)
        : Hash(std::move(Hash)), Pattern(std::move(Pattern)), Epoch(Epoch) {
      Shards.reserve(ShardCount);
      for (size_t I = 0; I != ShardCount; ++I)
        Shards.push_back(
            std::make_unique<Shard>(this->Hash, InitialCapacityPerShard));
    }

    Shard &shardFor(uint64_t Image) const {
      return *Shards[probe::shardOf(
          Image, static_cast<unsigned>(std::countr_zero(Shards.size())))];
    }

    SynthesizedHash Hash;
    KeyPattern Pattern;
    uint64_t Epoch = 0;
    std::vector<std::unique_ptr<Shard>> Shards;
    /// Set (before any seal) by the migration that retires this table;
    /// read by writers that find their shard sealed.
    Table *Successor = nullptr;
  };

  const Table *active() const { return Active.load(std::memory_order_acquire); }
  Table *activeMutable() { return Active.load(std::memory_order_acquire); }

  /// try-lock-first acquisition so contended acquisitions are counted
  /// — globally in telemetry and per shard in the Shard's own relaxed
  /// counters (shardContention/contentionJson read them back); returns
  /// the (locked) mutex for std::adopt_lock guards.
  static std::shared_mutex &acquireShared(const Shard &S) {
    S.SharedAcquires.fetch_add(1, std::memory_order_relaxed);
    if (!S.Mutex.try_lock_shared()) {
      S.SharedContended.fetch_add(1, std::memory_order_relaxed);
      SEPE_COUNT("sharded_index_map.lock.contended_read");
      S.Mutex.lock_shared();
    }
    return S.Mutex;
  }
  static std::shared_mutex &acquireUnique(const Shard &S) {
    S.UniqueAcquires.fetch_add(1, std::memory_order_relaxed);
    if (!S.Mutex.try_lock()) {
      S.UniqueContended.fetch_add(1, std::memory_order_relaxed);
      SEPE_COUNT("sharded_index_map.lock.contended_write");
      S.Mutex.lock();
    }
    return S.Mutex;
  }

  /// Insert under \p S's write lock, journaling and (when sealed)
  /// replaying against the successor.
  bool putLocked(Table &T, Shard &S, std::string_view Key, uint64_t Image,
                 Value V) {
    const bool Inserted = S.Map.insertHashed(Image, V);
    if (Inserted)
      S.Journal.emplace_back(Key);
    if (S.Sealed && Inserted)
      replayPut(T, Key, std::move(V));
    return Inserted;
  }

  /// Dual-write lane: re-applies a mutation against the successor
  /// table, re-hashed with its plan. Caller holds an *old* shard's
  /// write lock; successor shard locks nest strictly inside old ones,
  /// and no thread ever holds two old shard locks, so the order is
  /// acyclic.
  void replayPut(Table &T, std::string_view Key, Value V) {
    SEPE_COUNT("sharded_index_map.dual_write");
    Table &Next = *T.Successor;
    SEPE_TRACE_INSTANT(DualWrite, Next.Epoch, 0);
    const uint64_t Image = Next.Hash(Key);
    Shard &S = Next.shardFor(Image);
    std::unique_lock<std::shared_mutex> Lock(acquireUnique(S),
                                             std::adopt_lock);
    if (S.Map.insertHashed(Image, std::move(V)))
      S.Journal.emplace_back(Key);
  }

  void replayErase(Table &T, std::string_view Key) {
    SEPE_COUNT("sharded_index_map.dual_write");
    Table &Next = *T.Successor;
    SEPE_TRACE_INSTANT(DualWrite, Next.Epoch, 1);
    const uint64_t Image = Next.Hash(Key);
    Shard &S = Next.shardFor(Image);
    std::unique_lock<std::shared_mutex> Lock(acquireUnique(S),
                                             std::adopt_lock);
    S.Map.eraseHashed(Image);
  }

  /// Copies shard \p S's live entries into \p Next, re-hashed through
  /// both plans' batch kernels. Runs with S's write lock held — also
  /// across the successor inserts, so a concurrent erase (which needs
  /// this same lock before it can dual-write) can never be undone by a
  /// stale copy landing after it. Returns the number of live entries
  /// copied.
  size_t copyShardLocked(Shard &S, Table &Old, Table &Next) {
    size_t Copied = 0;
    uint64_t OldImages[shard::ChunkSize];
    uint64_t NewImages[shard::ChunkSize];
    std::string_view KeyViews[shard::ChunkSize];
    for (size_t Base = 0; Base < S.Journal.size();
         Base += shard::ChunkSize) {
      const size_t Count =
          std::min(shard::ChunkSize, S.Journal.size() - Base);
      for (size_t I = 0; I != Count; ++I)
        KeyViews[I] = S.Journal[Base + I];
      Old.Hash.hashBatch(KeyViews, OldImages, Count);
      Next.Hash.hashBatch(KeyViews, NewImages, Count);
      for (size_t I = 0; I != Count; ++I) {
        const Value *V = S.Map.findHashed(OldImages[I]);
        if (!V)
          continue; // Erased since it was journaled.
        Shard &Dest = Next.shardFor(NewImages[I]);
        std::unique_lock<std::shared_mutex> Lock(acquireUnique(Dest),
                                                 std::adopt_lock);
        if (Dest.Map.insertHashed(NewImages[I], *V)) {
          Dest.Journal.emplace_back(KeyViews[I]);
          ++Copied;
        }
        // Insert returning false means a journal duplicate (erase +
        // re-insert of the same key); the live value was already
        // copied by the first occurrence's lookup of the *current*
        // map state, so dropping the duplicate is correct.
      }
    }
    return Copied;
  }

  unsigned Bits = 0;
  std::atomic<Table *> Active{nullptr};
  /// Every table ever published, in epoch order; retired tables stay
  /// alive until destruction so readers parked on an old epoch never
  /// touch freed memory (the AdaptiveHash generation idiom).
  std::vector<std::unique_ptr<Table>> Tables;
  std::mutex MigrateMutex;
  std::atomic<uint64_t> Migrations{0};
};

} // namespace sepe

#endif // SEPE_CONTAINER_SHARDED_INDEX_MAP_H
