#ifndef RESTORE_RESTORE_CACHE_H_
#define RESTORE_RESTORE_CACHE_H_

#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <vector>

#include "storage/table.h"

namespace restore {

/// Cache of completed joins (Section 4.5): an exact memo of each query's own
/// completion. An entry is stored and looked up under exactly the table set
/// of the query that produced it, so a hit returns what that query would
/// have computed without the cache, bit for bit.
///
/// Sub-path reuse (answering a query by projecting a cached superset join)
/// is deliberately not done. A projection of another query's completion
/// cannot equal the query's own answer: the superset join carries the other
/// query's fan-out multiplicities and its own sampled tuples. It also makes
/// answers depend on which queries ran before.
///
/// Epochs: every entry carries the epoch of the Db generation it was
/// completed against, and the cache keeps only the newest epoch it has been
/// given. A Put at a newer epoch drops every older entry, a Put at an older
/// epoch stores nothing, and a lookup at any other epoch misses. A hot swap
/// (ingestion or model refresh) therefore reclaims the dead generation on
/// the first Put after it, with no budget needed; readers that still hold an
/// old entry keep it alive through its shared_ptr.
///
/// Thread safety: all operations are safe under concurrent access. Entries
/// are hash-sharded with one mutex per shard so unrelated lookups do not
/// contend; hit/miss counters are atomics.
///
/// Budget: `budget_bytes` bounds the total approximate payload size. On
/// overflow the least-recently-used entries of the shard are evicted; an
/// entry larger than a shard's budget is not cached at all. 0 = unbounded.
class CompletionCache {
 public:
  explicit CompletionCache(size_t budget_bytes = 0, size_t num_shards = 8);

  CompletionCache(const CompletionCache&) = delete;
  CompletionCache& operator=(const CompletionCache&) = delete;

  /// Stores the completed join of a query over exactly `tables` at `epoch`
  /// (see the class comment for how epochs age entries out).
  void Put(const std::set<std::string>& tables,
           std::shared_ptr<const Table> joined, uint64_t epoch = 0);
  void Put(const std::set<std::string>& tables, Table joined,
           uint64_t epoch = 0) {
    Put(tables, std::make_shared<const Table>(std::move(joined)), epoch);
  }

  /// The completed join stored for exactly `tables` at `epoch`, or nullptr.
  std::shared_ptr<const Table> GetExact(const std::set<std::string>& tables,
                                        uint64_t epoch = 0) const;

  size_t size() const;
  /// Approximate bytes of all cached payloads.
  size_t bytes() const;
  size_t hits() const { return hits_.load(std::memory_order_relaxed); }
  size_t misses() const { return misses_.load(std::memory_order_relaxed); }
  size_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  size_t budget_bytes() const { return budget_bytes_; }
  /// Drops every entry (counters and the current epoch are kept).
  void Clear();

  /// Approximate in-memory payload size of a table (column vectors only).
  static size_t ApproxTableBytes(const Table& table);

 private:
  struct Entry {
    std::shared_ptr<const Table> joined;
    uint64_t epoch = 0;
    size_t bytes = 0;
    uint64_t last_used = 0;
  };
  struct Shard {
    mutable std::mutex mu;
    std::map<std::string, Entry> entries;
    size_t bytes = 0;
  };

  /// Entry key: the sorted table list "t1|t2|...|".
  static std::string Key(const std::set<std::string>& tables);
  Shard& ShardFor(const std::string& key) const;
  /// Evicts LRU entries of `shard` until it fits its budget slice.
  /// `keep` is never evicted. Caller holds the shard mutex.
  void EvictLocked(Shard* shard, const std::string& keep);
  /// Drops every entry older than `epoch`, one shard at a time.
  void DropOlderThan(uint64_t epoch);

  const size_t budget_bytes_;
  const size_t shard_budget_;
  mutable std::vector<Shard> shards_;
  /// The newest epoch any Put has been given.
  std::atomic<uint64_t> epoch_{0};
  mutable std::atomic<uint64_t> clock_{0};
  mutable std::atomic<size_t> hits_{0};
  mutable std::atomic<size_t> misses_{0};
  mutable std::atomic<size_t> evictions_{0};
};

}  // namespace restore

#endif  // RESTORE_RESTORE_CACHE_H_
