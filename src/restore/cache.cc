#include "restore/cache.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/serialize.h"

namespace restore {

CompletionCache::CompletionCache(size_t budget_bytes, size_t num_shards)
    : budget_bytes_(budget_bytes),
      shard_budget_(budget_bytes == 0
                        ? 0
                        : std::max<size_t>(1, budget_bytes / num_shards)),
      shards_(num_shards == 0 ? 1 : num_shards) {}

std::string CompletionCache::Key(const std::set<std::string>& tables) {
  std::string key;
  for (const auto& t : tables) {
    key += t;
    key += '|';
  }
  return key;
}

CompletionCache::Shard& CompletionCache::ShardFor(
    const std::string& key) const {
  return shards_[Fnv1a64(key.data(), key.size()) % shards_.size()];
}

size_t CompletionCache::ApproxTableBytes(const Table& table) {
  size_t bytes = sizeof(Table);
  for (const auto& col : table.columns()) {
    bytes += sizeof(Column) + col.name().size();
    bytes += col.ints().capacity() * sizeof(int64_t);
    bytes += col.doubles().capacity() * sizeof(double);
  }
  return bytes;
}

void CompletionCache::EvictLocked(Shard* shard, const std::string& keep) {
  if (shard_budget_ == 0) return;
  while (shard->bytes > shard_budget_ && shard->entries.size() > 1) {
    auto victim = shard->entries.end();
    uint64_t oldest = std::numeric_limits<uint64_t>::max();
    for (auto it = shard->entries.begin(); it != shard->entries.end(); ++it) {
      if (it->first == keep) continue;
      if (it->second.last_used < oldest) {
        oldest = it->second.last_used;
        victim = it;
      }
    }
    if (victim == shard->entries.end()) break;
    shard->bytes -= victim->second.bytes;
    shard->entries.erase(victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
  }
}

void CompletionCache::DropOlderThan(uint64_t epoch) {
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    for (auto it = shard.entries.begin(); it != shard.entries.end();) {
      if (it->second.epoch < epoch) {
        shard.bytes -= it->second.bytes;
        it = shard.entries.erase(it);
      } else {
        ++it;
      }
    }
  }
}

void CompletionCache::Put(const std::set<std::string>& tables,
                          std::shared_ptr<const Table> joined,
                          uint64_t epoch) {
  Entry entry;
  entry.bytes = ApproxTableBytes(*joined);
  // An entry that alone exceeds the shard budget is not worth caching —
  // rejecting it up front (rather than inserting and evicting back down)
  // keeps it from flushing every other entry of its shard first.
  if (shard_budget_ != 0 && entry.bytes > shard_budget_) return;

  // Advance the cache to `epoch`, or give up if a newer one is already in.
  // The Put that advances it sweeps the older generation.
  uint64_t newest = epoch_.load();
  while (newest < epoch && !epoch_.compare_exchange_weak(newest, epoch)) {
  }
  if (newest > epoch) return;
  if (newest < epoch) DropOlderThan(epoch);

  entry.joined = std::move(joined);
  entry.epoch = epoch;
  entry.last_used = clock_.fetch_add(1, std::memory_order_relaxed);
  const std::string key = Key(tables);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  // Re-checked under the shard mutex: a sweep for a newer epoch either
  // advanced epoch_ before this point (so nothing is stored) or takes this
  // shard's mutex after us (so it drops what we store).
  if (epoch_.load() != epoch) return;
  Entry& slot = shard.entries[key];
  shard.bytes = shard.bytes - slot.bytes + entry.bytes;
  slot = std::move(entry);
  EvictLocked(&shard, key);
}

std::shared_ptr<const Table> CompletionCache::GetExact(
    const std::set<std::string>& tables, uint64_t epoch) const {
  const std::string key = Key(tables);
  Shard& shard = ShardFor(key);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.entries.find(key);
  if (it == shard.entries.end() || it->second.epoch != epoch) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    return nullptr;
  }
  it->second.last_used = clock_.fetch_add(1, std::memory_order_relaxed);
  hits_.fetch_add(1, std::memory_order_relaxed);
  return it->second.joined;
}

size_t CompletionCache::size() const {
  size_t n = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    n += shard.entries.size();
  }
  return n;
}

size_t CompletionCache::bytes() const {
  size_t n = 0;
  for (auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    n += shard.bytes;
  }
  return n;
}

void CompletionCache::Clear() {
  DropOlderThan(std::numeric_limits<uint64_t>::max());
}

}  // namespace restore
