// Tests of the completion cache as an exact, single-epoch memo: a
// differential oracle over the housing workload (every cached answer equals
// the query's own uncached answer, and classical answers equal the
// classical executor), epoch semantics of CompletionCache, and reclamation
// of dead epochs on a Db with an unbounded cache.

#include <algorithm>
#include <cstdio>
#include <map>
#include <random>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "datagen/setups.h"
#include "datagen/workload.h"
#include "exec/executor.h"
#include "restore/cache.h"
#include "restore/db.h"

namespace restore {
namespace {

EngineConfig FastConfig() {
  EngineConfig config;
  config.model.epochs = 6;
  config.model.hidden_dim = 24;
  config.model.embed_dim = 4;
  config.model.max_bins = 12;
  config.model.min_train_steps = 150;
  config.max_candidates = 2;
  return config;
}

std::vector<std::string> Flatten(const ResultSet& rs) {
  std::vector<std::string> out;
  for (size_t r = 0; r < rs.num_rows(); ++r) {
    std::string line;
    for (size_t c = 0; c < rs.num_key_columns(); ++c) {
      line += rs.key(r, c);
      line += '|';
    }
    for (size_t c = 0; c < rs.num_value_columns(); ++c) {
      char buf[40];
      std::snprintf(buf, sizeof(buf), "%.17g", rs.value(r, c));
      line += buf;
      line += '|';
    }
    out.push_back(std::move(line));
  }
  return out;
}

struct OracleQuery {
  std::string name;
  std::string sql;
  bool classical;  // touches no incomplete table
};

// The housing workload plus the two apartment-neighborhood joins whose
// completion path differs from the landlord joins'.
std::vector<OracleQuery> OracleQueries() {
  std::vector<OracleQuery> queries;
  for (const auto& wq : HousingWorkload()) {
    queries.push_back(
        {wq.name, wq.sql, wq.sql.find("apartment") == std::string::npos});
  }
  queries.push_back({"N1",
                     "SELECT AVG(price) FROM apartment NATURAL JOIN "
                     "neighborhood GROUP BY urbanization;",
                     false});
  queries.push_back({"N2",
                     "SELECT COUNT(*) FROM apartment NATURAL JOIN neighborhood "
                     "WHERE pop_density >= 1000 GROUP BY room_type;",
                     false});
  return queries;
}

// Housing H1 (apartment incomplete) at a small scale, plus the apartments
// the setup removed, as rows to ingest later.
struct HousingFixture {
  Database incomplete;
  SchemaAnnotation annotation;
  std::vector<std::vector<Value>> removed_apartments;
};

HousingFixture MakeHousing(uint64_t seed) {
  HousingFixture f;
  auto complete = BuildCompleteDatabase("housing", seed, 0.2);
  EXPECT_TRUE(complete.ok()) << complete.status();
  auto setup = SetupByName("H1");
  EXPECT_TRUE(setup.ok());
  auto incomplete = ApplySetup(*complete, *setup, 0.5, 0.5, seed + 1);
  EXPECT_TRUE(incomplete.ok()) << incomplete.status();
  f.incomplete = std::move(*incomplete);
  f.annotation = AnnotationFor(*setup);

  const Table* kept = *f.incomplete.GetTable("apartment");
  const Table* all = *complete->GetTable("apartment");
  const std::vector<int64_t>& kept_ids = (*kept->GetColumn("id"))->ints();
  const std::set<int64_t> kept_set(kept_ids.begin(), kept_ids.end());
  const Column* all_ids = *all->GetColumn("id");
  for (size_t r = 0; r < all->NumRows(); ++r) {
    if (kept_set.count(all_ids->GetInt64(r)) != 0) continue;
    std::vector<Value> row;
    for (size_t c = 0; c < all->NumColumns(); ++c) {
      row.push_back(all->column(c).GetValue(r));
    }
    f.removed_apartments.push_back(std::move(row));
  }
  return f;
}

// Replays the oracle queries on `db` at its current epoch in `num_orders`
// seeded orders, two passes each, every order from a cold cache. Each
// answer must equal, bit for bit, the query's own kBypass answer; each
// classical answer must also equal the classical executor on the snapshot
// and must not touch the cache.
void CheckCacheAgainstOracle(Db* db, const std::string& phase,
                             int num_orders) {
  const std::vector<OracleQuery> queries = OracleQueries();
  QueryOptions bypass;
  bypass.cache_policy = CachePolicy::kBypass;
  std::map<std::string, std::vector<std::string>> reference;
  for (const OracleQuery& q : queries) {
    auto rs = db->ExecuteCompletedSql(q.sql, bypass);
    ASSERT_TRUE(rs.ok()) << phase << " " << q.name << ": " << rs.status();
    reference[q.name] = Flatten(*rs);
    if (!q.classical) continue;
    auto classical = ExecuteSql(*db->data(), q.sql);
    ASSERT_TRUE(classical.ok()) << phase << " " << q.name;
    EXPECT_EQ(reference[q.name], Flatten(*classical))
        << phase << " " << q.name;
  }

  for (int order = 0; order < num_orders; ++order) {
    db->cache().Clear();
    std::vector<OracleQuery> shuffled = queries;
    std::shuffle(shuffled.begin(), shuffled.end(),
                 std::mt19937_64(1000 + order));
    for (int pass = 0; pass < 2; ++pass) {
      for (const OracleQuery& q : shuffled) {
        auto rs = db->ExecuteCompletedSql(q.sql);
        ASSERT_TRUE(rs.ok()) << phase << " " << q.name << ": " << rs.status();
        EXPECT_EQ(Flatten(*rs), reference[q.name])
            << phase << " order " << order << " pass " << pass << " "
            << q.name;
        if (q.classical) {
          EXPECT_EQ(rs->stats().cache_hits + rs->stats().cache_misses, 0u)
              << phase << " " << q.name << " looked up the cache";
        } else if (pass == 1) {
          EXPECT_EQ(rs->stats().cache_hits, 1u)
              << phase << " " << q.name << " missed a warm cache";
        }
      }
    }
  }
}

TEST(CacheOracleTest, CachedAnswersEqualBypassAndClassicalAnswers) {
  HousingFixture f = MakeHousing(611);
  auto db = Db::Open(&f.incomplete, f.annotation,
                     DbOptions().WithEngine(FastConfig()));
  ASSERT_TRUE(db.ok()) << db.status();
  ASSERT_EQ((*db)->cache().budget_bytes(), 0u);

  CheckCacheAgainstOracle(db->get(), "epoch 0", /*num_orders=*/4);

  ASSERT_GE(f.removed_apartments.size(), 20u);
  const std::vector<std::vector<Value>> late(
      f.removed_apartments.begin(), f.removed_apartments.begin() + 20);
  ASSERT_TRUE((*db)->Append("apartment", late).ok());
  ASSERT_EQ((*db)->epoch(), 1u);
  CheckCacheAgainstOracle(db->get(), "after append", /*num_orders=*/4);
}

Table MakeRows(const std::string& name, int rows) {
  Table t(name, {{"x", ColumnType::kInt64}});
  for (int i = 0; i < rows; ++i) {
    EXPECT_TRUE(t.AppendRow({Value::Int64(i)}).ok());
  }
  return t;
}

TEST(CompletionCacheTest, KeepsOnlyTheNewestEpoch) {
  CompletionCache cache;
  cache.Put({"a"}, MakeRows("a1", 10), /*epoch=*/1);
  cache.Put({"a", "b"}, MakeRows("ab1", 10), /*epoch=*/1);
  EXPECT_EQ(cache.size(), 2u);

  // Older epoch: the Put stores nothing and the lookup misses.
  cache.Put({"c"}, MakeRows("c0", 10), /*epoch=*/0);
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.GetExact({"c"}, 0), nullptr);
  EXPECT_EQ(cache.GetExact({"a"}, 0), nullptr);
  ASSERT_NE(cache.GetExact({"a"}, 1), nullptr);
  EXPECT_EQ(cache.GetExact({"a"}, 1)->name(), "a1");

  // A held entry outlives the sweep that drops it from the cache.
  std::shared_ptr<const Table> held = cache.GetExact({"a", "b"}, 1);

  // Newer epoch: every older entry goes; size and bytes are the new
  // entries' alone.
  Table a2 = MakeRows("a2", 30);
  const size_t a2_bytes = CompletionCache::ApproxTableBytes(a2);
  cache.Put({"a"}, std::move(a2), /*epoch=*/2);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.bytes(), a2_bytes);
  EXPECT_EQ(cache.GetExact({"a", "b"}, 1), nullptr);
  EXPECT_EQ(cache.GetExact({"a"}, 1), nullptr);
  EXPECT_EQ(cache.GetExact({"a"}, 3), nullptr);
  ASSERT_NE(cache.GetExact({"a"}, 2), nullptr);
  EXPECT_EQ(cache.GetExact({"a"}, 2)->name(), "a2");
  ASSERT_NE(held, nullptr);
  EXPECT_EQ(held->name(), "ab1");
  EXPECT_EQ(cache.evictions(), 0u) << "epoch sweeps are not LRU evictions";
}

TEST(CompletionCacheTest, UnboundedDbCacheHoldsOneEpochAcrossAppends) {
  HousingFixture f = MakeHousing(613);
  auto opened = Db::Open(&f.incomplete, f.annotation,
                         DbOptions().WithEngine(FastConfig()));
  ASSERT_TRUE(opened.ok()) << opened.status();
  Db* db = opened->get();
  ASSERT_EQ(db->cache().budget_bytes(), 0u);

  const std::vector<std::set<std::string>> table_sets = {
      {"apartment"}, {"apartment", "landlord"}};
  const std::vector<std::string> sqls = {
      "SELECT COUNT(*) FROM apartment WHERE property_type='house';",
      "SELECT COUNT(*) FROM landlord NATURAL JOIN apartment WHERE "
      "accommodates >= 3 GROUP BY landlord_since;"};
  constexpr size_t kRounds = 6;
  constexpr size_t kRowsPerRound = 5;
  ASSERT_GE(f.removed_apartments.size(), kRounds * kRowsPerRound);
  size_t first_round_bytes = 0;
  for (size_t k = 0; k < kRounds; ++k) {
    const auto begin = f.removed_apartments.begin() + k * kRowsPerRound;
    ASSERT_TRUE(
        db->Append("apartment", {begin, begin + kRowsPerRound}).ok());
    for (const std::string& sql : sqls) {
      ASSERT_TRUE(db->ExecuteCompletedSql(sql).ok()) << sql;
    }
    EXPECT_LE(db->cache().size(), table_sets.size()) << "round " << k;
    // bytes() is exactly this epoch's entries.
    size_t live_bytes = 0;
    for (const auto& tables : table_sets) {
      auto entry = db->cache().GetExact(tables, db->epoch());
      ASSERT_NE(entry, nullptr) << "round " << k;
      live_bytes += CompletionCache::ApproxTableBytes(*entry);
    }
    EXPECT_EQ(db->cache().bytes(), live_bytes) << "round " << k;
    if (k == 0) first_round_bytes = live_bytes;
    EXPECT_LT(db->cache().bytes(), 2 * first_round_bytes) << "round " << k;
  }
}

}  // namespace
}  // namespace restore
