#include "workload.h"

#include "datagen/workload.h"

namespace perfbench {

using restore::Result;
using restore::Status;

Result<Workload> ParseWorkload(const std::string& name) {
  if (name == "complete_miss") return Workload::kCompleteMiss;
  if (name == "complete_hit") return Workload::kCompleteHit;
  if (name == "live_ingest") return Workload::kLiveIngest;
  if (name == "ingest_miss") return Workload::kIngestMiss;
  return Status::InvalidArgument(
      "unknown workload '" + name +
      "' (complete_miss|complete_hit|live_ingest|ingest_miss)");
}

const char* WorkloadName(Workload w) {
  switch (w) {
    case Workload::kCompleteMiss: return "complete_miss";
    case Workload::kCompleteHit: return "complete_hit";
    case Workload::kLiveIngest: return "live_ingest";
    case Workload::kIngestMiss: return "ingest_miss";
  }
  return "?";
}

bool Ingests(Workload w) {
  return w == Workload::kLiveIngest || w == Workload::kIngestMiss;
}

bool CacheBounded(Workload w) {
  return w == Workload::kCompleteMiss || w == Workload::kIngestMiss;
}

Result<std::unique_ptr<BenchData>> MakeBenchData() {
  RESTORE_ASSIGN_OR_RETURN(
      BenchData data,
      restore::bench::MakeSetupRun("H1", 0.5, 0.5, kScale, kDataSeed));
  return std::make_unique<BenchData>(std::move(data));
}

restore::EngineConfig EngineConfigFor(Workload w) {
  restore::EngineConfig config = restore::bench::BenchEngineConfig();
  config.cache_budget_bytes = CacheBounded(w) ? kMissCacheBudgetBytes : 0;
  return config;
}

restore::RefreshPolicy RefreshPolicyFor(Workload w) {
  restore::RefreshPolicy policy;
  if (!Ingests(w)) return policy;
  policy.trigger = restore::RefreshPolicy::Trigger::kDrift;
  policy.drift_ks_threshold = 0.1;
  policy.drift_psi_threshold = 0.25;
  policy.max_concurrent_retrains = 1;
  return policy;
}

std::vector<MixQuery> QueryMix() {
  std::vector<MixQuery> mix;
  for (const auto& wq : restore::HousingWorkload()) {
    const bool classical = wq.sql.find("apartment") == std::string::npos;
    mix.push_back({wq.name, wq.sql, classical});
  }
  mix.push_back({"N1",
                 "SELECT AVG(price) FROM apartment NATURAL JOIN neighborhood "
                 "GROUP BY urbanization;",
                 false});
  mix.push_back({"N2",
                 "SELECT COUNT(*) FROM apartment NATURAL JOIN neighborhood "
                 "WHERE pop_density >= 1000 GROUP BY room_type;",
                 false});
  return mix;
}

Result<std::shared_ptr<restore::Db>> OpenWarmDb(const BenchData& data,
                                                Workload w) {
  restore::DbOptions options;
  options.WithEngine(EngineConfigFor(w)).WithRefreshPolicy(RefreshPolicyFor(w));
  RESTORE_ASSIGN_OR_RETURN(
      std::shared_ptr<restore::Db> db,
      restore::Db::Open(&data.incomplete, data.annotation, options));
  for (const MixQuery& q : QueryMix()) {
    auto rs = db->ExecuteCompletedSql(q.sql);
    if (!rs.ok()) return rs.status();
  }
  return db;
}

}  // namespace perfbench
