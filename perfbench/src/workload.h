#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

// What the serving process and the generator must agree on: the data, the
// engine configuration of each workload, and the query mix.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/result.h"
#include "restore/db.h"

namespace perfbench {

enum class Workload { kCompleteMiss, kCompleteHit, kLiveIngest, kIngestMiss };

restore::Result<Workload> ParseWorkload(const std::string& name);
const char* WorkloadName(Workload w);

/// live_ingest and ingest_miss stream late rows into the served Db beside
/// their queries.
bool Ingests(Workload w);
/// complete_miss and ingest_miss run with kMissCacheBudgetBytes, so no
/// completed join is ever cached; the others run with an unbounded cache.
bool CacheBounded(Workload w);

/// Housing setup H1 at keep rate 0.5, removal correlation 0.5, scale 2. The
/// data seed is a constant: --seed varies the schedule, never the data, so
/// every run trains the same models.
constexpr uint64_t kDataSeed = 4242;
constexpr double kScale = 2.0;

using BenchData = restore::bench::SetupRun;
/// restore::bench::MakeSetupRun("H1", 0.5, 0.5, kScale, kDataSeed).
restore::Result<std::unique_ptr<BenchData>> MakeBenchData();

/// The repository's bench engine configuration (BenchEngineConfig()), plus
/// the workload's completion-cache budget.
restore::EngineConfig EngineConfigFor(Workload w);
/// Drift-triggered background refresh for the ingesting workloads (the
/// serve_housing policy); refresh disabled for the read workloads.
restore::RefreshPolicy RefreshPolicyFor(Workload w);

/// Completion-cache budget of the bounded workloads: its 8 shards get
/// 256 KiB each, below the smallest completed join of the mix (~0.9 MB), so
/// every completed answer re-samples.
constexpr size_t kMissCacheBudgetBytes = 2u << 20;

struct MixQuery {
  std::string name;
  std::string sql;
  bool classical = false;  // reads only complete tables
};
/// The ten HousingWorkload() queries plus two apartment NATURAL JOIN
/// neighborhood aggregates.
std::vector<MixQuery> QueryMix();

/// Opens a Db over `data` exactly as the serving process does and answers
/// every mix query once, in mix order (training every path the mix needs
/// and, with an unbounded cache, warming it).
restore::Result<std::shared_ptr<restore::Db>> OpenWarmDb(const BenchData& data,
                                                         Workload w);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
