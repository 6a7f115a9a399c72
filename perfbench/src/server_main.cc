// The serving process of the benchmark: builds the workload's data, opens a
// restore::Db, trains every path the query mix needs and answers each mix
// query once, then serves the Db over HTTP on an ephemeral port.
//
//   perfbench_server --workload <name> --run-dir <dir>
//
// It talks to the generator over stdin/stdout, one line each way:
//   -> "READY {json}"  once the listener accepts connections
//   <- "STATS"   -> "STATS {json}"  cache bytes, peak RSS, checkpoint times
//   <- "PROBE"   -> "PROBE {json}"  timed Database::Clone and Db::Freshness
//   <- "SAVE"    -> "SAVE {json}"   one timed Db::SaveModels into the run dir
//   <- "QUIT"    -> "FINAL {json}"  stops serving, digests the final snapshot
// EOF on stdin also stops it. The ingesting workloads (live_ingest,
// ingest_miss) checkpoint the models into <dir>/models every two seconds
// while serving.

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "arith.h"
#include "http_client.h"
#include "json.h"
#include "server/server.h"
#include "workload.h"

using namespace perfbench;

namespace {

double ReadVmHwmMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, 6, "VmHWM:") == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

/// Resets VmHWM to the current RSS, so the peak covers only what follows.
void ResetVmHwm() {
  std::ofstream out("/proc/self/clear_refs");
  out << "5";
}

void Reply(const std::string& line) {
  std::fputs((line + "\n").c_str(), stdout);
  std::fflush(stdout);
}

std::string Arg(int argc, char** argv, const char* flag) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return "";
}

/// Floating-point operations of one synthesized tuple, computed from the
/// model shape: one forward pass over every parameter (a multiply and an
/// add each) per sampled attribute.
double FlopsPerTuple(restore::Db& db) {
  auto path = db.SelectedPathFor("apartment");
  if (!path.ok()) return 0.0;
  auto model = db.ModelForPath(*path);
  if (!model.ok()) return 0.0;
  return 2.0 * static_cast<double>((*model)->num_parameters()) *
         static_cast<double>((*model)->attrs().size());
}

}  // namespace

int main(int argc, char** argv) {
  auto workload = ParseWorkload(Arg(argc, argv, "--workload"));
  const std::string run_dir = Arg(argc, argv, "--run-dir");
  if (!workload.ok() || run_dir.empty()) {
    std::fprintf(stderr, "usage: perfbench_server --workload <name> "
                         "--run-dir <dir>\n");
    return 2;
  }
  auto data = MakeBenchData();
  if (!data.ok()) {
    std::fprintf(stderr, "data: %s\n", data.status().ToString().c_str());
    return 1;
  }
  auto db_or = OpenWarmDb(**data, *workload);
  if (!db_or.ok()) {
    std::fprintf(stderr, "open: %s\n", db_or.status().ToString().c_str());
    return 1;
  }
  std::shared_ptr<restore::Db> db = *db_or;

  restore::server::TenantRegistry tenants;
  restore::server::TenantOptions quota;
  quota.max_inflight_queries = 64;
  if (auto s = tenants.Add("h1", db, quota); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  restore::server::ServerConfig config;
  config.port = 0;
  config.event_threads = 1;
  config.query_threads = 4;
  config.max_inflight_queries = 64;
  restore::server::HttpServer http(&tenants, config);
  ResetVmHwm();
  if (auto s = http.Start(); !s.ok()) {
    std::fprintf(stderr, "start: %s\n", s.ToString().c_str());
    return 1;
  }
  const char* width = std::getenv("RESTORE_NUM_THREADS");
  Reply("READY {\"port\":" + std::to_string(http.port()) +
        ",\"train_s\":" + JsonNum(db->total_train_seconds()) +
        ",\"models_trained\":" + std::to_string(db->models_trained()) +
        ",\"pool_width\":\"" + (width != nullptr ? width : "default") +
        "\",\"flops_per_tuple\":" + JsonNum(FlopsPerTuple(*db)) + "}");

  // Periodic checkpoint of the ingesting workloads, timed.
  const std::string model_dir = run_dir + "/models";
  std::mutex mu;
  std::condition_variable cv;
  bool stop = false;
  std::vector<double> save_ms;
  uint64_t save_failures = 0;
  const auto timed_save = [&] {
    const double a = NowSeconds();
    const restore::Status s = db->SaveModels(model_dir);
    const double ms = (NowSeconds() - a) * 1e3;
    std::lock_guard<std::mutex> lock(mu);
    if (s.ok()) {
      save_ms.push_back(ms);
    } else {
      ++save_failures;
      std::fprintf(stderr, "save: %s\n", s.ToString().c_str());
    }
    return ms;
  };
  std::thread checkpointer;
  if (Ingests(*workload)) {
    checkpointer = std::thread([&] {
      std::unique_lock<std::mutex> lock(mu);
      while (!cv.wait_for(lock, std::chrono::seconds(2), [&] { return stop; })) {
        lock.unlock();
        timed_save();
        lock.lock();
      }
    });
  }

  std::string line;
  while (std::getline(std::cin, line)) {
    if (line == "STATS") {
      std::lock_guard<std::mutex> lock(mu);
      Reply("STATS {\"cache_bytes\":" + std::to_string(db->cache().bytes()) +
            ",\"peak_rss_mb\":" + JsonNum(ReadVmHwmMb()) +
            ",\"save_ms_median\":" + JsonNum(Median(save_ms)) +
            ",\"saves\":" + std::to_string(save_ms.size()) +
            ",\"save_failures\":" + std::to_string(save_failures) + "}");
    } else if (line == "PROBE") {
      const double a = NowSeconds();
      const restore::Database copy = db->data()->Clone();
      const double b = NowSeconds();
      db->Freshness();
      const double c = NowSeconds();
      Reply("PROBE {\"clone_ms\":" + JsonNum((b - a) * 1e3) +
            ",\"drift_ms\":" + JsonNum((c - b) * 1e3) + "}");
    } else if (line == "SAVE") {
      const double ms = timed_save();
      Reply("SAVE {\"save_ms\":" + JsonNum(ms) + "}");
    } else if (line == "QUIT") {
      break;
    }
  }
  {
    std::lock_guard<std::mutex> lock(mu);
    stop = true;
  }
  cv.notify_all();
  if (checkpointer.joinable()) checkpointer.join();
  http.Stop();
  db->WaitForRefreshIdle();

  // Digest of the final snapshot's apartment ids: the generator checks that
  // every acknowledged row is visible.
  uint64_t rows = 0;
  uint64_t id_sum = 0;
  auto table = db->data()->GetTable("apartment");
  if (table.ok()) {
    auto col = (*table)->GetColumn("id");
    if (col.ok()) {
      rows = (*col)->size();
      for (int64_t id : (*col)->ints()) id_sum += static_cast<uint64_t>(id);
    }
  }
  Reply("FINAL {\"apartment_rows\":" + std::to_string(rows) +
        ",\"apartment_id_sum\":" + std::to_string(id_sum) + "}");
  return 0;
}
