// The benchmark's generator: starts perfbench_server as a child process,
// drives one workload at it over HTTP, checks every answer, and prints the
// result as the last line of stdout.
//
//   perfbench_loadgen --workload <complete_miss|complete_hit|live_ingest|
//                                 ingest_miss>
//                     --seed <n> --seconds <s> --trace <0|1>
//                     --server <perfbench_server binary> --run-dir <dir>
//
// --seed drives the schedule (query order, Poisson arrivals, the order of
// the late-arriving rows); the data is fixed. --trace 1 runs the same
// workload with spans and direct-call probes, prints the per-layer report,
// writes <run-dir>/spans.json and reports the per-layer metrics instead of
// the end-to-end ones.
//
// Exit code 0 means a result line was printed (its "correct" field says
// whether every answer and every workload self-check held); any other code
// means the run could not be carried out.

#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "arith.h"
#include "exec/executor.h"
#include "http_client.h"
#include "json.h"
#include "server/http.h"
#include "workload.h"

using namespace perfbench;

namespace {

// ---- Workload constants (never calibrated at run time) ---------------------------

/// Open-loop answers per second.
double QueryRate(Workload w) {
  switch (w) {
    case Workload::kCompleteMiss: return 25.0;
    case Workload::kCompleteHit: return 500.0;
    case Workload::kLiveIngest: return 42.0;
    case Workload::kIngestMiss: return 25.0;
  }
  return 1.0;
}

/// An untraced run is kCycles cycles of an open-loop segment (kOpenShare of
/// the cycle) followed by a closed-loop saturation segment. Each end-to-end
/// timing is the median over the cycles of the per-segment value, so a
/// stall of the machine that spans a few segments does not move it; a
/// segment holds at least 100 open-loop answers, so its p90 has 10 beyond.
constexpr int kCycles = 10;
constexpr double kOpenShare = 0.8;

constexpr int kOpenLoopConnections = 3;   // query connections, open loop
constexpr int kSaturationConnections = 2;
constexpr double kIngestRate = 6.0;       // batches per second
constexpr size_t kIngestBatchRows = 50;
constexpr double kPollIntervalS = 0.2;    // /v1/models poll
constexpr double kProbeIntervalS = 0.25;  // traced direct-call probes
/// A traced run alternates untraced and traced windows of this length, so
/// both halves sample the same stretch of a workload whose state evolves.
constexpr double kTraceWindowS = 1.0;
constexpr int kSetupRepeats = 3;
constexpr double kLateP99LimitMs = 5.0;
constexpr uint64_t kMinRefreshes = 5;
/// The server runs at this nice level so that, when the machine is busy,
/// the mostly idle generator threads still wake on time.
constexpr int kServerNice = 5;
constexpr int kRequestTimeoutMs = 15000;
constexpr int64_t kSecondGenerationIdOffset = 10000000;

double g_epoch = 0.0;  // generator clock origin

bool InTracedWindow(double offset_s) {
  return static_cast<int64_t>(std::floor(offset_s / kTraceWindowS)) % 2 == 1;
}
double Rel(double t) { return t - g_epoch; }

/// Sleeps until 200 us before `abs_seconds`, then spins: a wake-up can come
/// late, a spinning thread is already on a CPU.
void SleepUntil(double abs_seconds) {
  const double d = abs_seconds - NowSeconds() - 2e-4;
  if (d > 0) std::this_thread::sleep_for(std::chrono::duration<double>(d));
  while (NowSeconds() < abs_seconds) {
  }
}

std::string Arg(int argc, char** argv, const char* flag,
                const char* fallback = "") {
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return argv[i + 1];
  }
  return fallback;
}

/// Arrival times of a seeded Poisson process over [0, duration) with
/// round(rate * duration) arrivals: the process conditioned on its count is
/// that many sorted uniform draws. Fixing the count keeps the offered load
/// (and the number of samples behind each percentile) equal across seeds.
std::vector<double> PoissonDues(std::mt19937_64& rng, double rate,
                                double duration) {
  const size_t n = static_cast<size_t>(std::llround(rate * duration));
  std::vector<double> dues(n);
  for (double& t : dues) {
    t = static_cast<double>(rng() >> 11) / 9007199254740992.0 * duration;
  }
  std::sort(dues.begin(), dues.end());
  return dues;
}

/// Query order: back-to-back seeded permutations of the mix, so every
/// query is sent equally often.
std::vector<size_t> MixOrder(std::mt19937_64& rng, size_t mix_size,
                             size_t n) {
  std::vector<size_t> order;
  std::vector<size_t> block(mix_size);
  while (order.size() < n) {
    for (size_t i = 0; i < mix_size; ++i) block[i] = i;
    for (size_t i = mix_size - 1; i > 0; --i) {
      std::swap(block[i], block[rng() % (i + 1)]);
    }
    order.insert(order.end(), block.begin(), block.end());
  }
  order.resize(n);
  return order;
}

Answer ToAnswer(const restore::ResultSet& rs) {
  Answer a;
  for (size_t r = 0; r < rs.num_rows(); ++r) {
    std::string key;
    for (size_t c = 0; c < rs.num_key_columns(); ++c) {
      if (c > 0) key += '\x1f';
      key += rs.key(r, c);
    }
    std::vector<double> values;
    for (size_t c = 0; c < rs.num_value_columns(); ++c) {
      values.push_back(rs.value(r, c));
    }
    a.keys.push_back(std::move(key));
    a.rows.push_back(std::move(values));
  }
  return a;
}

// ---- The serving process ----------------------------------------------------------

class ServerProcess {
 public:
  ServerProcess() = default;
  ~ServerProcess() { Kill(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  /// Starts the server and waits for READY; `*setup_s` is the time from
  /// fork to the READY line (the listener is accepting by then).
  bool Launch(const std::string& bin, Workload w, const std::string& run_dir,
              double* setup_s) {
    int in_pipe[2];
    int out_pipe[2];
    if (::pipe(in_pipe) != 0 || ::pipe(out_pipe) != 0) return false;
    // Only async-signal-safe calls between fork and exec: the generator
    // already runs thread-pool threads that may hold the allocator's locks.
    const char* workload = WorkloadName(w);
    const double t0 = NowSeconds();
    pid_ = ::fork();
    if (pid_ < 0) return false;
    if (pid_ == 0) {
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);
      if (::nice(kServerNice) == -1) ::_exit(126);
      ::dup2(in_pipe[0], 0);
      ::dup2(out_pipe[1], 1);
      ::close(in_pipe[1]);
      ::close(out_pipe[0]);
      ::execl(bin.c_str(), bin.c_str(), "--workload", workload, "--run-dir",
              run_dir.c_str(), static_cast<char*>(nullptr));
      ::_exit(127);
    }
    ::close(in_pipe[0]);
    ::close(out_pipe[1]);
    to_fd_ = in_pipe[1];
    from_fd_ = out_pipe[0];
    std::string line;
    if (!ReadLine(&line, 120.0) || line.compare(0, 6, "READY ") != 0) {
      std::fprintf(stderr, "server did not become ready: '%s'\n",
                   line.c_str());
      return false;
    }
    *setup_s = NowSeconds() - t0;
    std::string error;
    if (!ParseJson(line.substr(6), &ready_, &error)) return false;
    port_ = static_cast<uint16_t>(ready_.Num("port"));
    return true;
  }

  /// Sends one control command and parses the "<VERB> {json}" reply.
  bool Command(const std::string& verb, Json* reply, double timeout_s = 60.0) {
    std::lock_guard<std::mutex> lock(mu_);
    const std::string cmd = verb + "\n";
    if (::write(to_fd_, cmd.data(), cmd.size()) !=
        static_cast<ssize_t>(cmd.size())) {
      return false;
    }
    const std::string want = (verb == "QUIT" ? std::string("FINAL") : verb) + " ";
    std::string line;
    if (!ReadLine(&line, timeout_s) || line.compare(0, want.size(), want) != 0) {
      return false;
    }
    std::string error;
    return ParseJson(line.substr(want.size()), reply, &error);
  }

  /// QUIT, then reap the process.
  bool Quit(Json* final_report) {
    const bool ok = Command("QUIT", final_report);
    Reap(30.0);
    return ok;
  }

  void Kill() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGKILL);
    Reap(30.0);
  }

  uint16_t port() const { return port_; }
  const Json& ready() const { return ready_; }

 private:
  bool ReadLine(std::string* line, double timeout_s) {
    const double deadline = NowSeconds() + timeout_s;
    while (true) {
      const size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        *line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      const double left = deadline - NowSeconds();
      if (left <= 0) return false;
      pollfd p{from_fd_, POLLIN, 0};
      if (::poll(&p, 1, static_cast<int>(left * 1000) + 1) <= 0) continue;
      char tmp[4096];
      const ssize_t n = ::read(from_fd_, tmp, sizeof(tmp));
      if (n <= 0) return false;
      buf_.append(tmp, static_cast<size_t>(n));
    }
  }

  void Reap(double timeout_s) {
    if (pid_ <= 0) return;
    const double deadline = NowSeconds() + timeout_s;
    while (true) {
      int status = 0;
      const pid_t r = ::waitpid(pid_, &status, WNOHANG);
      if (r == pid_ || r < 0) break;
      if (NowSeconds() > deadline) {
        ::kill(pid_, SIGKILL);
        ::waitpid(pid_, &status, 0);
        break;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    pid_ = -1;
    if (to_fd_ >= 0) ::close(to_fd_);
    if (from_fd_ >= 0) ::close(from_fd_);
    to_fd_ = from_fd_ = -1;
  }

  pid_t pid_ = -1;
  int to_fd_ = -1;
  int from_fd_ = -1;
  uint16_t port_ = 0;
  std::string buf_;
  Json ready_;
  std::mutex mu_;
};

// ---- Records ------------------------------------------------------------------------

enum class Phase { kPreIngest, kUntraced, kTraced, kSaturation };

struct QueryRecord {
  OpTiming t;
  double checked = 0.0;  // answer parsed and checked
  size_t query = 0;
  int segment = 0;       // cycle of an untraced run
  Phase phase = Phase::kUntraced;
  bool transport_ok = false;
  int status = 0;
  bool parsed = false;  // a 200 body in the documented shape
  bool correct = false;
  size_t wire_bytes = 0;
  ExecTail tail;
  Answer answer;
  std::string error;
};

struct IngestRecord {
  OpTiming t;
  bool ok = false;
  int status = 0;
  std::string error;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string base;  // sample count or denominator; or why it was dropped
  bool dropped = false;
};

struct ModelObs {
  uint64_t generation = 0;
  uint64_t trained_rows = 0;
  double train_seconds = 0.0;
};
struct Poll {
  double time = 0.0;
  bool ok = false;
  std::map<std::string, ModelObs> models;  // path "a->b" -> observation
};

// ---- The run ----------------------------------------------------------------------------

class Run {
 public:
  Run(Workload w, uint64_t seed, double seconds, bool trace)
      : w_(w), seed_(seed), seconds_(seconds), trace_(trace),
        mix_(QueryMix()), rng_(seed * 0x9E3779B97F4A7C15ull + 17) {}

  int Main(const std::string& server_bin, const std::string& run_dir);

 private:
  bool Prepare();
  void BuildLateRows(const BenchData& data);
  bool CheckAnswer(QueryRecord* r) const;
  void Execute(HttpClient& client, QueryRecord* r) const;
  void QueryWorker(const std::vector<double>* dues,
                   const std::vector<size_t>* order, std::atomic<size_t>* next,
                   double phase_start, bool windowed, int segment);
  void SaturationWorker(std::atomic<size_t>* next, double start, double end,
                        int segment, std::atomic<uint64_t>* completed);
  void IngestWorker(std::vector<double> dues, double start);
  void PollWorker(double end);
  void ProbeWorker(double start, double end);
  void RunOpenLoop(double duration, bool windowed, int segment);
  void RunSaturation(double duration, int segment);
  bool ParsePoll(const std::string& body, Poll* poll) const;
  std::vector<Metric> EndToEnd(double setup_s, const Json& stats) const;
  std::vector<Metric> PerLayer(const Json& stats,
                               const std::string& metrics_text,
                               double load_ms, double save_ms,
                               uint64_t attempted, uint64_t failed) const;
  void RefreshLags(std::vector<double>* lags,
                   std::vector<double>* train_s) const;
  void AddSpans(const QueryRecord& r, std::vector<Span>* out);
  void WriteSpans(const std::string& path) const;
  void TimeHttpParse();
  void PreIngestRound();

  Workload w_;
  uint64_t seed_;
  double seconds_;
  bool trace_;
  std::vector<MixQuery> mix_;
  std::mt19937_64 rng_;
  std::unique_ptr<BenchData> data_;
  std::unique_ptr<ServerProcess> server_;

  std::vector<Answer> reference_;  // frozen reference Db answers
  std::vector<Answer> truth_;      // classical answers on the complete data
  std::vector<std::string> late_rows_;  // JSON row arrays, seeded order
  std::vector<int64_t> late_ids_;
  uint64_t initial_rows_ = 0;
  uint64_t initial_id_sum_ = 0;

  std::mutex mu_;
  std::vector<QueryRecord> queries_;
  std::vector<IngestRecord> ingests_;
  std::vector<IngestAck> acks_;
  uint64_t acked_id_sum_ = 0;
  std::vector<Poll> polls_;
  std::vector<Span> spans_;
  std::vector<double> http_parse_us_;
  std::atomic<uint64_t> next_span_id_{1};
  std::vector<double> clone_ms_;
  std::vector<double> drift_ms_;
  std::vector<double> saturation_qps_;  // one per cycle
  std::atomic<bool> stop_background_{false};
  size_t next_ingest_ = 0;
};

bool Run::Prepare() {
  auto data = MakeBenchData();
  if (!data.ok()) {
    std::fprintf(stderr, "data: %s\n", data.status().ToString().c_str());
    return false;
  }
  data_ = std::move(*data);
  for (const MixQuery& q : mix_) {
    auto truth = restore::ExecuteSql(data_->complete, q.sql);
    if (!truth.ok()) {
      std::fprintf(stderr, "truth %s: %s\n", q.name.c_str(),
                   truth.status().ToString().c_str());
      return false;
    }
    truth_.push_back(ToAnswer(*truth));
  }
  // The in-process reference: same code, config and data, warmed in the
  // same order as the server, so it holds the same models and cache. It
  // never ingests: under an ingesting workload it answers for epoch 0 only.
  auto ref = OpenWarmDb(*data_, w_);
  if (!ref.ok()) {
    std::fprintf(stderr, "reference: %s\n", ref.status().ToString().c_str());
    return false;
  }
  for (const MixQuery& q : mix_) {
    auto rs = (*ref)->ExecuteCompletedSql(q.sql);
    if (!rs.ok()) return false;
    reference_.push_back(ToAnswer(*rs));
  }
  if (Ingests(w_)) BuildLateRows(*data_);
  return true;
}

std::string RowJson(const restore::Table& t, size_t r, int64_t id_offset,
                    int64_t* id) {
  std::string out = "[";
  for (size_t c = 0; c < t.NumColumns(); ++c) {
    const restore::Column& col = t.column(c);
    if (c > 0) out += ',';
    if (col.IsNull(r)) {
      out += "null";
      continue;
    }
    switch (col.type()) {
      case restore::ColumnType::kInt64: {
        int64_t v = col.GetInt64(r);
        if (col.name() == "id") {
          v += id_offset;
          *id = v;
        }
        out += std::to_string(v);
        break;
      }
      case restore::ColumnType::kDouble:
        out += JsonNum(col.GetDouble(r));
        break;
      case restore::ColumnType::kCategorical:
        out += "\"" + col.dictionary()->ValueOf(col.GetCode(r)) + "\"";
        break;
    }
  }
  return out + "]";
}

/// The late-arriving rows: the apartments set-up removed, in an order
/// seeded by the data seed, then apartments of a second housing generation
/// (ids offset) for runs that outlast them. The order does not follow
/// --seed: which rows arrive when decides the drift, the refreshes and the
/// cost of every re-sample, and a per-seed order widened the spread of
/// live_ingest's query_p90_ms over ten seeds from 0.19 to 0.23.
void Run::BuildLateRows(const BenchData& data) {
  const restore::Table* kept = *data.incomplete.GetTable("apartment");
  const restore::Table* all = *data.complete.GetTable("apartment");
  std::set<int64_t> kept_ids;
  const restore::Column* kept_col = *kept->GetColumn("id");
  for (int64_t id : kept_col->ints()) {
    kept_ids.insert(id);
    initial_id_sum_ += static_cast<uint64_t>(id);
  }
  initial_rows_ = kept->NumRows();
  const restore::Column* all_ids = *all->GetColumn("id");
  std::vector<size_t> removed;
  for (size_t r = 0; r < all->NumRows(); ++r) {
    if (kept_ids.count(all_ids->GetInt64(r)) == 0) removed.push_back(r);
  }
  std::mt19937_64 order_rng(kDataSeed);
  for (size_t i = removed.size(); i > 1; --i) {
    std::swap(removed[i - 1], removed[order_rng() % i]);
  }
  for (size_t r : removed) {
    int64_t id = 0;
    late_rows_.push_back(RowJson(*all, r, 0, &id));
    late_ids_.push_back(id);
  }
  auto second = restore::BuildCompleteDatabase(data.setup.dataset,
                                               kDataSeed + 7, kScale);
  if (second.ok()) {
    const restore::Table* more = *second->GetTable("apartment");
    for (size_t r = 0; r < more->NumRows(); ++r) {
      int64_t id = 0;
      late_rows_.push_back(RowJson(*more, r, kSecondGenerationIdOffset, &id));
      late_ids_.push_back(id);
    }
  }
}

bool Run::CheckAnswer(QueryRecord* r) const {
  if (!r->transport_ok) return false;
  if (r->status != 200) {
    r->error = "HTTP " + std::to_string(r->status);
    return false;
  }
  if (!r->parsed) return false;
  const MixQuery& q = mix_[r->query];
  if (q.classical && !BitIdentical(r->answer, truth_[r->query])) {
    r->error = q.name + ": classical answer differs from the complete data";
    return false;
  }
  // After the first ingest the served data and models move on from the
  // frozen reference, so an ingesting workload compares only its
  // pre-ingest round.
  const bool frozen = !Ingests(w_) || r->phase == Phase::kPreIngest;
  if (frozen && !BitIdentical(r->answer, reference_[r->query])) {
    r->error = q.name + ": answer differs from the reference Db";
    return false;
  }
  return true;
}

void Run::Execute(HttpClient& client, QueryRecord* r) const {
  HttpResult h = client.Send("POST", "/v1/query", mix_[r->query].sql);
  r->t.sent = h.sent;
  r->t.done = h.ok ? h.done : NowSeconds();
  r->transport_ok = h.ok;
  r->status = h.status;
  r->wire_bytes = h.wire_bytes;
  r->error = h.error;
  if (h.ok && h.status == 200) {
    std::string error;
    r->parsed = ParseQueryBody(h.body, &r->answer, &r->tail, &error);
    if (!r->parsed) r->error = error;
  }
  r->correct = CheckAnswer(r);
  r->checked = NowSeconds();
}

void Run::QueryWorker(const std::vector<double>* dues,
                      const std::vector<size_t>* order,
                      std::atomic<size_t>* next, double phase_start,
                      bool windowed, int segment) {
  HttpClient client("127.0.0.1", server_->port(), kRequestTimeoutMs);
  std::vector<QueryRecord> local;
  std::vector<Span> spans;
  while (true) {
    const size_t i = next->fetch_add(1);
    if (i >= dues->size()) break;
    QueryRecord r;
    r.t.taken = NowSeconds();
    r.t.due = phase_start + (*dues)[i];
    r.query = (*order)[i];
    r.segment = segment;
    r.phase = windowed && InTracedWindow((*dues)[i]) ? Phase::kTraced
                                                      : Phase::kUntraced;
    SleepUntil(r.t.due);
    Execute(client, &r);
    if (r.phase == Phase::kTraced) AddSpans(r, &spans);
    local.push_back(std::move(r));
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& r : local) queries_.push_back(std::move(r));
  spans_.insert(spans_.end(), spans.begin(), spans.end());
}

void Run::RunOpenLoop(double duration, bool windowed, int segment) {
  std::vector<double> dues = PoissonDues(rng_, QueryRate(w_), duration);
  std::vector<size_t> order = MixOrder(rng_, mix_.size(), dues.size());
  std::atomic<size_t> next{0};
  const double start = NowSeconds() + 0.05;
  std::vector<std::thread> threads;
  for (int c = 0; c < kOpenLoopConnections; ++c) {
    threads.emplace_back(&Run::QueryWorker, this, &dues, &order, &next, start,
                         windowed, segment);
  }
  std::thread prober;
  if (windowed) prober = std::thread(&Run::ProbeWorker, this, start,
                                     start + duration);
  for (auto& t : threads) t.join();
  if (prober.joinable()) prober.join();
  SleepUntil(start + duration);
}

void Run::SaturationWorker(std::atomic<size_t>* next, double start,
                           double end, int segment,
                           std::atomic<uint64_t>* completed) {
  HttpClient client("127.0.0.1", server_->port(), kRequestTimeoutMs);
  std::vector<QueryRecord> local;
  SleepUntil(start);
  while (NowSeconds() < end) {
    const size_t i = next->fetch_add(1);
    QueryRecord r;
    r.query = i % mix_.size();
    r.segment = segment;
    r.phase = Phase::kSaturation;
    Execute(client, &r);
    r.t.due = r.t.taken = r.t.sent;  // closed loop: due when sent
    if (r.t.done <= end && r.correct) completed->fetch_add(1);
    local.push_back(std::move(r));
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& r : local) queries_.push_back(std::move(r));
}

void Run::RunSaturation(double duration, int segment) {
  // A seeded starting point in the mix; closed-loop connections then walk
  // it in order.
  std::atomic<size_t> next{static_cast<size_t>(rng_() % mix_.size())};
  std::atomic<uint64_t> completed{0};
  const double start = NowSeconds() + 0.05;
  const double end = start + duration;
  std::vector<std::thread> threads;
  for (int c = 0; c < kSaturationConnections; ++c) {
    threads.emplace_back(&Run::SaturationWorker, this, &next, start, end,
                         segment, &completed);
  }
  for (auto& t : threads) t.join();
  saturation_qps_.push_back(static_cast<double>(completed.load()) / duration);
}

void Run::IngestWorker(std::vector<double> dues, double start) {
  HttpClient client("127.0.0.1", server_->port(), kRequestTimeoutMs);
  uint64_t rows_total = 0;
  for (double due : dues) {
    if (next_ingest_ + kIngestBatchRows > late_rows_.size()) break;
    IngestRecord rec;
    rec.t.taken = NowSeconds();
    rec.t.due = start + due;
    SleepUntil(rec.t.due);
    std::string body = "[";
    uint64_t id_sum = 0;
    for (size_t k = 0; k < kIngestBatchRows; ++k) {
      if (k > 0) body += ',';
      body += late_rows_[next_ingest_ + k];
      id_sum += static_cast<uint64_t>(late_ids_[next_ingest_ + k]);
    }
    body += "]";
    HttpResult h = client.Send("POST", "/v1/ingest/apartment", body);
    rec.t.sent = h.sent;
    rec.t.done = h.ok ? h.done : NowSeconds();
    rec.status = h.status;
    rec.error = h.error;
    if (h.ok && h.status == 200) {
      Json ack;
      std::string error;
      if (ParseJson(h.body, &ack, &error) &&
          ack.Num("appended") == static_cast<double>(kIngestBatchRows)) {
        rec.ok = true;
      } else {
        rec.error = "bad ingest acknowledgement: " + h.body;
      }
    } else if (h.ok) {
      rec.error = "HTTP " + std::to_string(h.status) + ": " + h.body;
    }
    // A failed batch is not retried; only acknowledged rows are expected
    // in the final snapshot.
    next_ingest_ += kIngestBatchRows;
    std::lock_guard<std::mutex> lock(mu_);
    if (rec.ok) {
      rows_total += kIngestBatchRows;
      acks_.push_back({Rel(rec.t.done), rows_total});
      acked_id_sum_ += id_sum;
    }
    ingests_.push_back(rec);
  }
}

bool Run::ParsePoll(const std::string& body, Poll* poll) const {
  Json doc;
  std::string error;
  if (!ParseJson(body, &doc, &error)) return false;
  const Json& tenants = doc["tenants"];
  if (tenants.array.empty()) return false;
  for (const Json& m : tenants.array[0]["models"].array) {
    std::string key;
    for (const Json& t : m["path"].array) {
      if (!key.empty()) key += "->";
      key += t.text;
    }
    ModelObs obs;
    obs.generation = static_cast<uint64_t>(m.Num("generation"));
    obs.trained_rows = static_cast<uint64_t>(m.Num("trained_rows"));
    obs.train_seconds = m.Num("train_seconds");
    poll->models[key] = obs;
  }
  return true;
}

void Run::PollWorker(double end) {
  HttpClient client("127.0.0.1", server_->port(), kRequestTimeoutMs);
  double next = NowSeconds();
  while (!stop_background_.load() && NowSeconds() < end) {
    SleepUntil(next);
    next += kPollIntervalS;
    HttpResult h = client.Send("GET", "/v1/models", "");
    Poll poll;
    poll.time = Rel(h.ok ? h.done : NowSeconds());
    poll.ok = h.ok && h.status == 200 && ParsePoll(h.body, &poll);
    std::lock_guard<std::mutex> lock(mu_);
    polls_.push_back(std::move(poll));
  }
}

void Run::ProbeWorker(double start, double end) {
  double next = start;
  while (NowSeconds() < end) {
    SleepUntil(next);
    next += kProbeIntervalS;
    if (!InTracedWindow(next - kProbeIntervalS - start)) continue;
    Json reply;
    const double sent = Rel(NowSeconds());
    const bool ok = server_->Command("PROBE", &reply, 10.0);
    std::lock_guard<std::mutex> lock(mu_);
    if (ok) {
      const double clone_ms = reply.Num("clone_ms");
      const double drift_ms = reply.Num("drift_ms");
      clone_ms_.push_back(clone_ms);
      drift_ms_.push_back(drift_ms);
      // Direct calls run back to back in the server right after the probe
      // command arrives; their placement is approximate, durations exact.
      const uint64_t id = next_span_id_.fetch_add(2);
      spans_.push_back({"storage.clone", sent, sent + clone_ms / 1e3, id, 0, 0});
      spans_.push_back({"stats.drift", sent + clone_ms / 1e3,
                        sent + (clone_ms + drift_ms) / 1e3, id + 1, 0, 0});
    }
  }
}

/// Sum of the values of every sample of a Prometheus metric family.
double ScrapeCounter(const std::string& text, const std::string& family) {
  double sum = 0.0;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.compare(0, family.size(), family) != 0) continue;
    const char next = line.size() > family.size() ? line[family.size()] : ' ';
    if (next != '{' && next != ' ') continue;
    const size_t sp = line.rfind(' ');
    if (sp != std::string::npos) sum += std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return sum;
}

std::string Fmt(const char* fmt, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), fmt, v);
  return buf;
}

struct QueryStats {
  std::vector<double> latency_ms;
  std::vector<double> late_ms;
  uint64_t shed = 0;
  uint64_t completed_hits = 0;
  uint64_t completed_misses = 0;
};

QueryStats Summarize(const std::vector<QueryRecord>& records, Phase phase,
                     const std::vector<MixQuery>& mix) {
  QueryStats s;
  for (const QueryRecord& r : records) {
    if (r.phase != phase) continue;
    if (r.status == 503) ++s.shed;
    if (!r.transport_ok) continue;
    s.latency_ms.push_back(DueLatency(r.t) * 1e3);
    s.late_ms.push_back(GeneratorLateness(r.t) * 1e3);
    if (!mix[r.query].classical) {
      s.completed_hits += r.tail.cache_hits;
      s.completed_misses += r.tail.cache_misses;
    }
  }
  return s;
}

// ---- Spans --------------------------------------------------------------------------

void Run::AddSpans(const QueryRecord& r, std::vector<Span>* out) {
  const uint64_t root = next_span_id_.fetch_add(8);  // 3 + 5 stage spans
  const uint64_t request = root;
  const auto add = [&](const char* name, double a, double b, uint64_t id,
                       uint64_t parent) {
    out->push_back({name, Rel(a), Rel(b), id, parent, request});
  };
  // The root ends once the generator has parsed and checked the answer.
  add("loadgen.request", r.t.due, r.checked, root, 0);
  add("loadgen.wait", r.t.due, r.t.sent, root + 1, root);
  add("server.http", r.t.sent, r.t.done, root + 2, root);
  if (!r.parsed) return;
  // The engine stages are derived from the stats tail: their durations are
  // the server's, their placement inside the round trip is not observed, so
  // they are laid end to end, centred in it.
  const ExecTail& e = r.tail;
  const double http = r.t.done - r.t.sent;
  double t = r.t.sent + std::max(0.0, (http - e.EngineSeconds()) / 2);
  const std::pair<const char*, double> stages[] = {
      {"exec.parse", e.parse_s}, {"exec.plan", e.plan_s},
      {"restore.selection", e.selection_s}, {"restore.complete", e.sample_s},
      {"exec.aggregate", e.aggregate_s}};
  uint64_t id = root + 3;
  for (const auto& [name, d] : stages) {
    const double end = std::min(t + d, r.t.done);
    add(name, t, end, id++, root + 2);
    t = end;
  }
}

void Run::WriteSpans(const std::string& path) const {
  std::ofstream out(path);
  out << "{\"clock\":\"seconds since generator start\",\"spans\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i > 0 ? ",\n" : "\n") << "{\"name\":\"" << s.name
        << "\",\"start\":" << JsonNum(s.start) << ",\"end\":" << JsonNum(s.end)
        << ",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}";
  }
  out << "\n]}\n";
}

/// Times HttpRequestParser::Feed on the exact request bytes of the
/// workload, as direct calls.
void Run::TimeHttpParse() {
  std::vector<std::string> requests;
  for (const MixQuery& q : mix_) {
    requests.push_back(HttpClient::Encode("POST", "/v1/query", q.sql));
  }
  if (!late_rows_.empty()) {
    std::string body = "[";
    for (size_t k = 0; k < kIngestBatchRows; ++k) {
      body += (k > 0 ? "," : "") + late_rows_[k];
    }
    requests.push_back(
        HttpClient::Encode("POST", "/v1/ingest/apartment", body + "]"));
  }
  for (int rep = 0; rep < 200; ++rep) {
    for (const std::string& req : requests) {
      const double a = NowSeconds();
      restore::server::HttpRequestParser parser;
      const auto state = parser.Feed(req.data(), req.size());
      const double b = NowSeconds();
      if (state != restore::server::HttpRequestParser::State::kComplete) {
        continue;
      }
      http_parse_us_.push_back((b - a) * 1e6);
      if (rep == 0) {
        spans_.push_back({"server.http_parse", Rel(a), Rel(b),
                          next_span_id_.fetch_add(1), 0, 0});
      }
    }
  }
}

/// An ingesting workload answers every mix query once before the first
/// ingest: these epoch-0 answers are checked bit for bit against the
/// reference Db, and they are the ones answer_rel_error scores.
void Run::PreIngestRound() {
  HttpClient client("127.0.0.1", server_->port(), kRequestTimeoutMs);
  for (size_t q = 0; q < mix_.size(); ++q) {
    QueryRecord r;
    r.query = q;
    r.phase = Phase::kPreIngest;
    Execute(client, &r);
    r.t.due = r.t.taken = r.t.sent;
    queries_.push_back(std::move(r));
  }
}

// ---- Metrics ------------------------------------------------------------------------

/// Per-generation refresh lag (seconds) and the train seconds of the same
/// generations, from the /v1/models polls and the ingest acks.
void Run::RefreshLags(std::vector<double>* lags,
                      std::vector<double>* train_s) const {
  std::map<std::string, ModelObs> base;
  std::map<std::string, ModelObs> prev;
  for (const Poll& p : polls_) {
    if (!p.ok) continue;
    for (const auto& [path, obs] : p.models) {
      if (path.find("apartment") == std::string::npos) continue;
      if (base.count(path) == 0) {
        base[path] = prev[path] = obs;
        continue;
      }
      if (obs.generation <= prev[path].generation) continue;
      const double lag =
          RefreshLag(acks_, base[path].trained_rows, prev[path].trained_rows,
                     obs.trained_rows, p.time);
      std::fprintf(stderr,
                   "refresh: %s gen %llu, trained_rows %llu, seen %.2f s, "
                   "train %.2f s, lag %.2f s\n",
                   path.c_str(), static_cast<unsigned long long>(obs.generation),
                   static_cast<unsigned long long>(obs.trained_rows), p.time,
                   obs.train_seconds, lag);
      if (lag >= 0) {
        lags->push_back(lag);
        train_s->push_back(obs.train_seconds);
      }
      prev[path] = obs;
    }
  }
}

/// Median over queries of the mean relative error of their answers in
/// `phases` against `truth`.
double AnswerError(const std::vector<QueryRecord>& records,
                   const std::vector<Answer>& truth, size_t mix_size,
                   const std::set<Phase>& phases) {
  std::vector<std::vector<double>> per_query(mix_size);
  for (const QueryRecord& r : records) {
    // Wrong answers count too: their error is what the user saw.
    if (phases.count(r.phase) == 0 || !r.parsed) continue;
    per_query[r.query].push_back(AnswerRelativeError(r.answer, truth[r.query]));
  }
  std::vector<double> means;
  for (const auto& v : per_query) {
    if (!v.empty()) means.push_back(Mean(v));
  }
  return Median(means);
}

std::vector<Metric> Run::EndToEnd(double setup_s, const Json& stats) const {
  std::vector<std::vector<double>> segments(kCycles);
  for (const QueryRecord& r : queries_) {
    if (r.phase == Phase::kUntraced && r.transport_ok) {
      segments[r.segment].push_back(DueLatency(r.t) * 1e3);
    }
  }
  std::vector<double> p50s;
  std::vector<double> p90s;
  for (int c = 0; c < kCycles; ++c) {
    p50s.push_back(Percentile(segments[c], 50));
    p90s.push_back(Percentile(segments[c], 90));
    std::fprintf(stderr, "cycle %d: p50 %.3f p90 %.3f ms, saturation %.1f/s\n",
                 c, p50s.back(), p90s.back(), saturation_qps_[c]);
  }
  return {
      {"setup_s", setup_s, "s", ""},
      {"query_p50_ms", Median(p50s), "ms", ""},
      {"query_p90_ms", Median(p90s), "ms", ""},
      {"throughput_qps", Median(saturation_qps_), "1/s", ""},
      {"answer_rel_error",
       AnswerError(queries_, truth_, mix_.size(),
                   Ingests(w_)
                       ? std::set<Phase>{Phase::kPreIngest}
                       : std::set<Phase>{Phase::kUntraced, Phase::kSaturation}),
       "ratio", ""},
      {"peak_rss_mb", stats.Num("peak_rss_mb"), "MB", ""},
  };
}

std::vector<Metric> Run::PerLayer(const Json& stats,
                                  const std::string& metrics_text,
                                  double load_ms, double save_ms,
                                  uint64_t attempted, uint64_t failed) const {
  std::vector<Metric> m;
  const auto n = [](size_t k, const char* what) {
    return std::to_string(k) + " " + what;
  };
  const auto add = [&](const char* name, double v, const char* unit,
                       std::string base) {
    m.push_back({name, v, unit, std::move(base), false});
  };
  const auto drop = [&](const char* name, const char* unit, std::string why) {
    m.push_back({name, 0.0, unit, std::move(why), true});
  };
  const bool live = Ingests(w_);

  // Traced-phase query samples.
  std::vector<double> late, self_ms, bytes, parse, plan, selection, aggregate,
      complete, latency_traced, latency_untraced;
  double tuples = 0, sample_s_with_tuples = 0, tuples_for_nn = 0;
  uint64_t hits = 0, misses = 0;
  size_t completed_answers = 0;
  for (const QueryRecord& r : queries_) {
    if (!r.transport_ok) continue;
    if (r.phase == Phase::kUntraced) {
      latency_untraced.push_back(DueLatency(r.t) * 1e3);
    }
    if (r.phase != Phase::kTraced) continue;
    latency_traced.push_back(DueLatency(r.t) * 1e3);
    late.push_back(GeneratorLateness(r.t) * 1e3);
    if (!r.parsed) continue;
    const ExecTail& e = r.tail;
    self_ms.push_back((r.t.done - r.t.sent - e.EngineSeconds()) * 1e3);
    bytes.push_back(static_cast<double>(r.wire_bytes));
    parse.push_back(e.parse_s * 1e3);
    plan.push_back(e.plan_s * 1e3);
    selection.push_back(e.selection_s * 1e3);
    aggregate.push_back(e.aggregate_s * 1e3);
    if (mix_[r.query].classical) continue;
    ++completed_answers;
    complete.push_back(e.sample_s * 1e3);
    tuples += static_cast<double>(e.tuples_completed);
    hits += e.cache_hits;
    misses += e.cache_misses;
    if (e.tuples_completed > 0) {
      sample_s_with_tuples += e.sample_s;
      tuples_for_nn += static_cast<double>(e.tuples_completed);
    }
  }
  const std::string answers = n(self_ms.size(), "answers");
  const std::string completed = n(completed_answers, "completed answers");

  add("loadgen.late_p99_ms", Percentile(late, 99), "ms",
      n(late.size(), "traced requests"));
  add("loadgen.sent", static_cast<double>(attempted), "count",
      "operations of the whole run");
  add("loadgen.failed", static_cast<double>(failed), "count",
      n(attempted, "operations"));
  add("server.self_ms", Median(self_ms), "ms", answers);
  add("server.http_parse_us", Median(http_parse_us_), "us",
      n(http_parse_us_.size(), "parses"));
  add("server.response_bytes", Mean(bytes), "bytes", answers);
  add("exec.parse_ms", Median(parse), "ms", answers);
  add("exec.plan_ms", Median(plan), "ms", answers);
  add("exec.aggregate_ms", Median(aggregate), "ms", answers);
  add("restore.selection_ms", Median(selection), "ms", answers);
  add("restore.complete_ms", Median(complete), "ms", completed);
  add("restore.tuples_completed",
      completed_answers > 0 ? tuples / completed_answers : 0.0, "count",
      completed + " (mean per answer)");
  if (hits + misses > 0) {
    add("restore.cache_hit_ratio",
        static_cast<double>(hits) / static_cast<double>(hits + misses),
        "ratio", n(hits + misses, "cache lookups of completed answers"));
  } else {
    drop("restore.cache_hit_ratio", "ratio", "no cache lookups");
  }
  add("restore.cache_bytes", stats.Num("cache_bytes"), "bytes",
      "Db::cache().bytes() at the end of the run");
  add("restore.train_s", server_->ready().Num("train_s"), "s",
      "Db::total_train_seconds() after set-up");
  add("restore.models_trained", server_->ready().Num("models_trained"), "count",
      "Db::models_trained() after set-up");

  std::vector<double> lags, refresh_train;
  RefreshLags(&lags, &refresh_train);
  std::vector<double> waits;
  for (size_t i = 0; i < lags.size(); ++i) {
    waits.push_back(lags[i] - refresh_train[i]);
  }
  const std::string gens = n(lags.size(), "refreshed generations");
  if (!lags.empty()) {
    add("restore.refresh_train_s", Median(refresh_train), "s", gens);
    add("restore.refresh_wait_s", Median(waits), "s", gens);
  } else {
    const char* why = live ? "no refreshed generation was observed"
                           : "workload does not ingest, nothing refreshes";
    drop("restore.refresh_train_s", "s", why);
    drop("restore.refresh_wait_s", "s", why);
  }
  add("restore.models_refreshed",
      ScrapeCounter(metrics_text, "restore_models_refreshed_total"), "count",
      "/metrics restore_models_refreshed_total");
  add("restore.refresh_failures",
      ScrapeCounter(metrics_text, "restore_refresh_failures_total"), "count",
      "/metrics restore_refresh_failures_total");
  if (live && stats.Num("saves") > 0) {
    add("restore.save_ms", stats.Num("save_ms_median"), "ms",
        n(static_cast<size_t>(stats.Num("saves")), "periodic checkpoints"));
  } else if (save_ms > 0) {
    add("restore.save_ms", save_ms, "ms", "1 checkpoint after the run");
  } else {
    drop("restore.save_ms", "ms", "no checkpoint was written");
  }
  if (load_ms > 0) {
    add("restore.load_ms", load_ms, "ms", "1 Db::Open over the saved models");
  } else {
    drop("restore.load_ms", "ms", "no saved models to load");
  }
  if (tuples_for_nn > 0) {
    add("nn.us_per_tuple", sample_s_with_tuples / tuples_for_nn * 1e6, "us",
        n(static_cast<size_t>(tuples_for_nn), "tuples completed"));
  } else {
    drop("nn.us_per_tuple", "us", "no tuples were completed (cache hits)");
  }
  add("nn.flops_per_tuple", server_->ready().Num("flops_per_tuple"), "flop",
      "computed from model shapes, not measured");
  if (!clone_ms_.empty()) {
    add("storage.clone_ms", Median(clone_ms_), "ms",
        n(clone_ms_.size(), "probes"));
    add("stats.drift_ms", Median(drift_ms_), "ms",
        n(drift_ms_.size(), "probes"));
  } else {
    drop("storage.clone_ms", "ms", "no probe answered");
    drop("stats.drift_ms", "ms", "no probe answered");
  }
  std::vector<double> ingest_ms;
  for (const IngestRecord& r : ingests_) {
    if (r.ok) ingest_ms.push_back(DueLatency(r.t) * 1e3);
  }
  if (!ingest_ms.empty()) {
    add("ingest_p50_ms", Percentile(ingest_ms, 50), "ms",
        n(ingest_ms.size(), "acknowledged ingests"));
    add("ingest_p99_ms", Percentile(ingest_ms, 99), "ms",
        n(ingest_ms.size(), "acknowledged ingests") + ", " +
            n(SamplesBeyond(ingest_ms.size(), 99), "beyond p99"));
  } else {
    drop("ingest_p50_ms", "ms", "workload does not ingest");
    drop("ingest_p99_ms", "ms", "workload does not ingest");
  }
  if (!lags.empty()) {
    add("refresh_lag_s", Median(lags), "s", gens);
  } else {
    drop("refresh_lag_s", "s",
         live ? "no refreshed generation was observed"
              : "workload does not ingest, nothing refreshes");
  }
  double root_total = 0.0;
  double root_self = 0.0;
  std::map<uint64_t, std::vector<Span>> children;
  for (const Span& s : spans_) {
    if (s.parent != 0) children[s.parent].push_back(s);
  }
  for (const Span& s : spans_) {
    if (s.name != "loadgen.request") continue;
    root_total += s.end - s.start;
    root_self += SelfTime(s, children[s.id]);
  }
  add("trace.unattributed_share", root_total > 0 ? root_self / root_total : 0.0,
      "ratio", n(latency_traced.size(), "traced requests"));
  const double untraced_p50 = Percentile(latency_untraced, 50);
  add("trace.overhead_ratio",
      untraced_p50 > 0 ? Percentile(latency_traced, 50) / untraced_p50 : 0.0,
      "ratio",
      n(latency_traced.size(), "traced") + " / " +
          n(latency_untraced.size(), "untraced requests"));
  return m;
}

int Run::Main(const std::string& server_bin, const std::string& run_dir) {
  g_epoch = NowSeconds();
  if (!Prepare()) return 1;

  // Set-up, timed several times; the last server stays up for the run.
  std::vector<double> setups;
  for (int k = 0; k < kSetupRepeats; ++k) {
    if (server_ != nullptr) {
      Json ignored;
      server_->Quit(&ignored);
    }
    server_ = std::make_unique<ServerProcess>();
    double s = 0.0;
    if (!server_->Launch(server_bin, w_, run_dir, &s)) return 1;
    setups.push_back(s);
  }
  const double setup_s = Median(setups);

  const double run_start = NowSeconds();
  const double run_end = run_start + seconds_ + 0.2;

  // Background streams of an ingesting workload run across both phases.
  std::vector<std::thread> background;
  if (Ingests(w_)) {
    PreIngestRound();
    // Seeded Poisson with a fixed count per cycle, as for the queries: the
    // removed apartments then run out in the same cycle for every seed, and
    // the per-cycle medians do not straddle that change by chance.
    std::mt19937_64 ingest_rng(rng_());
    std::vector<double> dues;
    const double cycle = seconds_ / kCycles;
    for (int c = 0; c < kCycles; ++c) {
      for (double t : PoissonDues(ingest_rng, kIngestRate, cycle)) {
        dues.push_back(c * cycle + t);
      }
    }
    {
      // A poll before any ingest fixes every path's pre-ingest generation.
      HttpClient client("127.0.0.1", server_->port(), kRequestTimeoutMs);
      HttpResult h = client.Send("GET", "/v1/models", "");
      Poll poll;
      poll.time = Rel(NowSeconds());
      poll.ok = h.ok && h.status == 200 && ParsePoll(h.body, &poll);
      polls_.push_back(std::move(poll));
    }
    background.emplace_back(&Run::IngestWorker, this, std::move(dues),
                            run_start);
    background.emplace_back(&Run::PollWorker, this, run_end);
  }

  // A traced run is one windowed open-loop phase (see kTraceWindowS).
  if (trace_) {
    RunOpenLoop(seconds_, true, 0);
  } else {
    const double cycle = seconds_ / kCycles;
    for (int c = 0; c < kCycles; ++c) {
      RunOpenLoop(cycle * kOpenShare, false, c);
      RunSaturation(cycle * (1 - kOpenShare), c);
    }
  }
  stop_background_ = true;
  for (auto& t : background) t.join();

  // End of the measured phases: read the server's own numbers.
  Json stats;
  if (!server_->Command("STATS", &stats)) {
    std::fprintf(stderr, "server STATS failed\n");
    return 1;
  }
  std::string metrics_text;
  {
    HttpClient client("127.0.0.1", server_->port(), kRequestTimeoutMs);
    HttpResult h = client.Send("GET", "/metrics", "");
    if (h.ok && h.status == 200) metrics_text = h.body;
  }
  double save_ms = 0.0;
  if (trace_) {
    Json reply;
    const double sent = Rel(NowSeconds());
    if (server_->Command("SAVE", &reply)) {
      save_ms = reply.Num("save_ms");
      spans_.push_back({"restore.save", sent, sent + save_ms / 1e3,
                        next_span_id_.fetch_add(1), 0, 0});
    }
  }
  Json final_report;
  const bool quit_ok = server_->Quit(&final_report);

  double load_ms = 0.0;
  if (trace_ && save_ms > 0) {
    const double a = NowSeconds();
    auto loaded = restore::Db::Open(
        &data_->incomplete, data_->annotation,
        restore::DbOptions()
            .WithEngine(EngineConfigFor(w_))
            .WithModelDir(run_dir + "/models"));
    if (loaded.ok()) {
      load_ms = (NowSeconds() - a) * 1e3;
      spans_.push_back({"restore.load", Rel(a), Rel(a) + load_ms / 1e3,
                        next_span_id_.fetch_add(1), 0, 0});
    }
  }

  // ---- Correctness and workload self-checks ---------------------------------
  std::vector<std::string> problems;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, uint64_t> failure_kinds;
  for (const QueryRecord& r : queries_) {
    ++attempted;
    if (!r.correct) {
      ++failed;
      ++failure_kinds[r.error.empty() ? "transport" : r.error];
    }
  }
  for (const IngestRecord& r : ingests_) {
    ++attempted;
    if (!r.ok) {
      ++failed;
      ++failure_kinds["ingest: " + r.error];
    }
  }
  for (const Poll& p : polls_) {
    ++attempted;
    if (!p.ok) {
      ++failed;
      ++failure_kinds["models poll failed"];
    }
  }
  if (!quit_ok) problems.push_back("server did not report its final state");
  if (stats.Num("save_failures") > 0) problems.push_back("checkpoint saves failed");

  const QueryStats open = Summarize(queries_, Phase::kUntraced, mix_);
  const QueryStats traced = Summarize(queries_, Phase::kTraced, mix_);
  const QueryStats sat = Summarize(queries_, Phase::kSaturation, mix_);
  if (open.shed + traced.shed > 0) {
    problems.push_back("open-loop requests shed with 503");
  }
  const std::vector<double>& late = trace_ ? traced.late_ms : open.late_ms;
  const double late_p99 = Percentile(late, 99);
  std::fprintf(stderr, "generator lateness ms: p50 %.3f p90 %.3f p99 %.3f max %.3f\n",
               Percentile(late, 50), Percentile(late, 90), late_p99,
               Percentile(late, 100));
  if (late_p99 > kLateP99LimitMs) {
    problems.push_back("generator late p99 " + Fmt("%.2f", late_p99) +
                       " ms over its " + Fmt("%.0f", kLateP99LimitMs) +
                       " ms limit");
  }
  std::fprintf(stderr,
               "open-loop answers %zu, pooled p50 %.3f p90 %.3f p99 %.3f ms\n",
               open.latency_ms.size(), Percentile(open.latency_ms, 50),
               Percentile(open.latency_ms, 90), Percentile(open.latency_ms, 99));
  const uint64_t hits = open.completed_hits + traced.completed_hits +
                        sat.completed_hits;
  const uint64_t misses = open.completed_misses + traced.completed_misses +
                          sat.completed_misses;
  if (CacheBounded(w_) && hits != 0) {
    problems.push_back(std::string(WorkloadName(w_)) + " served " +
                       std::to_string(hits) +
                       " completed answers from the cache");
  }
  if (w_ == Workload::kCompleteHit && misses != 0) {
    problems.push_back("complete_hit missed the cache " +
                       std::to_string(misses) + " times");
  }
  if (Ingests(w_)) {
    const double refreshed =
        ScrapeCounter(metrics_text, "restore_models_refreshed_total");
    const double refresh_failures =
        ScrapeCounter(metrics_text, "restore_refresh_failures_total");
    if (refresh_failures != 0) problems.push_back("refresh failures");
    if (refreshed < kMinRefreshes) {
      problems.push_back("only " + Fmt("%.0f", refreshed) +
                         " path refreshes (need " +
                         std::to_string(kMinRefreshes) + ")");
    }
    const uint64_t acked_rows = acks_.empty() ? 0 : acks_.back().rows_total;
    if (final_report.Num("apartment_rows") !=
            static_cast<double>(initial_rows_ + acked_rows) ||
        final_report["apartment_id_sum"].text !=
            std::to_string(initial_id_sum_ + acked_id_sum_)) {
      ++failed;
      ++failure_kinds["acknowledged rows missing from the final snapshot"];
    }
    std::map<std::string, uint64_t> last_gen;
    for (const Poll& p : polls_) {
      for (const auto& [path, obs] : p.models) {
        if (obs.generation < last_gen[path]) {
          ++failed;
          ++failure_kinds["generation went backwards on " + path];
        }
        last_gen[path] = std::max(last_gen[path], obs.generation);
      }
    }
  }
  for (const auto& [kind, n] : failure_kinds) {
    std::fprintf(stderr, "FAILED x%llu: %s\n",
                 static_cast<unsigned long long>(n), kind.c_str());
  }
  for (const std::string& p : problems) {
    std::fprintf(stderr, "INVALID: %s\n", p.c_str());
  }
  const bool correct = failed == 0 && problems.empty();

  std::vector<Metric> metrics;
  if (trace_) {
    TimeHttpParse();
    metrics = PerLayer(stats, metrics_text, load_ms, save_ms, attempted, failed);
    WriteSpans(run_dir + "/spans.json");
    std::printf("per-layer report: %s, seed %llu, traced windows of %.0f s "
                "alternating with untraced ones over %.0f s\n",
                WorkloadName(w_), static_cast<unsigned long long>(seed_),
                kTraceWindowS, seconds_);
    for (const Metric& m : metrics) {
      if (m.dropped) {
        std::printf("  %-28s dropped: %s\n", m.name.c_str(), m.base.c_str());
      } else {
        std::printf("  %-28s %14.6g %-6s base: %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.base.c_str());
      }
    }
    std::printf("  spans written to %s/spans.json\n", run_dir.c_str());
  } else {
    metrics = EndToEnd(setup_s, stats);
    std::string list;
    for (double v : setups) list += (list.empty() ? "" : " ") + Fmt("%.3f", v);
    std::printf("%s seed %llu: set-ups %s s, pool width %s\n",
                WorkloadName(w_), static_cast<unsigned long long>(seed_),
                list.c_str(), server_->ready()["pool_width"].text.c_str());
    for (const Metric& m : metrics) {
      std::printf("  %-18s %12.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  std::string out = "{\"correct\":" + std::string(correct ? "true" : "false") +
                    ",\"attempted\":" + std::to_string(attempted) +
                    ",\"failed\":" + std::to_string(failed) +
                    ",\"metrics\":{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + metrics[i].name + "\":{\"value\":" +
           JsonNum(metrics[i].value) + ",\"unit\":\"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  auto w = ParseWorkload(Arg(argc, argv, "--workload"));
  const std::string server_bin = Arg(argc, argv, "--server");
  const std::string run_dir = Arg(argc, argv, "--run-dir");
  const double seconds = std::atof(Arg(argc, argv, "--seconds", "10").c_str());
  const uint64_t seed =
      std::strtoull(Arg(argc, argv, "--seed", "1").c_str(), nullptr, 10);
  const bool trace = Arg(argc, argv, "--trace", "0") == "1";
  if (!w.ok() || server_bin.empty() || run_dir.empty() || seconds <= 0) {
    std::fprintf(stderr,
                 "usage: perfbench_loadgen --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> --server <bin> --run-dir <dir>\n");
    return 2;
  }
  // Die with the parent (and take the server along, which dies with us).
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() == 1) return 1;
  ::mkdir(run_dir.c_str(), 0755);
  ::signal(SIGPIPE, SIG_IGN);
  Run run(*w, seed, seconds, trace);
  return run.Main(server_bin, run_dir);
}
