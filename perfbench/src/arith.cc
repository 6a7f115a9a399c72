#include "arith.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>

namespace perfbench {

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::min(std::max<size_t>(rank, 1), n);
  return samples[rank - 1];
}

size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::min(std::max<size_t>(rank, 1), n);
  return n - rank;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double Mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / samples.size();
}

double DueLatency(const OpTiming& t) { return t.done - t.due; }

double GeneratorLateness(const OpTiming& t) {
  return t.sent - std::max(t.due, t.taken);
}

double RelativeError(double served, double truth) {
  if (truth == 0.0) return served == 0.0 ? 0.0 : 1.0;
  return std::fabs(served - truth) / std::fabs(truth);
}

double AnswerRelativeError(const Answer& served, const Answer& truth) {
  std::map<std::string, std::pair<double, double>> groups;  // served, truth
  for (size_t r = 0; r < truth.keys.size(); ++r) {
    groups[truth.keys[r]] = {0.0, truth.rows[r].empty() ? 0.0 : truth.rows[r][0]};
  }
  for (size_t r = 0; r < served.keys.size(); ++r) {
    groups[served.keys[r]].first =
        served.rows[r].empty() ? 0.0 : served.rows[r][0];
  }
  if (groups.empty()) return 0.0;
  double sum = 0.0;
  for (const auto& [key, v] : groups) sum += RelativeError(v.first, v.second);
  return sum / groups.size();
}

bool BitIdentical(const Answer& a, const Answer& b) {
  if (a.keys != b.keys || a.rows.size() != b.rows.size()) return false;
  for (size_t r = 0; r < a.rows.size(); ++r) {
    if (a.rows[r].size() != b.rows[r].size()) return false;
    for (size_t c = 0; c < a.rows[r].size(); ++c) {
      const double x = a.rows[r][c];
      const double y = b.rows[r][c];
      if (std::isnan(x) && std::isnan(y)) continue;
      if (std::memcmp(&x, &y, sizeof(double)) != 0) return false;
    }
  }
  return true;
}

bool ParseQueryBody(const std::string& body, Answer* answer, ExecTail* tail,
                    std::string* error) {
  Json doc;
  if (!ParseJson(body, &doc, error)) return false;
  const size_t num_keys = doc["key_columns"].array.size();
  const Json& rows = doc["rows"];
  if (doc.kind != Json::Kind::kObject || rows.kind != Json::Kind::kArray ||
      doc["stats"].kind != Json::Kind::kObject) {
    *error = "not a query result document";
    return false;
  }
  if (doc.Num("row_count", -1) != static_cast<double>(rows.array.size())) {
    *error = "row_count disagrees with the rows sent";
    return false;
  }
  *answer = Answer();
  for (const Json& row : rows.array) {
    if (row.kind != Json::Kind::kArray || row.array.size() < num_keys) {
      *error = "malformed row";
      return false;
    }
    std::string key;
    std::vector<double> values;
    for (size_t c = 0; c < row.array.size(); ++c) {
      const Json& cell = row.array[c];
      if (c < num_keys) {
        if (c > 0) key += '\x1f';
        key += cell.text;
      } else {
        values.push_back(cell.kind == Json::Kind::kNumber ? cell.number
                                                          : std::nan(""));
      }
    }
    answer->keys.push_back(std::move(key));
    answer->rows.push_back(std::move(values));
  }
  const Json& s = doc["stats"];
  tail->parse_s = s.Num("parse_seconds");
  tail->plan_s = s.Num("plan_seconds");
  tail->selection_s = s.Num("selection_seconds");
  tail->sample_s = s.Num("sample_seconds");
  tail->aggregate_s = s.Num("aggregate_seconds");
  tail->tuples_completed = static_cast<uint64_t>(s.Num("tuples_completed"));
  tail->cache_hits = static_cast<uint64_t>(s.Num("cache_hits"));
  tail->cache_misses = static_cast<uint64_t>(s.Num("cache_misses"));
  return true;
}

double SelfTime(const Span& parent, const std::vector<Span>& children) {
  std::vector<std::pair<double, double>> cover;
  for (const Span& c : children) {
    const double a = std::max(c.start, parent.start);
    const double b = std::min(c.end, parent.end);
    if (b > a) cover.emplace_back(a, b);
  }
  std::sort(cover.begin(), cover.end());
  double covered = 0.0;
  double cur_a = 0.0;
  double cur_b = 0.0;
  bool open = false;
  for (const auto& [a, b] : cover) {
    if (open && a <= cur_b) {
      cur_b = std::max(cur_b, b);
      continue;
    }
    if (open) covered += cur_b - cur_a;
    cur_a = a;
    cur_b = b;
    open = true;
  }
  if (open) covered += cur_b - cur_a;
  return (parent.end - parent.start) - covered;
}

double RefreshLag(const std::vector<IngestAck>& acks, uint64_t base_trained,
                  uint64_t prev_trained, uint64_t trained, double seen) {
  if (trained <= prev_trained || prev_trained < base_trained) return -1.0;
  const uint64_t prev_included = prev_trained - base_trained;
  const uint64_t included = trained - base_trained;
  for (const IngestAck& ack : acks) {
    if (ack.rows_total <= prev_included) continue;
    if (ack.rows_total > included) return -1.0;
    return seen - ack.ack_time;
  }
  return -1.0;
}

}  // namespace perfbench
