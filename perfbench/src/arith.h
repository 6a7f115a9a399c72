#ifndef PERFBENCH_ARITH_H_
#define PERFBENCH_ARITH_H_

// The benchmark's own arithmetic, kept free of I/O so perfbench_selftest
// can check every rule the reported numbers depend on.

#include <cstdint>
#include <string>
#include <vector>

#include "json.h"

namespace perfbench {

// ---- Percentiles -------------------------------------------------------------

/// Nearest-rank percentile: the smallest sample with at least p% of the
/// samples at or below it, i.e. sorted[ceil(p/100 * n) - 1]. 0 when empty.
double Percentile(std::vector<double> samples, double p);

/// How many samples lie strictly beyond the nearest-rank p-th percentile
/// position: n - ceil(p/100 * n). p99 of 1,000 samples has 10 beyond it.
size_t SamplesBeyond(size_t n, double p);

double Median(std::vector<double> samples);
double Mean(const std::vector<double>& samples);

// ---- Open-loop timing ----------------------------------------------------------

/// One open-loop operation on the generator's clock (seconds since the run
/// epoch). `due` is when the schedule wanted it sent, `taken` when a free
/// connection picked it up, `sent` when its first byte went out and `done`
/// when its last response byte arrived.
struct OpTiming {
  double due = 0.0;
  double taken = 0.0;
  double sent = 0.0;
  double done = 0.0;
};

/// User-visible latency, measured from the due time (so time spent waiting
/// for a free connection counts — no coordinated omission).
double DueLatency(const OpTiming& t);
/// The generator's own lateness: send time past the later of the due time
/// and the moment a connection was free. Queueing behind busy connections
/// is the system's latency, not generator lateness.
double GeneratorLateness(const OpTiming& t);

// ---- Answer quality -------------------------------------------------------------

/// One answer: rendered group key -> aggregate values.
struct Answer {
  std::vector<std::string> keys;          // one rendered key per row
  std::vector<std::vector<double>> rows;  // values per row
};

/// Relative error of one value: |served - truth| / |truth|; when the truth
/// is 0 it is 0 for a served 0 and 1 otherwise.
double RelativeError(double served, double truth);

/// Mean relative error over the union of groups of `served` and `truth`
/// (first value column). A group missing from `served` counts as served 0
/// (error 1); a group only in `served` counts against a truth of 0.
double AnswerRelativeError(const Answer& served, const Answer& truth);

/// True when both answers hold the same keys and the same values, bit for
/// bit (NaN equals NaN).
bool BitIdentical(const Answer& a, const Answer& b);

// ---- Query responses ---------------------------------------------------------

/// The ExecStats tail every /v1/query response ends with.
struct ExecTail {
  double parse_s = 0.0;
  double plan_s = 0.0;
  double selection_s = 0.0;
  double sample_s = 0.0;
  double aggregate_s = 0.0;
  uint64_t tuples_completed = 0;
  uint64_t cache_hits = 0;
  uint64_t cache_misses = 0;
  double EngineSeconds() const {
    return parse_s + plan_s + selection_s + sample_s + aggregate_s;
  }
};

/// Parses a /v1/query 200 body into its rows and stats tail. False with
/// `*error` when the body is not the documented shape.
bool ParseQueryBody(const std::string& body, Answer* answer, ExecTail* tail,
                    std::string* error);

// ---- Spans ------------------------------------------------------------------------

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t request = 0;
};

/// A span's duration minus the part of it its children cover; overlapping
/// children are merged first and clipped to the parent interval.
double SelfTime(const Span& parent, const std::vector<Span>& children);

// ---- Refresh lag -----------------------------------------------------------------

/// One acknowledged ingest: when the ack arrived and how many rows the
/// stream had acknowledged in total once it was applied.
struct IngestAck {
  double ack_time = 0.0;
  uint64_t rows_total = 0;
};

/// Refresh lag of one new generation. `prev_trained` / `trained` are the
/// trained_rows of the previous and the new generation, `base_trained` the
/// trained_rows of the generation that predates every ingest, and `seen` the
/// first poll time that showed the new generation. The lag starts at the ack
/// of the first ingest included in `trained` but not in `prev_trained`.
/// Negative when no acknowledged ingest explains the new generation.
double RefreshLag(const std::vector<IngestAck>& acks, uint64_t base_trained,
                  uint64_t prev_trained, uint64_t trained, double seen);

}  // namespace perfbench

#endif  // PERFBENCH_ARITH_H_
