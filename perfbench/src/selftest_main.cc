// Self-tests of the benchmark's own arithmetic and parsing. perfbench/run.py
// runs them before every benchmark run; a failure stops the run.
//
//   perfbench_selftest   (exit 0 when every check holds)

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "arith.h"
#include "http_client.h"
#include "json.h"

using namespace perfbench;

namespace {

int g_failures = 0;

#define CHECK(cond)                                                   \
  do {                                                                \
    if (!(cond)) {                                                    \
      std::fprintf(stderr, "%s:%d: check failed: %s\n", __FILE__,     \
                   __LINE__, #cond);                                  \
      ++g_failures;                                                   \
    }                                                                 \
  } while (0)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-12; }

void TestPercentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  CHECK(Percentile(v, 50) == 50);
  CHECK(Percentile(v, 99) == 99);
  CHECK(Percentile(v, 100) == 100);
  CHECK(Percentile(v, 0) == 1);
  CHECK(Percentile({}, 99) == 0);
  CHECK(Percentile({7}, 99) == 7);
  // p99 of 1,000 answers leaves exactly 10 beyond it; of 600, 6.
  CHECK(SamplesBeyond(1000, 99) == 10);
  CHECK(SamplesBeyond(600, 99) == 6);
  CHECK(SamplesBeyond(1008, 99) == 10);
  CHECK(SamplesBeyond(0, 99) == 0);
  std::vector<double> w;
  for (int i = 1; i <= 1000; ++i) w.push_back(i);
  const double p99 = Percentile(w, 99);
  size_t beyond = 0;
  for (double x : w) beyond += x > p99 ? 1 : 0;
  CHECK(beyond == SamplesBeyond(w.size(), 99));
  CHECK(Median({3, 1, 2}) == 2);
  CHECK(Median({4, 1, 2, 3}) == 2.5);
  CHECK(Mean({1, 2, 3, 6}) == 3);
}

void TestDueLatency() {
  // Due at 1.0, a connection frees up at 1.2, the request goes out at 1.3
  // and its last byte arrives at 1.5: the user waited 0.5 s, of which the
  // generator itself was late by 0.1 s.
  OpTiming t{1.0, 1.2, 1.3, 1.5};
  CHECK(Near(DueLatency(t), 0.5));
  CHECK(Near(GeneratorLateness(t), 0.1));
  // Picked up early, sent 2 ms after its due time.
  OpTiming early{2.0, 1.5, 2.002, 2.010};
  CHECK(Near(DueLatency(early), 0.010));
  CHECK(Near(GeneratorLateness(early), 0.002));
}

void TestRelativeError() {
  CHECK(RelativeError(0.0, 0.0) == 0.0);
  CHECK(RelativeError(5.0, 0.0) == 1.0);
  CHECK(Near(RelativeError(11.0, 10.0), 0.1));
  CHECK(Near(RelativeError(-9.0, -10.0), 0.1));
  Answer truth{{"a", "b"}, {{10.0}, {20.0}}};
  // Group b missing from the served answer counts as served 0: error 1.
  Answer served{{"a"}, {{11.0}}};
  CHECK(Near(AnswerRelativeError(served, truth), (0.1 + 1.0) / 2));
  // A served group the truth lacks counts against a truth of 0: error 1.
  Answer extra{{"a", "b", "c"}, {{10.0}, {20.0}, {3.0}}};
  CHECK(Near(AnswerRelativeError(extra, truth), 1.0 / 3));
  CHECK(AnswerRelativeError(truth, truth) == 0.0);
  Answer nan_row{{""}, {{std::nan("")}}};
  CHECK(BitIdentical(nan_row, nan_row));
  CHECK(!BitIdentical(Answer{{""}, {{0.0}}}, Answer{{""}, {{-0.0}}}));
  CHECK(!BitIdentical(truth, served));
}

void TestSelfTime() {
  Span parent{"p", 0.0, 10.0, 1, 0, 1};
  // [1,4] and [3,6] overlap (5 s covered); [8,12] is clipped to [8,10].
  std::vector<Span> children = {{"a", 1.0, 4.0, 2, 1, 1},
                                {"b", 3.0, 6.0, 3, 1, 1},
                                {"c", 8.0, 12.0, 4, 1, 1}};
  CHECK(Near(SelfTime(parent, children), 3.0));
  CHECK(Near(SelfTime(parent, {}), 10.0));
  // A child nested inside another covers nothing extra.
  CHECK(Near(SelfTime(parent, {{"x", 0.0, 10.0, 5, 1, 1},
                               {"y", 2.0, 3.0, 6, 1, 1}}),
             0.0));
}

void TestRefreshLag() {
  // Three acknowledged batches of 50 rows at t = 1, 2, 3.
  const std::vector<IngestAck> acks = {{1.0, 50}, {2.0, 100}, {3.0, 150}};
  // Generation 1 trained on 1000 rows, generation 2 on 1050 (batch 1),
  // generation 3 on 1150 (batches 2 and 3), seen at t = 5: its lag starts
  // at batch 2, the first one generation 2 did not include.
  CHECK(Near(RefreshLag(acks, 1000, 1000, 1050, 4.0), 3.0));
  CHECK(Near(RefreshLag(acks, 1000, 1050, 1150, 5.0), 3.0));
  // No new rows: nothing to attribute.
  CHECK(RefreshLag(acks, 1000, 1050, 1050, 5.0) < 0);
  // More rows than were ever acknowledged between the generations.
  CHECK(RefreshLag(acks, 1000, 1150, 1200, 6.0) < 0);
}

void TestHttpParsing() {
  const std::string chunked =
      "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
      "Transfer-Encoding: chunked\r\n\r\n"
      "5\r\nhello\r\n6\r\n world\r\na\r\n0123456789\r\n0\r\n\r\n";
  ResponseParser byte_by_byte;
  bool done = false;
  for (size_t i = 0; i < chunked.size(); ++i) {
    done = byte_by_byte.Feed(&chunked[i], 1);
    CHECK(done == (i + 1 == chunked.size()));
  }
  CHECK(done && byte_by_byte.status == 200);
  CHECK(byte_by_byte.body == "hello world0123456789");
  CHECK(byte_by_byte.wire_bytes == chunked.size());

  const std::string sized =
      "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 4\r\n\r\nbusy";
  ResponseParser whole;
  CHECK(whole.Feed(sized.data(), sized.size()));
  CHECK(whole.status == 503 && whole.body == "busy");

  ResponseParser garbage;
  const std::string bad = "SMTP ready\r\n\r\n";
  CHECK(!garbage.Feed(bad.data(), bad.size()));
  CHECK(garbage.failed());
}

void TestStatsTail() {
  const std::string body =
      "{\"tenant\":\"h1\",\"key_columns\":[\"room_type\"],"
      "\"value_columns\":[\"AVG(price)\"],\"rows\":["
      "[\"entire_home\",123.45600000000000307],[\"shared\\\"room\",null]"
      "],\"row_count\":2,\"stats\":{\"parse_seconds\":1.5e-05,"
      "\"plan_seconds\":2.0000000000000002e-06,\"selection_seconds\":0,"
      "\"sample_seconds\":0.035000000000000003,"
      "\"aggregate_seconds\":0.00050000000000000001,"
      "\"tuples_completed\":6623,\"models_consulted\":1,\"cache_hits\":0,"
      "\"cache_misses\":1}}";
  Answer a;
  ExecTail t;
  std::string error;
  CHECK(ParseQueryBody(body, &a, &t, &error));
  CHECK(a.keys.size() == 2 && a.keys[0] == "entire_home");
  CHECK(a.keys[1] == "shared\"room");
  CHECK(a.rows[0][0] == 123.456);  // %.17g text parses back exactly
  CHECK(std::isnan(a.rows[1][0]));
  CHECK(t.parse_s == 1.5e-05 && t.sample_s == 0.035);
  CHECK(t.tuples_completed == 6623 && t.cache_misses == 1 &&
        t.cache_hits == 0);
  CHECK(Near(t.EngineSeconds(), 1.5e-05 + 2e-06 + 0.035 + 0.0005));
  // A row count that disagrees with the rows is rejected.
  std::string bad = body;
  bad.replace(bad.find("\"row_count\":2"), 13, "\"row_count\":3");
  CHECK(!ParseQueryBody(bad, &a, &t, &error));
  CHECK(!ParseQueryBody("{\"rows\":[", &a, &t, &error));
  // JsonNum round-trips every double exactly.
  for (double v : {0.1, 1.0 / 3, 6.02214076e23, -2.5e-300}) {
    Json j;
    CHECK(ParseJson(JsonNum(v), &j, &error) && j.number == v);
  }
}

}  // namespace

int main() {
  TestPercentiles();
  TestDueLatency();
  TestRelativeError();
  TestSelfTime();
  TestRefreshLag();
  TestHttpParsing();
  TestStatsTail();
  if (g_failures > 0) {
    std::fprintf(stderr, "perfbench_selftest: %d checks failed\n", g_failures);
    return 1;
  }
  std::fprintf(stderr, "perfbench_selftest: all checks passed\n");
  return 0;
}
