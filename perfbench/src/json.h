#ifndef PERFBENCH_JSON_H_
#define PERFBENCH_JSON_H_

// A small JSON reader for the service's responses (query results with their
// ExecStats tail, /v1/models, ingest acknowledgements) and for the control
// lines of the serving process. Numbers keep their source text, so a value
// rendered with %.17g parses back to the exact double the server held.

#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Json {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string text;  // string value, or the raw token of a number
  std::vector<Json> array;
  std::map<std::string, Json> object;

  /// Member `key` of an object; a null value when absent.
  const Json& operator[](const std::string& key) const;
  double Num(const std::string& key, double fallback = 0.0) const;
};

/// Parses one complete document. False (with `*error`) on malformed input.
bool ParseJson(const std::string& text, Json* out, std::string* error);

/// Renders `v` so that it parses back to the same double (%.17g); "null"
/// for NaN and infinities.
std::string JsonNum(double v);

}  // namespace perfbench

#endif  // PERFBENCH_JSON_H_
