// One flat JSON object of named results, printed as the last line of a
// perfbench subcommand for run.py to read.
#ifndef PERFBENCH_REPORT_H_
#define PERFBENCH_REPORT_H_

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "serve/net.h"

namespace perfbench {

/// The `p`-quantile (0..1) of `v` by linear interpolation; 0 when empty.
inline double Quantile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

class Report {
 public:
  void Value(const std::string& name, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Add(name, buf);
  }
  void Count(const std::string& name, size_t v) {
    Add(name, std::to_string(v));
  }
  /// A named metric in the benchmark's result shape.
  void Metric(const std::string& name, double v, const std::string& unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Add(name, std::string("{\"value\":") + buf + ",\"unit\":\"" + unit + "\"}");
  }
  void Flag(const std::string& name, bool v) { Add(name, v ? "true" : "false"); }
  void Text(const std::string& name, const std::string& v) {
    std::string json = "\"";
    json += ctxrank::serve::net::JsonEscape(v);
    json += '"';
    Add(name, json);
  }
  /// NAME_n plus the median, p95 and p99 of `us` as NAME_p50_us, ...
  void Latencies(const std::string& name, const std::vector<double>& us) {
    Count(name + "_n", us.size());
    if (us.empty()) return;
    Value(name + "_p50_us", Quantile(us, 0.50));
    Value(name + "_p95_us", Quantile(us, 0.95));
    Value(name + "_p99_us", Quantile(us, 0.99));
  }
  void Print() const {
    std::printf("{%s}\n", body_.c_str());
    std::fflush(stdout);
  }

 private:
  void Add(const std::string& name, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_ += "\"" + name + "\":" + json;
  }
  std::string body_;
};

}  // namespace perfbench

#endif  // PERFBENCH_REPORT_H_
