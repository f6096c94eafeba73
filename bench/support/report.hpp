// Machine-readable bench output: every figure/table bench assembles a
// BenchReport alongside its printed tables and writes it as
// BENCH_<name>.json — scale, tables (title/headers/rows), per-profile
// measurements (per-kernel seconds, op-category counts, overlap), and an
// optional metrics-registry summary (per-kernel p50/p95/max latency).
//
// Destination: $GOTHIC_BENCH_JSON_DIR/BENCH_<name>.json, or the working
// directory when the variable is unset. The schema is documented in
// EXPERIMENTS.md; tools/check.sh validates one emitted file per run.
#pragma once

#include "support/experiment.hpp"
#include "trace/metrics.hpp"
#include "util/table.hpp"

#include <iosfwd>
#include <string>

namespace gothic::bench {

class BenchReport {
public:
  /// `name` becomes the file stem: BENCH_<name>.json.
  explicit BenchReport(std::string name);

  void set_scale(const BenchScale& scale);
  /// Scale with the scenario matrix fingerprint: appends "scenario" (the
  /// registry entry name) and "force" (force_law_name) keys, so a reader
  /// comparing reports can tell the workloads apart.
  void set_scale(const BenchScale& scale, const std::string& scenario,
                 const std::string& force);
  /// Serialise a printed table verbatim (title, headers, string rows).
  void add_table(const Table& t);
  /// One measured configuration: per-kernel op-category counts plus the
  /// host-side kernel/wall/overlap seconds of the profiled steps.
  void add_profile(const std::string& label, const StepProfile& p);
  /// Per-kernel launch/latency summary from an attached metrics registry.
  void add_metrics(const trace::MetricsRegistry& m);
  void add_note(const std::string& note);

  /// The assembled JSON document.
  [[nodiscard]] std::string json() const;
  /// Destination path: $GOTHIC_BENCH_JSON_DIR (or cwd) / BENCH_<name>.json.
  [[nodiscard]] std::string path() const;
  /// Write json() to path(); logs the destination (or the failure) to
  /// `log`. Returns false on I/O failure.
  bool write(std::ostream& log) const;

private:
  std::string name_;
  std::string scale_json_;
  std::string tables_json_;   ///< comma-joined array elements
  std::string profiles_json_; ///< comma-joined array elements
  std::string metrics_json_;
  std::string notes_json_; ///< comma-joined array elements
};

} // namespace gothic::bench
