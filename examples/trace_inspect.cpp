// Trace tooling walkthrough: the full workload pipeline the paper describes.
//
// Default mode demonstrates the round trip on synthetic data:
//   synthetic trace -> Common Log Format lines -> CLF parser ->
//   P-HTTP session reconstruction (60 s / 1 s heuristics) -> statistics
//
// With --log you can feed a real access log (CLF) and get the same analysis
// the paper ran on the Rice traces:
//   ./build/examples/trace_inspect --log /var/log/apache2/access.log
#include <cstdio>
#include <fstream>
#include <sstream>

#include <unistd.h>

#include "src/trace/clf.h"
#include "src/trace/session_builder.h"
#include "src/trace/synthetic.h"
#include "src/trace/trace_stats.h"
#include "src/util/flags.h"
#include "src/util/table.h"

namespace {

void PrintStats(const lard::Trace& trace, const char* title) {
  const lard::TraceStats stats = lard::ComputeTraceStats(trace);
  std::printf("\n== %s ==\n", title);
  std::printf("targets            : %zu\n", stats.num_targets);
  std::printf("footprint          : %.1f MB\n", static_cast<double>(stats.footprint_bytes) / 1e6);
  std::printf("requests           : %zu\n", stats.num_requests);
  std::printf("P-HTTP connections : %zu\n", stats.num_sessions);
  std::printf("mean response size : %.1f KB\n", stats.mean_response_bytes / 1024.0);
  std::printf("mean requests/conn : %.2f\n", stats.mean_requests_per_session);
  std::printf("mean batches/conn  : %.2f\n", stats.mean_batches_per_session);
  lard::Table coverage({"request coverage", "memory needed (MB)", "targets"});
  for (const lard::CoveragePoint& point : stats.coverage) {
    coverage.Row()
        .Cell(lard::FormatDouble(100.0 * point.request_fraction, 0) + "%")
        .Cell(static_cast<double>(point.bytes_needed) / 1e6, 1)
        .Cell(static_cast<int64_t>(point.targets_needed));
  }
  coverage.Print("working-set coverage");
}

}  // namespace

int main(int argc, char** argv) {
  lard::FlagSet flags("trace_inspect");
  std::string log_path;
  int64_t sessions = 5000;
  int64_t gap_s = 60;
  double batch_window_s = 1.0;
  flags.AddString("log", &log_path, "parse this CLF access log instead of synthesizing");
  flags.AddInt("sessions", &sessions, "synthetic sessions (no --log)");
  flags.AddInt("gap-s", &gap_s, "connection idle gap for session reconstruction (s)");
  flags.AddDouble("batch-window-s", &batch_window_s, "pipelining batch window (s)");
  flags.Parse(argc, argv);

  lard::SessionBuilderConfig builder;
  builder.connection_idle_gap_us = gap_s * 1000000;
  builder.batch_window_us = static_cast<int64_t>(batch_window_s * 1e6);

  if (!log_path.empty()) {
    std::ifstream in(log_path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", log_path.c_str());
      return 1;
    }
    size_t skipped = 0;
    const auto records = lard::ParseClfStream(in, &skipped);
    std::printf("parsed %zu CLF records (%zu malformed lines skipped)\n", records.size(),
                skipped);
    const lard::Trace trace = lard::BuildSessions(records, builder);
    PrintStats(trace, "reconstructed P-HTTP workload");
    return 0;
  }

  // Synthetic round trip: generate -> serialize to CLF -> parse -> rebuild.
  lard::SyntheticTraceConfig workload;
  workload.seed = 11;
  workload.num_pages = 500;
  workload.num_sessions = sessions;
  const lard::Trace original = lard::GenerateSyntheticTrace(workload);
  PrintStats(original, "synthetic workload (ground truth sessions)");

  // Flatten to an access log, as a web server would have recorded it.
  std::stringstream log;
  for (const auto& session : original.sessions()) {
    for (const auto& batch : session.batches) {
      for (const lard::TargetId id : batch.targets) {
        lard::ClfRecord record;
        record.client_host = "client" + std::to_string(session.client_id);
        record.timestamp_us = session.start_us + batch.offset_us;
        record.method = "GET";
        record.path = original.catalog().Get(id).path;
        record.status = 200;
        record.response_bytes = original.catalog().Get(id).size_bytes;
        log << lard::FormatClfLine(record) << "\n";
      }
    }
  }

  size_t skipped = 0;
  const auto records = lard::ParseClfStream(log, &skipped);
  std::printf("\nserialized to CLF and re-parsed: %zu records (%zu skipped)\n", records.size(),
              skipped);
  const lard::Trace rebuilt = lard::BuildSessions(records, builder);
  PrintStats(rebuilt, "workload reconstructed by the 60s/1s heuristic");
  std::printf("\nnote: reconstruction merges a client's back-to-back sessions (gaps < %llds), so "
              "connection counts differ from ground truth exactly as the paper's heuristic "
              "would.\n",
              static_cast<long long>(gap_s));
  return 0;
}
