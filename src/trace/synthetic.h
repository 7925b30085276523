// Synthetic Rice-like workload generator.
//
// The paper drives its simulator and prototype with logs from Rice University
// departmental web servers (proprietary, unavailable). This generator is the
// documented substitution (DESIGN.md §2): it synthesizes a static-content
// workload whose aggregate properties match what the paper reports and what
// the cited characterization literature (Arlitt & Williamson; Mogul) says the
// evaluation depends on:
//
//   * Zipf-like document popularity, so a small memory footprint covers most
//     requests but the full working set greatly exceeds a single node cache.
//   * Heavy-tailed sizes (lognormal body, Pareto tail), small mean (~<=13 KB).
//   * Page structure: an HTML document plus its embedded objects, fetched as
//     a burst -> realistic P-HTTP sessions with pipelined batches.
//
// Generation is fully deterministic given the config (seeded Rng).
#ifndef SRC_TRACE_SYNTHETIC_H_
#define SRC_TRACE_SYNTHETIC_H_

#include <cstdint>

#include "src/trace/trace.h"

namespace lard {

struct SyntheticTraceConfig {
  uint64_t seed = 42;

  // Corpus shape. Defaults give ~40k targets / ~1 GB footprint, matching the
  // scale the paper's (garbled) trace-characterization sentence implies.
  int64_t num_pages = 6000;
  double embedded_per_page_mean = 5.5;  // geometric; >=1 html + k objects

  // Popularity across pages.
  double zipf_alpha = 0.9;

  // Sizes. HTML: lognormal. Embedded objects: lognormal body with a Pareto
  // tail mixed in with `tail_probability`.
  double html_lognorm_mu = 8.7;     // e^8.7 ~ 6 KB median
  double html_lognorm_sigma = 0.8;
  double object_lognorm_mu = 8.2;   // ~3.6 KB median
  double object_lognorm_sigma = 1.0;
  double tail_probability = 0.01;
  double tail_pareto_scale = 64.0 * 1024;
  double tail_pareto_alpha = 1.2;
  uint64_t min_size_bytes = 128;
  uint64_t max_size_bytes = 8ull * 1024 * 1024;

  // Session shape.
  int64_t num_sessions = 30000;
  int64_t num_clients = 256;
  double pages_per_session_mean = 2.0;   // geometric, >= 1
  double think_time_mean_s = 4.0;        // between page batches in a session
  double session_interarrival_mean_s = 0.05;

  // When true, the HTML and its embedded objects form two batches (HTML
  // first, objects pipelined after it arrives) exactly as the paper assumes
  // ("additional requests ... normally do not arrive until after the response
  // to the first request is delivered").
  bool pipeline_embedded_objects = true;
};

// Builds the workload. Target paths look like "/page1234/obj7.dat".
Trace GenerateSyntheticTrace(const SyntheticTraceConfig& config);

}  // namespace lard

#endif  // SRC_TRACE_SYNTHETIC_H_
