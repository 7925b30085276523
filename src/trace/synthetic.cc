#include "src/trace/synthetic.h"

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "src/util/rng.h"

namespace lard {
namespace {

// A generated page: its HTML target plus the embedded-object targets that are
// fetched together with it. The per-page object lists are fixed across the
// whole trace so repeated visits to a page touch the same working set — this
// is what gives LARD a stable partitioning to exploit.
struct Page {
  TargetId html;
  std::vector<TargetId> objects;
};

uint64_t ClampSize(double raw, const SyntheticTraceConfig& config) {
  const double clamped =
      std::min(std::max(raw, static_cast<double>(config.min_size_bytes)),
               static_cast<double>(config.max_size_bytes));
  return static_cast<uint64_t>(clamped);
}

uint64_t SampleObjectSize(Rng& rng, const SyntheticTraceConfig& config) {
  double raw = 0.0;
  if (rng.NextBool(config.tail_probability)) {
    raw = rng.NextPareto(config.tail_pareto_scale, config.tail_pareto_alpha);
  } else {
    raw = rng.NextLogNormal(config.object_lognorm_mu, config.object_lognorm_sigma);
  }
  return ClampSize(raw, config);
}

}  // namespace

Trace GenerateSyntheticTrace(const SyntheticTraceConfig& config) {
  LARD_CHECK(config.num_pages > 0);
  LARD_CHECK(config.num_sessions >= 0);
  LARD_CHECK(config.num_clients > 0);

  Rng rng(config.seed);
  Trace trace;

  // 1. Build the corpus.
  std::vector<Page> pages;
  pages.reserve(static_cast<size_t>(config.num_pages));
  for (int64_t p = 0; p < config.num_pages; ++p) {
    Page page;
    const std::string prefix = "/page" + std::to_string(p);
    const uint64_t html_size =
        ClampSize(rng.NextLogNormal(config.html_lognorm_mu, config.html_lognorm_sigma), config);
    page.html = trace.catalog().Intern(prefix + "/index.html", html_size);
    // Geometric with mean `embedded_per_page_mean` => success prob 1/mean.
    const uint64_t num_objects =
        config.embedded_per_page_mean <= 1.0
            ? 1
            : rng.NextGeometric(1.0 / config.embedded_per_page_mean);
    for (uint64_t k = 0; k < num_objects; ++k) {
      page.objects.push_back(trace.catalog().Intern(
          prefix + "/obj" + std::to_string(k) + ".dat", SampleObjectSize(rng, config)));
    }
    pages.push_back(std::move(page));
  }

  // 2. Generate sessions. Popularity over pages is Zipf-like.
  ZipfSampler page_popularity(pages.size(), config.zipf_alpha);
  int64_t clock_us = 0;
  for (int64_t s = 0; s < config.num_sessions; ++s) {
    clock_us +=
        static_cast<int64_t>(rng.NextExponential(config.session_interarrival_mean_s * 1e6));
    TraceSession session;
    session.client_id = static_cast<uint32_t>(rng.NextBelow(static_cast<uint64_t>(config.num_clients)));
    session.start_us = clock_us;

    const uint64_t num_page_visits =
        config.pages_per_session_mean <= 1.0
            ? 1
            : rng.NextGeometric(1.0 / config.pages_per_session_mean);
    int64_t offset_us = 0;
    for (uint64_t v = 0; v < num_page_visits; ++v) {
      const Page& page = pages[page_popularity.Sample(rng)];
      if (config.pipeline_embedded_objects) {
        // Batch 1: the HTML. Batch 2: all embedded objects, pipelined, sent
        // once the HTML response has been parsed by the browser.
        session.batches.push_back(TraceBatch{offset_us, {page.html}});
        if (!page.objects.empty()) {
          // Nominal parse delay; replay treats it as think time.
          offset_us += 50 * 1000;
          session.batches.push_back(TraceBatch{offset_us, page.objects});
        }
      } else {
        TraceBatch batch;
        batch.offset_us = offset_us;
        batch.targets.push_back(page.html);
        batch.targets.insert(batch.targets.end(), page.objects.begin(), page.objects.end());
        session.batches.push_back(std::move(batch));
      }
      offset_us += static_cast<int64_t>(rng.NextExponential(config.think_time_mean_s * 1e6));
    }
    trace.sessions().push_back(std::move(session));
  }

  return trace;
}

}  // namespace lard
