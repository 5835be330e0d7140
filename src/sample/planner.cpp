#include "sample/planner.h"

#include <limits>

#include "obs/obs.h"

namespace mapg {

std::uint64_t SamplePlan::sampled_instructions() const {
  if (exhaustive) return total_instructions;
  std::uint64_t n = 0;
  for (const SampleCluster& c : clusters)
    n += regions[c.representative].length;
  return n;
}

namespace {

/// Everything downstream of the signature pass: deterministic in
/// (signatures, config) so the cached and scanned paths converge here.
SamplePlan plan_from_signatures(std::vector<RegionSignature> regions,
                                const SampleConfig& config) {
  SamplePlan plan;
  plan.config = config;
  plan.regions = std::move(regions);
  for (const RegionSignature& r : plan.regions)
    plan.total_instructions += r.length;
  MAPG_OBS_COUNTER_ADD("sim.sample.regions", plan.regions.size());
  if (plan.regions.empty()) {
    plan.exhaustive = true;
    return plan;
  }

  if (config.clusters >= plan.regions.size()) {
    // Nothing to save: every region would be its own representative.  Flag
    // exhaustive so the runner does one continuous full run — projection
    // must never cost accuracy when it saves no work.
    plan.exhaustive = true;
    plan.assignment.resize(plan.regions.size());
    plan.clusters.resize(plan.regions.size());
    for (std::size_t i = 0; i < plan.regions.size(); ++i) {
      plan.assignment[i] = i;
      plan.clusters[i].representative = i;
      plan.clusters[i].weight = 1.0;
      plan.clusters[i].members = {i};
    }
    MAPG_OBS_COUNTER_ADD("sim.sample.clusters", plan.clusters.size());
    return plan;
  }

  const KMeansResult km = kmeans_cluster(
      plan.regions, static_cast<std::size_t>(config.clusters), config.seed);
  plan.assignment = km.assignment;
  plan.clusters.resize(km.centroids.size());
  for (std::size_t i = 0; i < plan.regions.size(); ++i)
    plan.clusters[km.assignment[i]].members.push_back(i);

  for (std::size_t c = 0; c < plan.clusters.size(); ++c) {
    SampleCluster& cl = plan.clusters[c];
    // Representative: the member closest to the centroid in the clustering
    // metric; lowest index on ties (determinism).
    double best = std::numeric_limits<double>::infinity();
    std::uint64_t cluster_len = 0;
    for (std::size_t m : cl.members) {
      cluster_len += plan.regions[m].length;
      double d = 0;
      for (std::size_t dim = 0; dim < kSignatureDims; ++dim) {
        const double t = plan.regions[m].v[dim] - km.centroids[c][dim];
        d += t * t;
      }
      if (d < best) {
        best = d;
        cl.representative = m;
      }
    }
    cl.weight = static_cast<double>(cluster_len) /
                static_cast<double>(plan.regions[cl.representative].length);
  }
  MAPG_OBS_COUNTER_ADD("sim.sample.clusters", plan.clusters.size());
  return plan;
}

}  // namespace

SamplePlan build_sample_plan(TraceSource& trace,
                             const SampleConfig& config) {
  return plan_from_signatures(
      compute_region_signatures(trace, config.region_instructions), config);
}

SamplePlan build_sample_plan(FileTraceSource& trace,
                             const SampleConfig& config, unsigned jobs) {
  constexpr std::uint64_t kLineBytes = 64;  // compute_region_signatures default
  const std::uint64_t digest = trace.info().stream_digest;
  if (!config.signature_cache.empty()) {
    if (auto cached =
            load_region_signatures(config.signature_cache, digest,
                                   config.region_instructions, kLineBytes)) {
      return plan_from_signatures(std::move(*cached), config);
    }
  }
  std::vector<RegionSignature> sigs = compute_file_signatures(
      trace, config.region_instructions, kLineBytes, jobs);
  if (!config.signature_cache.empty()) {
    // Best-effort refresh: a failed write costs the NEXT run a rescan, never
    // correctness — the load path re-verifies digest and slicing anyway.
    save_region_signatures(config.signature_cache, digest,
                           config.region_instructions, kLineBytes, sigs);
  }
  return plan_from_signatures(std::move(sigs), config);
}

}  // namespace mapg
