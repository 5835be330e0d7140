// SimResult <-> JSON and the content-addressed cache key scheme.
//
// Two jobs, both in service of the persistent result cache (see
// docs/EXEC.md):
//
//  1. Exact serialization.  result_to_json / result_from_json cover every
//     field of SimResult — including histograms and running moments — such
//     that from(to(r)) reproduces r bit-for-bit (doubles are emitted with
//     %.17g, integers as decimal literals).  Equality of two results can
//     therefore be checked as equality of their canonical dumps.
//
//  2. Canonical experiment identity.  An experiment cell is the triple
//     (SimConfig, WorkloadProfile, policy spec); the trace seed lives inside
//     SimConfig.run_seed.  cache_key() hashes a canonical JSON encoding of
//     ALL fields of that triple (plus a schema-version tag, bumped whenever
//     the encoding or simulator semantics change) into a 128-bit hex key.
//     Any config/profile/policy/seed difference => different key.
#pragma once

#include <cstdint>
#include <string>

#include "core/sim.h"
#include "exec/json.h"

namespace mapg {

/// Bump when the serialized form or the meaning of cached results changes;
/// old cache entries are then simply never matched again.
/// v2: SimConfig::fast_forward joined the experiment identity, and
/// GatingStats grew idle_ungated_cycles / refresh_window_cycles.
/// v3: DRAM low-power states. DramConfig::power + the two DramEnergyParams
/// low-power draws joined the experiment identity; DramStats grew the
/// residency counters, GatingStats the coordinated-PD tallies, and
/// EnergyBreakdown the dram background / low-power-saved split.
/// v4: single-pass policy sweeps (src/replay).  Replayed cells are
/// bit-identical to direct runs (tests/test_replay.cpp), so the encoding is
/// unchanged; the bump draws a provenance boundary — every cached result
/// from v4 on was produced (or could have been produced) by the replay
/// engine, and caches written before it are never matched again.
/// v5: checkpoint + prefix-resume; the checkpoint stride joined the
/// experiment identity.  The tier was later deleted without a bump: the
/// stride left config_json, which changed every cache key by itself, and
/// the result encoding never held it.
/// v6: multi-standard DRAM backend (docs/DRAM.md).  The DramConfig standard
/// label, page policy (+ hybrid_addr_bits), and FR-FCFS posted-write queue
/// knobs (queue_depth, write_starve_limit) joined the experiment identity,
/// and DramStats grew the write-queue counters in the result encoding.  The
/// DDR3-1600 / open / depth-0 defaults are bit-identical to v5 behavior
/// (tests/test_dram_sched.cpp), but the identity now names the axes.
/// v7: trace-driven cells (docs/TRACE.md).  A job bound to an on-disk trace
/// carries a `trace` object in its identity: the trace's content digest
/// (FNV-1a64 over the record payload bytes — format/chunking/path
/// independent), the window offset, and the workload label.  Generator
/// cells encode exactly as in v6 apart from the tag; the bump is the
/// provenance boundary for trace-bound keys.
inline constexpr int kExecSchemaVersion = 7;

// --- Results ---
Json result_to_json(const SimResult& r);
/// Throws std::runtime_error on a malformed / wrong-schema document.
SimResult result_from_json(const Json& j);

/// Field-exact equality via canonical serialization.
bool results_equal(const SimResult& a, const SimResult& b);

// --- Experiment identity ---
/// Binds an experiment cell to a window of an on-disk trace instead of the
/// profile's generator.  Only content joins the identity: the digest names
/// the instruction stream (so renaming or re-chunking the file never splits
/// the cache and editing one record always does), offset names the window
/// start, and `name` labels results.  The path is resolution-only.
struct TraceBinding {
  std::string path;
  std::string digest_hex;    ///< trace_digest_hex of the stream digest
  std::uint64_t offset = 0;  ///< absolute instruction index of the window
  std::string name;          ///< workload label, e.g. "trace:app1"
};

/// Canonical JSON object naming every field of the experiment cell.  A
/// non-null `trace` adds the binding's content identity (v7).
Json experiment_identity(const SimConfig& config,
                         const WorkloadProfile& profile,
                         const std::string& policy_spec,
                         const TraceBinding* trace = nullptr);

/// 32-hex-char content hash of experiment_identity(...).dump().
std::string cache_key(const SimConfig& config, const WorkloadProfile& profile,
                      const std::string& policy_spec,
                      const TraceBinding* trace = nullptr);

/// 64-bit FNV-1a over a byte string (exposed for tests).
std::uint64_t fnv1a64(const std::string& bytes,
                      std::uint64_t seed = 14695981039346656037ULL);

}  // namespace mapg
