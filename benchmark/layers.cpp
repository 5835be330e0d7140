#include "layers.h"

#include <chrono>
#include <stdexcept>

#include "exec/serialize.h"
#include "obs/event_tracer.h"

namespace mapg::bench {
namespace {

using Clock = std::chrono::steady_clock;

/// Written by the timed drains so the compiler cannot drop them.
volatile Addr g_sink = 0;

/// Time `body` and record it as one span named `name` on the tracer.
template <class F>
double timed_span(const char* name, const std::string& label, F&& body) {
  obs::EventTracer& tracer = obs::EventTracer::instance();
  const std::uint64_t ts = tracer.now_ns();
  const Clock::time_point t0 = Clock::now();
  body();
  const double s = std::chrono::duration<double>(Clock::now() - t0).count();
  if (tracer.enabled())
    tracer.complete(name, "layer", ts, static_cast<std::uint64_t>(s * 1e9),
                    obs::TraceArgs().add("cell", label).json());
  return s;
}

/// The load/store stream the core presented to its hierarchy, in order.
struct AccessLog {
  std::vector<Addr> addr;
  std::vector<Cycle> cycle;
  std::vector<std::uint8_t> store;
  std::size_t warmup_end = 0;  ///< accesses issued before the warmup reset
  Cycle warmup_now = 0;        ///< core clock at the warmup boundary
  Cycle end_now = 0;           ///< core clock at the end of the run

  void push(Addr a, Cycle c, bool is_store) {
    addr.push_back(a);
    cycle.push_back(c);
    store.push_back(is_store ? 1 : 0);
  }
  std::size_t size() const { return addr.size(); }
};

/// TraceSource decorator that logs each load/store with its issue cycle.
/// The core fetches instruction i+1 right after executing instruction i,
/// and at issue width 1 a load or store advances the clock by exactly one
/// cycle after its hierarchy call, so that call happened at now() - 1 as
/// seen from the next fetch.  flush() resolves the last pending access at a
/// phase boundary, where no next fetch follows.
class AccessTap final : public TraceSource {
 public:
  AccessTap(TraceSource& inner, AccessLog& log) : inner_(inner), log_(log) {}

  void attach(const Core& core) { core_ = &core; }

  bool next(Instr& out) override {
    flush();
    if (!inner_.next(out)) return false;
    if (out.op == OpClass::kLoad || out.op == OpClass::kStore) {
      pending_ = true;
      pending_addr_ = out.addr;
      pending_store_ = out.op == OpClass::kStore;
    }
    return true;
  }
  void reset() override { inner_.reset(); }

  void flush() {
    if (!pending_) return;
    log_.push(pending_addr_, core_->now() - 1, pending_store_);
    pending_ = false;
  }

 private:
  TraceSource& inner_;
  AccessLog& log_;
  const Core* core_ = nullptr;
  bool pending_ = false;
  Addr pending_addr_ = 0;
  bool pending_store_ = false;
};

std::unique_ptr<TraceSource> fresh_source(const Cell& cell) {
  if (cell.make_source) return cell.make_source();
  return std::make_unique<TraceGenerator>(cell.profile,
                                          cell.config.run_seed);
}

std::unique_ptr<PgPolicy> fresh_policy(const Cell& cell,
                                       const PgCircuit& circuit) {
  std::unique_ptr<PgPolicy> p =
      make_policy(cell.policy, PgController::make_context(circuit));
  if (!p) throw std::invalid_argument("unknown policy spec: " + cell.policy);
  return p;
}

void compose_energy(const SimConfig& cfg, const PgCircuit& circuit,
                    SimResult& r) {
  r.energy = compute_energy(cfg.tech, &circuit, r.core, r.gating.activity);
  const DramEnergyBreakdown dram_e = compute_dram_energy_breakdown(
      r.dram, cfg.mem.dram, cfg.tech, cfg.dram_energy, r.core.cycles,
      r.gating.dram_pd_channel_cycles);
  r.energy.dram_j = dram_e.total_j();
  r.energy.dram_background_j = dram_e.background_j;
  r.energy.dram_lowpower_saved_j = dram_e.lowpower_saved_j;
}

}  // namespace

LayerSample decompose(const Cell& cell) {
  const SimConfig& cfg = cell.config;
  LayerSample out;
  // The tap's cycle arithmetic and the scalar fetch it decorates assume
  // these; every benchmark workload uses them.
  if (cfg.core.issue_width != 1 || cfg.batched)
    throw std::invalid_argument(
        "layer decomposition needs issue_width 1 and the scalar front-end");

  // 1. The untraced reference.
  out.sim_s = timed_span("layer.sim", cell.label, [&] {
    const Simulator sim(cfg);
    if (cell.make_source) {
      std::unique_ptr<TraceSource> src = cell.make_source();
      out.result = sim.run(*src, cell.label, cell.policy);
    } else {
      out.result = sim.run(cell.profile, cell.policy);
    }
  });
  const std::string reference = result_to_json(out.result).dump();

  // 2. trace: the same stream, drained with the core's scalar fetch.  The
  // load/store count sizes the access log below exactly.
  std::uint64_t drained = 0;
  std::size_t mem_ops = 0;
  Addr sink = 0;
  out.trace_s = timed_span("layer.trace", cell.label, [&] {
    std::unique_ptr<TraceSource> src = fresh_source(cell);
    const std::uint64_t want = cfg.warmup_instructions + cfg.instructions;
    Instr in;
    while (drained < want && src->next(in)) {
      sink ^= in.addr + in.dep_dist;
      mem_ops += in.op == OpClass::kLoad || in.op == OpClass::kStore;
      ++drained;
    }
  });
  g_sink = sink;
  out.instrs = drained;

  // 3. The same run composed from the public layer classes, tapped.
  const PgCircuit circuit(cfg.pg, cfg.tech);
  const StallKernelParams kparams = make_stall_kernel_params(cfg, circuit);
  AccessLog log;
  log.addr.reserve(mem_ops);
  log.cycle.reserve(mem_ops);
  log.store.reserve(mem_ops);
  StallSeries warmup_stalls, stalls;
  SimResult composed;
  out.traced_s = timed_span("layer.traced", cell.label, [&] {
    std::unique_ptr<TraceSource> src = fresh_source(cell);
    AccessTap tap(*src, log);
    std::unique_ptr<PgPolicy> policy = fresh_policy(cell, circuit);
    MemoryHierarchy mem(cfg.mem);
    PgController controller(*policy, circuit, nullptr, kparams);
    RecordingStallHandler recorder(controller);
    recorder.set_sink(warmup_stalls);
    Core core(cfg.core, mem, &recorder);
    core.set_step_mode(kparams.mode);
    tap.attach(core);
    if (cfg.warmup_instructions > 0) {
      core.run(tap, cfg.warmup_instructions);
      tap.flush();
      log.warmup_end = log.size();
      log.warmup_now = core.now();
      mem.dram().settle_power(core.now());
      core.reset_stats();
      mem.reset_stats();
      controller.reset_stats();
    }
    recorder.set_sink(stalls);
    core.run(tap, cfg.instructions);
    tap.flush();
    log.end_now = core.now();
    mem.dram().settle_power(core.now());

    composed.workload = cell.label;
    composed.policy = policy->name();
    composed.ctx = policy->context();
    composed.core = core.stats();
    composed.hier = mem.stats();
    composed.l1 = mem.l1_stats();
    composed.l2 = mem.l2_stats();
    composed.dram = mem.dram_stats();
    composed.gating = controller.stats();
  });
  compose_energy(cfg, circuit, composed);
  const std::string composed_json = result_to_json(composed).dump();
  if (composed_json != reference)
    out.mismatches.push_back(cell.label +
                             ": composed run differs from Simulator::run");
  out.accesses = log.size();
  out.windows = warmup_stalls.size() + stalls.size();
  if (out.accesses != mem_ops)
    out.mismatches.push_back(cell.label +
                             ": access log misses loads or stores");

  // 4. mem: the logged access stream into a fresh hierarchy.
  SimResult mem_view = composed;
  out.mem_s = timed_span("layer.mem", cell.label, [&] {
    MemoryHierarchy mem(cfg.mem);
    const std::size_t n = log.size();
    auto replay = [&](std::size_t from, std::size_t to) {
      for (std::size_t i = from; i < to; ++i) {
        if (log.store[i])
          mem.store(log.addr[i], log.cycle[i]);
        else
          mem.load(log.addr[i], log.cycle[i]);
      }
    };
    std::size_t from = 0;
    if (cfg.warmup_instructions > 0) {
      replay(0, log.warmup_end);
      mem.dram().settle_power(log.warmup_now);
      mem.reset_stats();
      from = log.warmup_end;
    }
    replay(from, n);
    mem.dram().settle_power(log.end_now);
    mem_view.hier = mem.stats();
    mem_view.l1 = mem.l1_stats();
    mem_view.l2 = mem.l2_stats();
    mem_view.dram = mem.dram_stats();
  });
  if (result_to_json(mem_view).dump() != composed_json)
    out.mismatches.push_back(cell.label +
                             ": mem replay differs from the composed run");

  // 5. pg: the logged stall windows into a fresh controller.
  SimResult pg_view = composed;
  out.pg_s = timed_span("layer.pg", cell.label, [&] {
    std::unique_ptr<PgPolicy> policy = fresh_policy(cell, circuit);
    PgController controller(*policy, circuit, nullptr, kparams);
    for (std::size_t i = 0; i < warmup_stalls.size(); ++i)
      controller.on_stall(warmup_stalls[i]);
    if (cfg.warmup_instructions > 0) controller.reset_stats();
    for (std::size_t i = 0; i < stalls.size(); ++i)
      controller.on_stall(stalls[i]);
    pg_view.gating = controller.stats();
  });
  if (result_to_json(pg_view).dump() != composed_json)
    out.mismatches.push_back(cell.label +
                             ": pg replay differs from the composed run");

  // 6. power: energy composition is microseconds, so repeat it enough to
  // rise well above the clock's resolution.
  constexpr int kPowerReps = 2000;
  SimResult power_view = composed;
  const double power_total = timed_span("layer.power", cell.label, [&] {
    for (int i = 0; i < kPowerReps; ++i) {
      compose_energy(cfg, circuit, power_view);
      g_sink = g_sink + static_cast<Addr>(power_view.energy.dram_j > 0);
    }
  });
  out.power_s = power_total / kPowerReps;
  if (result_to_json(power_view).dump() != composed_json)
    out.mismatches.push_back(cell.label +
                             ": energy composition differs");
  return out;
}

}  // namespace mapg::bench
