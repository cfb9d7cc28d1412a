// Repository benchmark: three closed-loop workloads driven through the
// public API of the simulator libraries (see perfbench/README.md).
//
//   pipelines64   64 contracted sensor->filter pipelines at 1 kHz on one ECU,
//                 simulated with runtime verification on and off, interleaved.
//   campaign-bbw  the brake_by_wire fault-injection campaign over FlexRay
//                 (standard 8-fault grid), with rv on and off, interleaved.
//   model1024     1024 pipelines sharded 64 per ECU (16 ECUs): validation and
//                 System construction of a vehicle-size model, plus a short
//                 rv on/off simulation of it.
//
// Untraced (--trace 0) the last stdout line carries every end-to-end metric.
// A timed end-to-end metric is the best iteration of the run (the highest
// rate, the lowest time): on a shared host even a register-only loop drifts
// by +-15 % within seconds, and the best iteration is what stays repeatable
// from run to run. The median and quartiles are printed beside it. Traced
// (--trace 1), the last line carries every per-layer metric (medians);
// the spans the benchmark records around each public layer call are
// written to --spans.
// Every simulated output is compared exactly against pinned values; each
// operation whose outputs differ counts as failed.
//
// Usage: orte_perf --workload NAME --seed N --seconds S --trace 0|1
//                  [--spans FILE]
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "bsw/dem.hpp"
#include "bsw/mode.hpp"
#include "contracts/contract.hpp"
#include "fi/campaign.hpp"
#include "fi/workloads.hpp"
#include "sim/kernel.hpp"
#include "sim/time.hpp"
#include "sim/trace.hpp"
#include "validation/validator.hpp"
#include "vfb/model.hpp"
#include "vfb/system.hpp"

using namespace orte;

namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

double ratio(double num, double den) { return den != 0 ? num / den : 0.0; }

double seconds_of(sim::Duration d) { return static_cast<double>(d) / 1e9; }

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string spans;
};

/// Campaign worker threads: a fixed count, never derived from the host.
/// Two of the four cores of the reference machine: with all four busy, the
/// single-threaded validate/setup samples between campaigns spread about
/// three times wider from run to run.
constexpr std::size_t kThreads = 2;

// --- Samples -----------------------------------------------------------------

class Samples {
 public:
  void add(double v) { values_.push_back(v); }
  [[nodiscard]] std::size_t size() const { return values_.size(); }
  /// Linear-interpolated quantile, p in [0, 1]; 0 when empty.
  [[nodiscard]] double quantile(double p) const {
    if (values_.empty()) return 0.0;
    std::vector<double> v = values_;
    std::sort(v.begin(), v.end());
    const double pos = p * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
  }
  [[nodiscard]] double median() const { return quantile(0.5); }
  [[nodiscard]] double min() const { return quantile(0.0); }
  [[nodiscard]] double max() const { return quantile(1.0); }

 private:
  std::vector<double> values_;
};

// --- Output check ------------------------------------------------------------

/// Counts checked operations and the ones whose simulated output differs
/// from its pinned value; every mismatch is printed to stderr.
class Checker {
 public:
  void expect(std::string_view what, std::uint64_t got, std::uint64_t want) {
    if (got == want) return;
    ok_ = false;
    std::fprintf(stderr, "mismatch: %.*s = %llu, pinned %llu\n",
                 static_cast<int>(what.size()), what.data(),
                 static_cast<unsigned long long>(got),
                 static_cast<unsigned long long>(want));
  }
  void expect(std::string_view what, const std::string& got,
              std::string_view want) {
    if (got == want) return;
    ok_ = false;
    std::fprintf(stderr, "mismatch: %.*s = \"%s\", pinned \"%.*s\"\n",
                 static_cast<int>(what.size()), what.data(), got.c_str(),
                 static_cast<int>(want.size()), want.data());
  }
  /// Close the current operation; it stands for `weight` checked operations
  /// (e.g. the scenarios of one coverage class).
  void close(std::uint64_t weight = 1) {
    attempted_ += weight;
    if (!ok_) failed_ += weight;
    ok_ = true;
  }
  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  bool ok_ = true;
};

// --- Spans -------------------------------------------------------------------

/// In-memory span recorder. Spans are recorded only while active (traced
/// iterations); ids are 1-based and parent 0 means top level.
class Tracer {
 public:
  struct Span {
    std::string name;
    std::size_t parent = 0;
    std::size_t run = 0;
    double start_us = 0;
    double end_us = 0;
    std::vector<std::pair<std::string, double>> attrs;
  };

  void set_active(bool on) { active_ = on; }
  [[nodiscard]] bool active() const { return active_; }
  void set_run(std::size_t run) { run_ = run; }

  std::size_t open(std::string name) {
    if (!active_) return 0;
    spans_.push_back({std::move(name), stack_.empty() ? 0 : stack_.back(),
                      run_, now_us(), 0, {}});
    stack_.push_back(spans_.size());
    return spans_.size();
  }
  void close(std::size_t id) {
    if (id == 0) return;
    spans_[id - 1].end_us = now_us();
    stack_.pop_back();
  }
  void attr(std::size_t id, std::string key, double value) {
    if (id != 0) spans_[id - 1].attrs.emplace_back(std::move(key), value);
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  [[nodiscard]] double now_us() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  Clock::time_point origin_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
  std::size_t run_ = 0;
  bool active_ = false;
};

class Scope {
 public:
  Scope(Tracer& tracer, std::string name)
      : tracer_(tracer), id_(tracer.open(std::move(name))) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() { tracer_.close(id_); }
  void attr(std::string key, double value) {
    tracer_.attr(id_, std::move(key), value);
  }

 private:
  Tracer& tracer_;
  std::size_t id_;
};

// --- Layer counters ----------------------------------------------------------

/// Public counters of every layer of one simulated system.
struct Layers {
  sim::KernelCounters kernel;
  std::uint64_t trace_records = 0;
  std::uint64_t tasks = 0;
  std::uint64_t signals = 0;
  std::uint64_t rte_writes = 0;
  std::uint64_t rte_reads = 0;
  std::uint64_t jobs_completed = 0;
  std::uint64_t deadline_misses = 0;
  std::uint64_t context_switches = 0;
  double cpu_utilization_pct = 0;  ///< Mean over ECUs.
  std::uint64_t pdus_sent = 0;
  std::uint64_t pdus_received = 0;
  std::uint64_t fr_cycles = 0;
  std::uint64_t fr_frames = 0;
  std::uint64_t fr_static_slots = 0;
  std::uint64_t monitors = 0;
  std::uint64_t routed = 0;
  std::uint64_t delivered = 0;
  std::uint64_t violations = 0;
};

/// Trace::count summed over every interned category.
std::uint64_t trace_records(const sim::Trace& trace) {
  std::uint64_t n = 0;
  for (sim::TraceId id = 0; !trace.category_name(id).empty(); ++id) {
    n += trace.count(id);
  }
  return n;
}

Layers snapshot(const sim::Kernel& kernel, const sim::Trace& trace,
                vfb::System& sys) {
  Layers l;
  l.kernel = kernel.counters();
  l.trace_records = trace_records(trace);
  l.signals = sys.signal_count();
  for (const auto& name : sys.ecu_names()) {
    os::Ecu& ecu = sys.ecu(name);
    l.tasks += ecu.tasks().size();
    for (const auto& task : ecu.tasks()) {
      l.jobs_completed += task->jobs_completed();
      l.deadline_misses += task->deadline_misses();
    }
    l.context_switches += ecu.context_switches();
    l.cpu_utilization_pct += 100.0 * ecu.utilization();
    l.rte_writes += sys.rte(name).writes();
    l.rte_reads += sys.rte(name).reads();
    l.pdus_sent += sys.com(name).pdus_sent();
    l.pdus_received += sys.com(name).pdus_received();
  }
  l.cpu_utilization_pct =
      ratio(l.cpu_utilization_pct, static_cast<double>(sys.ecu_names().size()));
  if (flexray::FlexRayBus* bus = sys.flexray_bus()) {
    l.fr_cycles = bus->cycles();
    l.fr_frames = bus->stats().frames_delivered();
    l.fr_static_slots = bus->config().static_slots;
  }
  if (rv::MonitorRegistry* reg = sys.monitors()) {
    l.monitors = reg->monitor_count();
    l.routed = reg->records_routed();
    l.delivered = reg->records_delivered();
    l.violations = reg->health().total();
  }
  return l;
}

/// Run `sys` for `horizon`. While tracing, the run is split into `chunk`-long
/// run_for calls, each a span carrying its kernel and trace-count deltas
/// (chunked and single-call runs execute the same events in the same order).
void run_for(Tracer& tracer, const sim::Kernel& kernel,
             const sim::Trace& trace, vfb::System& sys, sim::Duration horizon,
             sim::Duration chunk) {
  if (!tracer.active()) {
    sys.run_for(horizon);
    return;
  }
  for (sim::Duration done = 0; done < horizon; done += chunk) {
    const sim::KernelCounters before = kernel.counters();
    const std::uint64_t records_before = trace_records(trace);
    Scope span(tracer, "vfb.System::run_for");
    sys.run_for(std::min(chunk, horizon - done));
    const sim::KernelCounters after = kernel.counters();
    span.attr("sim_ms", seconds_of(std::min(chunk, horizon - done)) * 1e3);
    span.attr("executed",
              static_cast<double>(after.executed - before.executed));
    span.attr("pushed", static_cast<double>(after.pushed - before.pushed));
    span.attr("skipped_dead",
              static_cast<double>(after.skipped_dead - before.skipped_dead));
    span.attr("wheel_flushed",
              static_cast<double>(after.wheel_flushed - before.wheel_flushed));
    span.attr("trace_records",
              static_cast<double>(trace_records(trace) - records_before));
  }
}

sim::Trace quiet_trace() {
  sim::Trace trace;
  trace.enable_retention(false);
  return trace;
}

/// Validation diagnostics as "rule/severity=count" entries in rule order: the
/// pinned form of a validate() result.
std::string diagnostics_key(const validation::Diagnostics& diags) {
  std::map<std::string, std::size_t> counts;
  for (const auto& d : diags.all()) {
    ++counts[d.rule + "/" + std::string(validation::to_string(d.severity))];
  }
  std::string key;
  for (const auto& [k, n] : counts) {
    key += (key.empty() ? "" : " ") + k + "=" + std::to_string(n);
  }
  return key;
}

/// One validate() call, timed and spanned; the previous result is released
/// by the caller's assignment, outside the timed region.
validation::Diagnostics timed_validate(const vfb::Composition& model,
                                       const vfb::DeploymentPlan& plan,
                                       Tracer& tracer, Samples& ms) {
  Scope span(tracer, "validation::validate");
  const auto t0 = Clock::now();
  validation::Diagnostics diags = validation::validate(model, plan);
  ms.add(ms_since(t0));
  return diags;
}

// --- Metrics report ----------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Prints one metric; `s` (in units of value / scale) adds the sample count,
/// median and quartiles the value was picked from.
void print_metric(const Metric& m, const Samples* s = nullptr,
                  double scale = 1.0) {
  if (s != nullptr && s->size() > 0) {
    std::printf(
        "  %-34s %14.6g %-12s best of %zu; median %.6g [q1 %.6g, q3 %.6g]\n",
        m.name.c_str(), m.value, m.unit.c_str(), s->size(),
        s->median() * scale, s->quantile(0.25) * scale,
        s->quantile(0.75) * scale);
  } else {
    std::printf("  %-34s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void print_result(const Checker& check, const std::vector<Metric>& metrics) {
  std::printf("  failed_pct %.6g %% (%llu of %llu checked operations)\n",
              100.0 * ratio(static_cast<double>(check.failed()),
                            static_cast<double>(check.attempted())),
              static_cast<unsigned long long>(check.failed()),
              static_cast<unsigned long long>(check.attempted()));
  std::string out = "{\"correct\": ";
  out += check.failed() == 0 && check.attempted() > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(check.attempted());
  out += ", \"failed\": " + std::to_string(check.failed());
  out += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(metrics[i].value) ? metrics[i].value : 0.0);
    out += (i == 0 ? "\"" : ", \"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

/// Peak resident set of this process image (VmHWM). getrusage's ru_maxrss
/// is not used: Linux carries it across exec, so it would include the
/// launching process.
double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, "VmHWM:", 6) == 0) {
      kib = std::strtod(line + 6, nullptr);
    }
  }
  std::fclose(f);
  return kib / 1024.0;
}

/// Spans plus the per-layer snapshot, written once at exit of a traced run.
void write_spans(const Options& opt, const Tracer& tracer,
                 const std::vector<std::pair<std::string, std::string>>& sizes,
                 const std::vector<Metric>& per_layer) {
  if (opt.spans.empty()) return;
  std::FILE* f = std::fopen(opt.spans.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", opt.spans.c_str());
    return;
  }
  std::fprintf(f, "{\"workload\": \"%s\", \"seed\": %llu, \"threads\": %zu",
               opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
               kThreads);
  for (const auto& [k, v] : sizes) {
    std::fprintf(f, ", \"%s\": \"%s\"", k.c_str(), v.c_str());
  }
  std::fprintf(f, ",\n \"per_layer\": {");
  for (std::size_t i = 0; i < per_layer.size(); ++i) {
    std::fprintf(f, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                 i == 0 ? "" : ", ", per_layer[i].name.c_str(),
                 per_layer[i].value, per_layer[i].unit.c_str());
  }
  std::fprintf(f, "},\n \"spans\": [\n");
  const auto& spans = tracer.spans();
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto& s = spans[i];
    std::fprintf(f,
                 "  {\"id\": %zu, \"parent\": %zu, \"name\": \"%s\", "
                 "\"workload\": \"%s\", \"run\": %zu, \"start_us\": %.3f, "
                 "\"end_us\": %.3f",
                 i + 1, s.parent, s.name.c_str(), opt.workload.c_str(), s.run,
                 s.start_us, s.end_us);
    for (const auto& [k, v] : s.attrs) {
      std::fprintf(f, ", \"%s\": %.17g", k.c_str(), v);
    }
    std::fprintf(f, "}%s\n", i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, " ]}\n");
  std::fclose(f);
  std::printf("  spans: %zu written to %s\n", spans.size(), opt.spans.c_str());
}

// --- Workload models ---------------------------------------------------------

constexpr int kPipelinesPerEcu = 64;

/// The E8b model: `pipelines` contracted 1 kHz sensor->filter pipelines, each
/// pair co-located so every connector routes locally (no bus).
vfb::Composition pipeline_model(int pipelines) {
  vfb::Composition model;
  vfb::PortInterface ival;
  ival.name = "IVal";
  ival.elements.push_back(vfb::DataElement{"v", 32, 0, false});
  model.add_interface(ival);

  const sim::Duration exec = sim::microseconds(2);
  vfb::Runnable produce;
  produce.name = "produce";
  produce.trigger = vfb::RunnableTrigger::timing(sim::milliseconds(1));
  produce.execution_time = [exec] { return exec; };
  produce.accesses.push_back({"out", "v", vfb::DataAccessKind::kExplicitWrite});
  produce.behavior = [](vfb::RunnableContext& ctx) {
    ctx.write("out", "v", 1);
  };
  model.add_type({"Sensor",
                  {vfb::Port{"out", "IVal", vfb::PortDirection::kProvided}},
                  {produce}});

  vfb::Runnable consume;
  consume.name = "consume";
  consume.trigger = vfb::RunnableTrigger::data_received("in", "v");
  consume.execution_time = [exec] { return exec; };
  consume.accesses.push_back({"in", "v", vfb::DataAccessKind::kExplicitRead});
  consume.behavior = [](vfb::RunnableContext& ctx) {
    (void)ctx.read("in", "v");
  };
  model.add_type({"Filter",
                  {vfb::Port{"in", "IVal", vfb::PortDirection::kRequired}},
                  {consume}});

  for (int i = 0; i < pipelines; ++i) {
    const std::string s = "sensor" + std::to_string(i);
    const std::string f = "filter" + std::to_string(i);
    model.add_instance({s, "Sensor"});
    model.add_instance({f, "Filter"});
    model.add_connector({s, "out", f, "in"});
    contracts::Contract cs;
    cs.name = "C_" + s;
    cs.guarantees.push_back(
        {.flow = "out.v", .timing = {.period = sim::milliseconds(1),
                                     .jitter = sim::milliseconds(1),
                                     .latency = sim::milliseconds(5)}});
    model.bind_contract(s, cs);
    contracts::Contract cf;
    cf.name = "C_" + f;
    cf.assumptions.push_back(
        {.flow = "in.v", .timing = {.latency = sim::milliseconds(5)}});
    model.bind_contract(f, cf);
  }
  return model;
}

vfb::DeploymentPlan pipeline_plan(int pipelines) {
  vfb::DeploymentPlan plan;
  for (int i = 0; i < pipelines; ++i) {
    const std::string ecu = "ecu" + std::to_string(i / kPipelinesPerEcu);
    plan.instances["sensor" + std::to_string(i)] = {.ecu = ecu};
    plan.instances["filter" + std::to_string(i)] = {.ecu = ecu};
  }
  return plan;
}

// --- Pipeline workloads (pipelines64, model1024) -----------------------------

/// Simulated outputs of one pipeline run over the shape's horizon. They are
/// the same with rv on and off (monitors are pure observers).
struct PipelinePins {
  std::uint64_t tasks;
  std::uint64_t signals;
  std::uint64_t rte_writes;
  std::uint64_t rte_reads;
  std::uint64_t jobs_completed;
  std::uint64_t context_switches;
  std::uint64_t monitors;  ///< With rv on.
  const char* diagnostics;
};

struct PipelineShape {
  int pipelines;
  sim::Duration horizon;  ///< Simulated time per run.
  sim::Duration chunk;    ///< run_for granularity while tracing.
  PipelinePins pins;
};

constexpr PipelineShape kPipelines64{
    64, sim::seconds(1), sim::milliseconds(100),
    {128, 0, 64000, 64000, 128000, 128001, 256,
     "V13/warning=64 V15/warning=64 V4/warning=64 V9/info=64"}};
constexpr PipelineShape kModel1024{
    1024, sim::milliseconds(20), sim::milliseconds(5),
    {2048, 0, 20480, 20480, 40960, 40976, 4096,
     "V13/warning=1024 V15/warning=1024 V4/warning=1024 V9/info=1024"}};

struct PipelineRun {
  double setup_ms = 0;
  double run_ms = 0;
  Layers layers;
};

PipelineRun pipeline_run(const PipelineShape& shape,
                         const vfb::Composition& model,
                         vfb::DeploymentPlan plan, bool rv_on, Tracer& tracer,
                         Checker& check) {
  PipelineRun out;
  Scope op(tracer, rv_on ? "pipeline.rv_on" : "pipeline.rv_off");
  sim::Kernel kernel;
  sim::Trace trace = quiet_trace();
  plan.runtime_verification = rv_on;
  std::unique_ptr<vfb::System> sys;
  {
    Scope span(tracer, "vfb.System");
    const auto t0 = Clock::now();
    sys = std::make_unique<vfb::System>(kernel, trace, model, plan);
    out.setup_ms = ms_since(t0);
  }
  const auto t0 = Clock::now();
  run_for(tracer, kernel, trace, *sys, shape.horizon, shape.chunk);
  out.run_ms = ms_since(t0);
  out.layers = snapshot(kernel, trace, *sys);

  const PipelinePins& pin = shape.pins;
  const Layers& l = out.layers;
  check.expect("vfb.generator.tasks", l.tasks, pin.tasks);
  check.expect("vfb.generator.signals", l.signals, pin.signals);
  check.expect("vfb.rte.writes", l.rte_writes, pin.rte_writes);
  check.expect("vfb.rte.reads", l.rte_reads, pin.rte_reads);
  check.expect("os.jobs_completed", l.jobs_completed, pin.jobs_completed);
  check.expect("os.context_switches", l.context_switches,
               pin.context_switches);
  check.expect("os.deadline_misses", l.deadline_misses, 0);
  check.expect("rv.monitors", l.monitors, rv_on ? pin.monitors : 0);
  check.expect("rv.violations", l.violations, 0);
  check.close();
  return out;
}

/// Everything a pipeline workload measures.
struct PipelineStats {
  Samples validate_ms;
  Samples setup_ms;  ///< rv-on System construction.
  Samples rate_on;
  Samples rate_off;
  Samples overhead_pct;  ///< Per interleaved pair.
  Samples run_ms_on;
  Layers layers;  ///< Last rv-on run.
  validation::Diagnostics diagnostics;  ///< Last validate() result.
};

void pipeline_iteration(const PipelineShape& shape,
                        const vfb::Composition& model,
                        const vfb::DeploymentPlan& plan, bool rv_first,
                        Tracer& tracer, Checker& check, PipelineStats& st) {
  st.diagnostics = timed_validate(model, plan, tracer, st.validate_ms);
  check.expect("validation.diagnostics", diagnostics_key(st.diagnostics),
               shape.pins.diagnostics);
  check.close();
  PipelineRun on;
  PipelineRun off;
  for (const bool rv_on : {rv_first, !rv_first}) {
    (rv_on ? on : off) = pipeline_run(shape, model, plan, rv_on, tracer, check);
  }
  const double sim_s = seconds_of(shape.horizon);
  st.setup_ms.add(on.setup_ms);
  st.run_ms_on.add(on.run_ms);
  st.rate_on.add(sim_s / (on.run_ms / 1e3));
  st.rate_off.add(sim_s / (off.run_ms / 1e3));
  st.overhead_pct.add(100.0 * (1.0 - off.run_ms / on.run_ms));
  st.layers = on.layers;
}

// --- Campaign workload (campaign-bbw) ----------------------------------------

constexpr std::size_t kReplicates = 50;  // 8 faults x 50 + baseline
constexpr std::size_t kSetupSamplesPerIteration = 25;

/// Pinned coverage per fault class for the 50-replicate standard grid, with
/// rv on and with rv off (no monitor can fire, so every fault is missed).
struct ClassPin {
  const char* cls;
  const char* rv_on;
  const char* rv_off;
};
constexpr ClassPin kCoveragePins[] = {
    {"bus",
     "total=150 detected=100 contained=100 leaked=0 missed=50 spurious=0",
     "total=150 detected=0 contained=0 leaked=0 missed=150 spurious=0"},
    {"clock", "total=50 detected=50 contained=50 leaked=0 missed=0 spurious=0",
     "total=50 detected=0 contained=0 leaked=0 missed=50 spurious=0"},
    {"rte_value",
     "total=100 detected=100 contained=100 leaked=0 missed=0 spurious=0",
     "total=100 detected=0 contained=0 leaked=0 missed=100 spurious=0"},
    {"timing",
     "total=100 detected=100 contained=100 leaked=0 missed=0 spurious=0",
     "total=100 detected=0 contained=0 leaked=0 missed=100 spurious=0"},
};
constexpr const char* kBbwDiagnostics = "V13/warning=1 V15/warning=1 V9/info=4";

std::string class_key(const fi::ClassStats& cs) {
  return "total=" + std::to_string(cs.total) +
         " detected=" + std::to_string(cs.detected) +
         " contained=" + std::to_string(cs.contained) +
         " leaked=" + std::to_string(cs.leaked) +
         " missed=" + std::to_string(cs.missed) +
         " spurious=" + std::to_string(cs.spurious);
}

fi::ModelBundle bbw_bundle(bool rv_on) {
  fi::ModelBundle bundle = fi::workloads::brake_by_wire();
  bundle.plan.runtime_verification = rv_on;
  return bundle;
}

struct CampaignRun {
  double wall_ms = 0;
  std::size_t scenarios = 0;
  std::size_t detected = 0;
  std::size_t faulty = 0;
  std::size_t spurious = 0;
};

CampaignRun campaign_run(const Options& opt, bool rv_on, Tracer& tracer,
                         Checker& check) {
  fi::CampaignConfig cfg;
  cfg.seed = opt.seed;
  cfg.replicates = kReplicates;
  cfg.threads = kThreads;
  fi::Campaign campaign([rv_on] { return bbw_bundle(rv_on); }, cfg);
  fi::workloads::add_standard_faults(campaign);
  CampaignRun out;
  const auto t0 = Clock::now();
  const fi::Report report = [&] {
    Scope span(tracer,
               rv_on ? "fi::Campaign::run" : "fi::Campaign::run.rv_off");
    return campaign.run();
  }();
  out.wall_ms = ms_since(t0);
  out.scenarios = report.scenarios.size();
  out.faulty = out.scenarios - report.baselines;
  out.detected = report.count(fi::Outcome::kContained) +
                 report.count(fi::Outcome::kDetected);
  out.spurious =
      report.count(fi::Outcome::kSpurious) + report.spurious_baselines;

  // Baselines must stay silent; each coverage class is checked as a whole.
  check.expect("fi.baseline_spurious", report.spurious_baselines, 0);
  check.close(report.baselines);
  for (const ClassPin& pin : kCoveragePins) {
    const auto it = report.matrix.find(pin.cls);
    const std::string got =
        it == report.matrix.end() ? "" : class_key(it->second);
    check.expect(std::string("fi.coverage.") + pin.cls, got,
                 rv_on ? pin.rv_on : pin.rv_off);
    check.close(it == report.matrix.end() ? 1 : it->second.total);
  }
  return out;
}

/// One fault-free scenario assembled through public calls the way the
/// campaign assembles each of its scenarios: bundle, System, DEM, modes,
/// escalation and the rv heartbeat.
struct ProbeWorld {
  explicit ProbeWorld(const fi::CampaignConfig& cfg)
      : sys(kernel, trace, bundle.model, bundle.plan),
        dem(kernel, trace),
        modes(kernel, trace, "vehicle", bundle.initial_mode) {
    modes.add_mode(bundle.degraded_mode);
    modes.add_transition(bundle.initial_mode, bundle.degraded_mode);
    modes.add_transition(bundle.degraded_mode, bundle.initial_mode);
    sys.monitors()->report_to(dem, cfg.debounce);
    sys.monitors()->escalate_to(modes, bundle.degraded_mode,
                                cfg.escalation_threshold);
    kernel.schedule_periodic(
        cfg.heartbeat, cfg.heartbeat,
        [this] {
          sys.monitors()->flush();
          dem.operation_cycle_end();
        },
        sim::EventOrder::kObserver);
  }
  ProbeWorld(const ProbeWorld&) = delete;
  ProbeWorld& operator=(const ProbeWorld&) = delete;

  fi::ModelBundle bundle = fi::workloads::brake_by_wire();
  sim::Kernel kernel;
  sim::Trace trace = quiet_trace();
  vfb::System sys;
  bsw::Dem dem;
  bsw::ModeMachine modes;
};

/// Pinned outputs of one fault-free brake_by_wire scenario.
constexpr std::uint64_t kBbwTasks = 5;
constexpr std::uint64_t kBbwSignals = 1;
constexpr std::uint64_t kProbeRteWrites = 200;
constexpr std::uint64_t kProbeFrames = 200;

struct ProbeRun {
  double build_ms = 0;
  double run_ms = 0;
  Layers layers;
};

ProbeRun fi_probe(Tracer& tracer, Checker& check) {
  const fi::CampaignConfig cfg;
  ProbeRun out;
  Scope op(tracer, "fi.probe");
  std::unique_ptr<ProbeWorld> world;
  {
    Scope span(tracer, "fi.probe.build");
    const auto t0 = Clock::now();
    world = std::make_unique<ProbeWorld>(cfg);
    out.build_ms = ms_since(t0);
  }
  {
    Scope span(tracer, "fi.probe.run");
    const auto t0 = Clock::now();
    run_for(tracer, world->kernel, world->trace, world->sys, cfg.horizon,
            sim::milliseconds(100));
    out.run_ms = ms_since(t0);
  }
  out.layers = snapshot(world->kernel, world->trace, world->sys);
  check.expect("fi.probe.vfb.rte.writes", out.layers.rte_writes,
               kProbeRteWrites);
  check.expect("fi.probe.flexray.frames_delivered", out.layers.fr_frames,
               kProbeFrames);
  check.expect("fi.probe.rv.violations", out.layers.violations, 0);
  check.close();
  return out;
}

/// fi-layer measurements: out-of-campaign probes and full campaigns.
struct FiStats {
  Samples build_ms;
  Samples run_ms;
  Samples thread_ms;  ///< Campaign wall time x threads per scenario.
  Samples rate_on;    ///< Simulated scenario-seconds per host second.
  Samples rate_off;
  Samples overhead_pct;  ///< Per interleaved rv on/off campaign pair.
  double detected_pct = 0;
  std::uint64_t spurious = 0;
  Layers layers;  ///< Last probe.
};

constexpr int kProbesPerIteration = 10;

void fi_probes(Tracer& tracer, Checker& check, FiStats& st) {
  for (int k = 0; k < kProbesPerIteration; ++k) {
    const ProbeRun p = fi_probe(tracer, check);
    st.build_ms.add(p.build_ms);
    st.run_ms.add(p.run_ms);
    st.layers = p.layers;
  }
}

void fi_campaigns(const Options& opt, bool rv_first, Tracer& tracer,
                  Checker& check, FiStats& st) {
  CampaignRun on;
  CampaignRun off;
  for (const bool rv_on : {rv_first, !rv_first}) {
    (rv_on ? on : off) = campaign_run(opt, rv_on, tracer, check);
  }
  const fi::CampaignConfig cfg;
  const double sim_s = seconds_of(cfg.horizon);
  st.rate_on.add(static_cast<double>(on.scenarios) * sim_s /
                 (on.wall_ms / 1e3));
  st.rate_off.add(static_cast<double>(off.scenarios) * sim_s /
                  (off.wall_ms / 1e3));
  st.thread_ms.add(on.wall_ms * static_cast<double>(kThreads) /
                   static_cast<double>(on.scenarios));
  st.overhead_pct.add(100.0 * (1.0 - off.wall_ms / on.wall_ms));
  st.detected_pct = 100.0 * ratio(static_cast<double>(on.detected),
                                  static_cast<double>(on.faulty));
  st.spurious = on.spurious;
}

struct CampaignStats {
  Samples validate_ms;
  Samples setup_ms;
  FiStats fi;
  validation::Diagnostics diagnostics;  ///< Last validate() result.
};

void campaign_iteration(const Options& opt, bool rv_first, Tracer& tracer,
                        Checker& check, CampaignStats& st) {
  const fi::ModelBundle bundle = fi::workloads::brake_by_wire();
  for (std::size_t k = 0; k < kSetupSamplesPerIteration; ++k) {
    st.diagnostics =
        timed_validate(bundle.model, bundle.plan, tracer, st.validate_ms);
    check.expect("validation.diagnostics", diagnostics_key(st.diagnostics),
                 kBbwDiagnostics);
    check.close();
    sim::Kernel kernel;
    sim::Trace trace = quiet_trace();
    std::unique_ptr<vfb::System> sys;
    {
      Scope span(tracer, "vfb.System");
      const auto t0 = Clock::now();
      sys = std::make_unique<vfb::System>(kernel, trace, bundle.model,
                                          bundle.plan);
      st.setup_ms.add(ms_since(t0));
    }
    const Layers l = snapshot(kernel, trace, *sys);
    check.expect("vfb.generator.tasks", l.tasks, kBbwTasks);
    check.expect("vfb.generator.signals", l.signals, kBbwSignals);
    check.close();
  }
  if (tracer.active()) fi_probes(tracer, check, st.fi);
  fi_campaigns(opt, rv_first, tracer, check, st.fi);
}

// --- Closed loop -------------------------------------------------------------

/// Runs `iteration(n, warm_up)` once untimed as warm-up, then back-to-back
/// until `opt.seconds` have passed (at least kMinIterations).
/// In a traced run every other iteration records spans; the untraced ones
/// give the clean numbers the tracing overhead is measured against.
constexpr std::size_t kMinIterations = 4;

template <typename Iteration>
std::size_t closed_loop(const Options& opt, Tracer& tracer,
                        Iteration iteration) {
  iteration(std::size_t{0}, /*warm_up=*/true);
  const auto t0 = Clock::now();
  std::size_t n = 0;
  while (n < kMinIterations || ms_since(t0) < opt.seconds * 1e3) {
    ++n;
    tracer.set_run(n);
    tracer.set_active(opt.trace && n % 2 == 1);
    Scope span(tracer, "iteration");
    iteration(n, /*warm_up=*/false);
  }
  tracer.set_active(false);
  return n;
}

/// Rotates the rv on/off order every two iterations, so each order occurs
/// in traced and in untraced iterations alike.
bool rv_first(std::size_t iteration) { return (iteration / 2) % 2 == 0; }

// --- Metric assembly ---------------------------------------------------------

struct SizeInfo {
  std::vector<std::pair<std::string, std::string>> fields;
  void add(std::string k, std::string v) {
    fields.emplace_back(std::move(k), std::move(v));
  }
  void print() const {
    for (const auto& [k, v] : fields) {
      std::printf("  %-12s %s\n", k.c_str(), v.c_str());
    }
  }
};

/// Everything the per-layer metrics are computed from.
struct LayerInputs {
  Layers layers;              ///< Counters of one simulated operation.
  sim::Duration horizon = 0;  ///< Its simulated time.
  double run_ms = 0;          ///< Its median host time (traced).
  double validate_ms = 0;     ///< Median validate() host time.
  double setup_ms = 0;        ///< Median System construction host time.
  validation::Diagnostics diagnostics;  ///< Of the validated model.
  double rv_overhead_pct = 0;
  double trace_overhead_pct = 0;
  const FiStats* fi = nullptr;
};

std::vector<Metric> layer_metrics(const LayerInputs& in) {
  const Layers& l = in.layers;
  const double sim_s = seconds_of(in.horizon);
  const double run_ns = in.run_ms * 1e6;
  const auto count = [](std::uint64_t v) { return static_cast<double>(v); };
  const FiStats& fi = *in.fi;
  const validation::Diagnostics& diags = in.diagnostics;
  using validation::Severity;
  return {
      {"sim.kernel.events_per_sim_s", ratio(count(l.kernel.executed), sim_s),
       "1/sim-s"},
      {"sim.kernel.host_ns_per_event", ratio(run_ns, count(l.kernel.executed)),
       "ns"},
      {"sim.kernel.dead_ratio",
       ratio(count(l.kernel.skipped_dead), count(l.kernel.popped)), "ratio"},
      {"sim.kernel.peak_queue_depth", count(l.kernel.peak_queue_depth),
       "count"},
      {"sim.kernel.wheel_flush_ratio",
       ratio(count(l.kernel.wheel_flushed), count(l.kernel.pushed)), "ratio"},
      {"sim.trace.records_per_sim_s", ratio(count(l.trace_records), sim_s),
       "1/sim-s"},
      {"sim.trace.host_ns_per_record", ratio(run_ns, count(l.trace_records)),
       "ns"},
      {"os.jobs_completed", count(l.jobs_completed), "count"},
      {"os.context_switches", count(l.context_switches), "count"},
      {"os.deadline_misses", count(l.deadline_misses), "count"},
      {"os.cpu_utilization", l.cpu_utilization_pct, "%"},
      {"vfb.rte.writes", count(l.rte_writes), "count"},
      {"vfb.rte.reads", count(l.rte_reads), "count"},
      {"vfb.rte.host_ns_per_write", ratio(run_ns, count(l.rte_writes)), "ns"},
      {"vfb.generator.host_ms", in.setup_ms - in.validate_ms, "ms"},
      {"vfb.generator.tasks", count(l.tasks), "count"},
      {"vfb.generator.signals", count(l.signals), "count"},
      {"bsw.com.pdus_sent", count(l.pdus_sent), "count"},
      {"bsw.com.pdus_received", count(l.pdus_received), "count"},
      {"flexray.cycles", count(l.fr_cycles), "count"},
      {"flexray.frames_delivered", count(l.fr_frames), "count"},
      {"flexray.slot_occupancy",
       ratio(count(l.fr_frames), count(l.fr_cycles * l.fr_static_slots)),
       "ratio"},
      {"rv.monitors", count(l.monitors), "count"},
      {"rv.records_routed", count(l.routed), "count"},
      {"rv.records_delivered", count(l.delivered), "count"},
      {"rv.delivery_ratio", ratio(count(l.delivered), count(l.routed)),
       "ratio"},
      {"rv.violations", count(l.violations), "count"},
      {"rv.overhead_pct", in.rv_overhead_pct, "%"},
      {"validation.host_ms", in.validate_ms, "ms"},
      {"validation.diagnostics.error", count(diags.count(Severity::kError)),
       "count"},
      {"validation.diagnostics.warning",
       count(diags.count(Severity::kWarning)), "count"},
      {"validation.diagnostics.info", count(diags.count(Severity::kInfo)),
       "count"},
      {"validation.rule.V4", count(diags.by_rule("V4").size()), "count"},
      {"validation.rule.V9", count(diags.by_rule("V9").size()), "count"},
      {"validation.rule.V13", count(diags.by_rule("V13").size()), "count"},
      {"validation.rule.V15", count(diags.by_rule("V15").size()), "count"},
      {"validation.share_of_setup", 100.0 * ratio(in.validate_ms, in.setup_ms),
       "%"},
      {"fi.build_ms_per_scenario", fi.build_ms.median(), "ms"},
      {"fi.run_ms_per_scenario", fi.run_ms.median(), "ms"},
      {"fi.thread_ms_per_scenario", fi.thread_ms.median(), "ms"},
      {"fi.detected_pct", fi.detected_pct, "%"},
      {"fi.spurious", count(fi.spurious), "count"},
      {"bench.trace_overhead_pct", in.trace_overhead_pct, "%"},
  };
}

/// Cost of the benchmark's spans: the untraced iterations' median rate over
/// the traced iterations' median rate, from the same process.
double overhead_pct(const Samples& plain_rate, const Samples& traced_rate) {
  return 100.0 * (ratio(plain_rate.median(), traced_rate.median()) - 1.0);
}

void report(const Options& opt, const SizeInfo& sizes, const Tracer& tracer,
            const Checker& check, const std::vector<Metric>& e2e,
            const std::vector<const Samples*>& e2e_samples,
            const LayerInputs& layers) {
  sizes.print();
  std::vector<Metric> out;
  if (opt.trace) {
    out = layer_metrics(layers);
    std::printf("per-layer metrics (traced run)\n");
    for (const Metric& m : out) print_metric(m);
    write_spans(opt, tracer, sizes.fields, out);
  } else {
    out = e2e;
    std::printf("end-to-end metrics\n");
    for (std::size_t i = 0; i < out.size(); ++i) {
      // setup_s is sampled in ms.
      print_metric(out[i], i < e2e_samples.size() ? e2e_samples[i] : nullptr,
                   out[i].name == "setup_s" ? 1e-3 : 1.0);
    }
  }
  print_result(check, out);
}

int run_pipelines(const Options& opt, const PipelineShape& shape) {
  const vfb::Composition model = pipeline_model(shape.pipelines);
  const vfb::DeploymentPlan plan = pipeline_plan(shape.pipelines);
  Tracer tracer;
  Checker check;
  PipelineStats plain;
  PipelineStats traced;
  PipelineStats warm;
  const std::size_t n =
      closed_loop(opt, tracer, [&](std::size_t i, bool warm_up) {
        PipelineStats& st = warm_up ? warm : tracer.active() ? traced : plain;
        pipeline_iteration(shape, model, plan, rv_first(i), tracer, check,
                           st);
      });

  FiStats fi;
  if (opt.trace) {
    // The fi layer's own probes, so its per-layer metrics are measured in
    // every traced run (this workload itself never injects faults).
    tracer.set_active(true);
    tracer.set_run(n + 1);
    fi_probes(tracer, check, fi);
    fi_campaigns(opt, true, tracer, check, fi);
    tracer.set_active(false);
  }

  SizeInfo sizes;
  sizes.add("workload", opt.workload);
  sizes.add("seed", std::to_string(opt.seed) + " (the model is fixed)");
  sizes.add("pipelines", std::to_string(shape.pipelines));
  sizes.add("ecus", std::to_string((shape.pipelines + kPipelinesPerEcu - 1) /
                                   kPipelinesPerEcu));
  sizes.add("tasks", std::to_string(shape.pins.tasks));
  sizes.add("monitors", std::to_string(shape.pins.monitors));
  sizes.add("horizon_ms", std::to_string(shape.horizon / sim::milliseconds(1)));
  sizes.add("iterations", std::to_string(n));
  sizes.add("threads", std::to_string(kThreads) + " (fi probes only)");

  const std::vector<Metric> e2e{
      {"sim_rate", plain.rate_on.max(), "sim-s/host-s"},
      {"sim_rate_rv_off", plain.rate_off.max(), "sim-s/host-s"},
      {"validate_ms", plain.validate_ms.min(), "ms"},
      {"setup_s", plain.setup_ms.min() / 1e3, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  LayerInputs in;
  in.layers = traced.layers;
  in.horizon = shape.horizon;
  in.run_ms = traced.run_ms_on.median();
  in.validate_ms = traced.validate_ms.median();
  in.setup_ms = traced.setup_ms.median();
  in.diagnostics = traced.diagnostics;
  in.rv_overhead_pct = plain.overhead_pct.median();
  in.trace_overhead_pct = overhead_pct(plain.rate_on, traced.rate_on);
  in.fi = &fi;
  report(opt, sizes, tracer, check, e2e,
         {&plain.rate_on, &plain.rate_off, &plain.validate_ms, &plain.setup_ms},
         in);
  return 0;
}

int run_campaign(const Options& opt) {
  Tracer tracer;
  Checker check;
  CampaignStats plain;
  CampaignStats traced;
  CampaignStats warm;
  const std::size_t n =
      closed_loop(opt, tracer, [&](std::size_t i, bool warm_up) {
        CampaignStats& st = warm_up ? warm : tracer.active() ? traced : plain;
        campaign_iteration(opt, rv_first(i), tracer, check, st);
      });

  SizeInfo sizes;
  sizes.add("workload", opt.workload);
  sizes.add("seed", std::to_string(opt.seed) + " (campaign RNG)");
  sizes.add("threads", std::to_string(kThreads));
  sizes.add("scenarios", std::to_string(1 + 8 * kReplicates) +
                             " per campaign (8 faults x " +
                             std::to_string(kReplicates) + " + baseline)");
  sizes.add("horizon_ms", "1000 per scenario");
  sizes.add("iterations", std::to_string(n));

  const std::vector<Metric> e2e{
      {"sim_rate", plain.fi.rate_on.max(), "sim-s/host-s"},
      {"sim_rate_rv_off", plain.fi.rate_off.max(), "sim-s/host-s"},
      {"validate_ms", plain.validate_ms.min(), "ms"},
      {"setup_s", plain.setup_ms.min() / 1e3, "s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
  std::printf("  scenarios_per_s %.6g (= sim_rate / 1 s horizon; %.4g ms per "
              "scenario)\n",
              plain.fi.rate_on.max(), ratio(1e3, plain.fi.rate_on.max()));
  LayerInputs in;
  in.layers = traced.fi.layers;
  in.horizon = fi::CampaignConfig{}.horizon;
  in.run_ms = traced.fi.run_ms.median();
  in.validate_ms = traced.validate_ms.median();
  in.setup_ms = traced.setup_ms.median();
  in.diagnostics = traced.diagnostics;
  in.rv_overhead_pct = plain.fi.overhead_pct.median();
  in.trace_overhead_pct = overhead_pct(plain.fi.rate_on, traced.fi.rate_on);
  in.fi = &traced.fi;
  report(opt, sizes, tracer, check, e2e,
         {&plain.fi.rate_on, &plain.fi.rate_off, &plain.validate_ms,
          &plain.setup_ms},
         in);
  return 0;
}

bool parse(int argc, char** argv, Options& opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      opt.trace = std::string_view(value) == "1";
    } else if (flag == "--spans") {
      opt.spans = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !opt.workload.empty() && opt.seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    std::fprintf(stderr,
                 "usage: %s --workload pipelines64|campaign-bbw|model1024 "
                 "--seed N --seconds S --trace 0|1 [--spans FILE]\n",
                 argv[0]);
    return 2;
  }
  if (opt.workload == "pipelines64") return run_pipelines(opt, kPipelines64);
  if (opt.workload == "model1024") return run_pipelines(opt, kModel1024);
  if (opt.workload == "campaign-bbw") return run_campaign(opt);
  std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
  return 2;
}
