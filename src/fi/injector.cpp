#include "fi/injector.hpp"

#include <memory>
#include <string>
#include <utility>

#include "isolation/fault_injection.hpp"
#include "net/fault_hook.hpp"
#include "net/frame.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"
#include "validation/detectability.hpp"

namespace orte::fi {

namespace {

bool in_window(const Fault& f, sim::Time now) {
  return now >= f.from && now < f.until;
}

/// Frame-name match: empty target = every frame, else vfb::key_matches.
bool frame_matches(const Fault& f, const net::Frame& frame) {
  return f.target.empty() || vfb::key_matches(f.target, frame.name);
}

/// One fault plus its private RNG stream (shared_ptr: the stream state must
/// outlive install_faults inside the hook closures).
struct Armed {
  Fault fault;
  std::shared_ptr<sim::Rng> rng;
};

/// A clock-drift fault resolved to its bus node.
struct Drift {
  Fault fault;
  int node = -1;
};

}  // namespace

void install_faults(sim::Kernel& kernel, vfb::System& sys,
                    const std::vector<Fault>& faults, const sim::Rng& root) {
  validation::check_faults(sys.lowering(), faults);
  std::vector<Armed> frame_faults;  // drop / corrupt / delay
  std::vector<Armed> write_faults;  // value corrupt / stuck-at
  std::vector<Fault> crash_faults;  // fail-silent write swallowing
  std::vector<Drift> drifts;

  for (std::size_t i = 0; i < faults.size(); ++i) {
    const Fault& f = faults[i];
    auto rng = std::make_shared<sim::Rng>(root.fork(i));
    switch (f.kind) {
      case FaultKind::kFrameDrop:
      case FaultKind::kFrameCorrupt:
      case FaultKind::kFrameDelay:
        frame_faults.push_back({f, std::move(rng)});
        break;

      case FaultKind::kBabblingIdiot: {
        // A rogue controller flooding top-priority frames. On CAN it wins
        // every arbitration round and starves legitimate traffic (the
        // classic babbling-idiot failure CAN cannot contain); on FlexRay it
        // can only reach the dynamic segment — the TDMA static schedule is
        // structurally immune, which the campaign scores as the fault not
        // manifesting at all.
        net::Controller* rogue = nullptr;
        std::uint32_t id = static_cast<std::uint32_t>(f.value);
        if (sys.can_bus() != nullptr) {
          rogue = &sys.can_bus()->attach();
          if (id == 0) id = 1;  // dominant: below every generated id
        } else if (sys.flexray_bus() != nullptr) {
          rogue = &sys.flexray_bus()->attach();
          const auto first_dynamic = static_cast<std::uint32_t>(
              sys.flexray_bus()->config().static_slots + 1);
          if (id <= first_dynamic) id = first_dynamic;
        }
        if (rogue == nullptr) break;
        const Fault fault = f;
        const sim::Duration period =
            fault.delay > 0 ? fault.delay : sim::microseconds(100);
        // Every babble frame shares one 8-byte payload buffer.
        net::Frame babble;
        babble.id = id;
        babble.name = "fi.babble";
        babble.payload.assign(8, 0xAA);
        kernel.schedule_periodic(
            fault.from, period,
            [&kernel, rogue, fault, babble] {
              if (!in_window(fault, kernel.now())) return;
              net::Frame frame = babble;
              frame.enqueued_at = kernel.now();
              rogue->send(std::move(frame));
            },
            sim::EventOrder::kSoftware);
        break;
      }

      case FaultKind::kValueCorrupt:
      case FaultKind::kStuckAt:
        write_faults.push_back({f, std::move(rng)});
        break;

      case FaultKind::kTaskCrash:
        crash_faults.push_back(f);
        [[fallthrough]];
      case FaultKind::kWcetOverrun:
      case FaultKind::kExecutionJitter: {
        const Fault fault = f;
        for (const auto& lowered : sys.lowering().tasks) {
          if (lowered.instance != fault.target) continue;
          os::Task* task = sys.ecu(lowered.ecu).find_task(lowered.name);
          switch (fault.kind) {
            case FaultKind::kWcetOverrun:
              task->transform_durations([&kernel, fault](sim::Duration base) {
                return isolation::overrunning_wcet(kernel, base,
                                                   fault.magnitude, fault.from,
                                                   fault.until)();
              });
              break;
            case FaultKind::kExecutionJitter:
              task->transform_durations(
                  [&kernel, fault, rng](sim::Duration base) {
                    if (!in_window(fault, kernel.now())) return base;
                    return isolation::jittery_wcet(*rng, base,
                                                   fault.magnitude)();
                  });
              break;
            default:  // kTaskCrash
              task->transform_durations([&kernel, fault](sim::Duration base) {
                return isolation::crashing_wcet(kernel, base, fault.from)();
              });
              break;
          }
        }
        break;
      }

      case FaultKind::kClockDrift:
        drifts.push_back({f, sys.node_of(f.target)});
        break;
    }
  }

  if (!frame_faults.empty() || !drifts.empty()) {
    const bool tdma = sys.flexray_bus() != nullptr;
    // A node whose clock slid half a static slot transmits outside its
    // TDMA window: the frame is lost to the schedule.
    const sim::Duration desync_at =
        tdma ? sys.flexray_bus()->static_slot_len() / 2 : 0;
    net::FaultHook hook = [&kernel, frame_faults, drifts, tdma,
                           desync_at](net::Frame& frame) {
      net::FaultVerdict verdict;
      for (const auto& armed : frame_faults) {
        const Fault& f = armed.fault;
        if (!in_window(f, kernel.now()) || !frame_matches(f, frame)) continue;
        if (f.probability < 1.0 && !armed.rng->chance(f.probability)) {
          continue;
        }
        switch (f.kind) {
          case FaultKind::kFrameDrop:
            verdict.drop = true;
            return verdict;
          case FaultKind::kFrameCorrupt: {
            std::vector<std::uint8_t> bytes = frame.payload.bytes();
            const auto mask =
                static_cast<std::uint8_t>(f.value != 0 ? f.value : 0xFF);
            for (auto& b : bytes) b ^= mask;
            frame.payload = net::Payload(std::move(bytes));
            break;
          }
          default:  // kFrameDelay
            verdict.delay += f.delay;
            break;
        }
      }
      for (const auto& d : drifts) {
        if (frame.source != d.node || d.node < 0) continue;
        const sim::Time now = kernel.now();
        if (now < d.fault.from || now >= d.fault.until) continue;
        const auto offset = static_cast<sim::Duration>(
            static_cast<double>(now - d.fault.from) * d.fault.magnitude /
            1e6);
        if (tdma) {
          if (offset > desync_at) verdict.drop = true;
        } else {
          verdict.delay += offset;
        }
      }
      return verdict;
    };
    if (sys.can_bus() != nullptr) {
      sys.can_bus()->set_fault_hook(std::move(hook));
    } else if (sys.flexray_bus() != nullptr) {
      sys.flexray_bus()->set_fault_hook(std::move(hook));
    }
  }

  if (!write_faults.empty() || !crash_faults.empty()) {
    vfb::Rte::WriteInterceptor interceptor =
        [&kernel, write_faults, crash_faults](std::string_view key,
                                              std::uint64_t& value) {
          for (const auto& f : crash_faults) {
            // Crashes are permanent (no until): a dead component writes
            // nothing ever again — fail-silent at the component boundary.
            if (kernel.now() >= f.from && vfb::key_matches(f.target, key)) {
              return false;
            }
          }
          for (const auto& armed : write_faults) {
            const Fault& f = armed.fault;
            if (!in_window(f, kernel.now())) continue;
            if (!vfb::key_matches(f.target, key)) continue;
            if (f.probability < 1.0 && !armed.rng->chance(f.probability)) {
              continue;
            }
            if (f.kind == FaultKind::kStuckAt) {
              value = f.value;
            } else {
              value ^= (f.value != 0 ? f.value : ~0ULL);
            }
          }
          return true;
        };
    // Publish happens on the producer's ECU; installing the same composite
    // interceptor everywhere covers targets on any ECU.
    for (const auto& ecu_name : sys.ecu_names()) {
      sys.rte(ecu_name).intercept_writes(interceptor);
    }
  }
}

}  // namespace orte::fi
