#include "storage/sim_core.hpp"

namespace flo::storage {

const char* sim_core_name(SimCoreKind core) {
  switch (core) {
    case SimCoreKind::kClock:
      return "clock";
    case SimCoreKind::kEvent:
      return "event";
  }
  return "?";
}

}  // namespace flo::storage
