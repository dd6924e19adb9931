#include "partition/config.hpp"

namespace hgr {

const char* to_string(IncrementalMode mode) {
  switch (mode) {
    case IncrementalMode::kOff:
      return "off";
    case IncrementalMode::kAuto:
      return "auto";
    case IncrementalMode::kOn:
      return "on";
  }
  return "unknown";
}

}  // namespace hgr
