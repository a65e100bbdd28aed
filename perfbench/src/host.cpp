#include "host.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto first = line.find_first_not_of(' ', colon + 1);
        return first == std::string::npos ? "unknown" : line.substr(first);
      }
    }
  }
  return "unknown";
}

std::int64_t steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string line;
  if (!std::getline(in, line) || line.rfind("cpu ", 0) != 0) return -1;
  // cpu  user nice system idle iowait irq softirq steal guest guest_nice
  std::istringstream fields(line.substr(4));
  std::int64_t value = 0;
  for (int i = 0; i < 8; ++i) {
    if (!(fields >> value)) return -1;
  }
  return value;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
