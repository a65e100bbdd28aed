// What a run records about the host it ran on.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench {

/// CPUs this process may run on (its affinity mask).
int usable_cpus();

/// "model name" from /proc/cpuinfo, or "unknown".
std::string cpu_model();

/// Sum of the steal column over all CPUs in /proc/stat (in clock ticks),
/// or -1 when it cannot be read. Steal is time a hypervisor ran another
/// guest on this guest's CPUs, so a rising count marks a contended host.
std::int64_t steal_ticks();

/// Peak resident set of this process in MiB.
double peak_rss_mib();

}  // namespace perfbench
