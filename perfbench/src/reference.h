// Simulated outcomes pinned at the default seed and standard sizes.
// A change meant only to speed up the simulator leaves every row
// unchanged; a change that moves one re-blesses it on purpose
// (`perfbench --workload <name> --print-reference` prints the rows).
#pragma once

#include <cstdint>
#include <string>

namespace wcs::perfbench {

// makespan_s is simulated seconds; wire_bytes counts demand and
// replication bytes.
struct ReferenceRow {
  const char* workload;
  const char* label;
  double makespan_s;
  std::uint64_t transfers;
  double wire_bytes;
};

inline constexpr ReferenceRow kReference[] = {
    {"paper", "storage-affinity", 988404.19779216195, 84114, 2102850000000},
    {"paper", "overlap", 891118.72497321363, 74395, 1859875000000},
    {"paper", "rest", 756202.15030843008, 61029, 1525725000000},
    {"paper", "combined", 756387.75743411924, 61012, 1525300000000},
    {"paper", "rest.2", 756869.1429090969, 61324, 1533100000000},
    {"paper", "combined.2", 755188.0158074263, 60591, 1514775000000},
    {"scale", "rest", 37482.99676212942, 28886, 722150000000},
    {"open", "rest.2_wrr", 5353315.7842787635, 380427, 5376174000000},
    {"open", "combined.2_wrr", 5353225.9452591073, 380947, 5385245000000},
};

inline const ReferenceRow* find_reference(const std::string& workload,
                                          const std::string& label) {
  for (const ReferenceRow& r : kReference)
    if (workload == r.workload && label == r.label) return &r;
  return nullptr;
}

}  // namespace wcs::perfbench
