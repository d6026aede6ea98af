// Shared bench CLI: every bench binary is a shim over scenario_main().
//
// scenario_main(default_scenario, argc, argv) registers the built-in
// catalog, parses the shared flag set, and runs the selected scenario:
//
//   --scenario NAME   run a different catalog entry (default: the shim's)
//   --list-scenarios  print every registered scenario and exit
//   --dump-scenario [NAME]  print the built spec as JSON and exit
//   --tasks N         workload size (default 6000 = the paper's slice)
//   --seeds K         topology repetitions (default 5)
//   --jobs N          worker threads for independent runs (default: all
//                     hardware threads; output is identical at any level)
//   --csv PATH        also write the series as CSV
//   --fast            1500 tasks, 2 seeds, coarser sweep axes
//   --audit           run every simulation with the invariant auditor on
//                     (src/audit); read-only checkers, identical output
//   --report PATH     write the machine-readable run report here (default
//                     results/<bench>.json; --no-report disables)
//   --trace-out P     additionally run one representative simulation with
//                     full observability and dump its Chrome trace to P
//   --workload NAME   override the spec's workload generator (registry
//                     names: coadd, uniform, zipf, partitioned, trace,
//                     multi-tenant)
//   --tenants N|W,..  open-system tenant roster: a count (equal weights)
//                     or comma-separated weights; with the default coadd
//                     generator this implies --workload multi-tenant
//   --arrival P       arrival process: t0 (closed, default), poisson,
//                     diurnal, or bursty
//   --whole-file-cache  account site caches in whole files (the
//                     pre-block-store reference) instead of the default
//                     block-granular store (storage/block_store.h); at
//                     content overlap 0 totals are byte-identical either
//                     way (docs/data-plane.md); excludes --block-size
//   --block-size MB   block size for the block-granular store (default
//                     1 MB); observable only under content overlap
//   --replication-policy P  replica placement: none (disable), random,
//                     least-loaded, hierarchical, or network-cost
//                     (replication/data_replicator.h)
//
// WCS_BENCH_FAST=1 in the environment implies --fast (used by CI-style
// smoke runs); WCS_BENCH_JOBS=N sets the default for --jobs. WCS_AUDIT=1
// implies --audit (see audit::default_enabled()).
#pragma once

#include <string>

namespace wcs::scenario {

// Returns the process exit code. `default_scenario` must name a built-in
// catalog entry (scenario/catalog.h).
int scenario_main(const std::string& default_scenario, int argc, char** argv);

}  // namespace wcs::scenario
