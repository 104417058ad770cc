// The two workloads.  Each runs its cold set-ups, measures for
// Config::seconds, checks every output and fills in an Outcome.
#pragma once

#include "common.hpp"

namespace perfbench {

/// Every registry algorithm, planned once and run round-robin through
/// plan::run at paper-scale lane counts (engine and CorePool at large p).
Outcome run_bulk_registry(const Config& config);

/// Closed loop over loopback: one client thread, one connection per
/// program, every batch flushed on size (net, serve and pool fan-out at
/// small batches).
Outcome run_wire_batched(const Config& config);

}  // namespace perfbench
