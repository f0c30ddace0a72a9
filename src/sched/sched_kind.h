// The scheduler factory: one table row per policy that experiments choose
// by name — its display name (what IoScheduler::name() returns and what
// bench tables and sweep cell labels print), its mstk_trace CLI spelling,
// and its constructor. Adding a policy to every bench, sweep, and tool is
// one enumerator plus one row in sched_kind.cc.
#ifndef MSTK_SRC_SCHED_SCHED_KIND_H_
#define MSTK_SRC_SCHED_SCHED_KIND_H_

#include <memory>

#include "src/core/io_scheduler.h"
#include "src/core/storage_device.h"

namespace mstk {

enum class SchedKind { kFcfs, kSstfLbn, kClook, kLook, kSptf };

// Display name, equal to MakeScheduler(kind, ...)->name().
const char* SchedKindName(SchedKind kind);
// Command-line spelling ("fcfs", "sstf", "clook", "look", "sptf").
const char* SchedKindCliName(SchedKind kind);
// Parses a command-line spelling; returns false on anything else.
bool ParseSchedKind(const char* cli_name, SchedKind* out);

// Builds a fresh scheduler. `device` is borrowed by the position-aware
// policies (SPTF) and must outlive the scheduler; the others ignore it.
std::unique_ptr<IoScheduler> MakeScheduler(SchedKind kind, const StorageDevice* device);

}  // namespace mstk

#endif  // MSTK_SRC_SCHED_SCHED_KIND_H_
