#include "src/sched/sched_kind.h"

#include <cstring>

#include "src/sched/clook.h"
#include "src/sched/fcfs.h"
#include "src/sched/look.h"
#include "src/sched/sptf.h"
#include "src/sched/sstf_lbn.h"
#include "src/sim/check.h"

namespace mstk {
namespace {

struct SchedRow {
  SchedKind kind;
  const char* name;
  const char* cli_name;
  std::unique_ptr<IoScheduler> (*make)(const StorageDevice* device);
};

template <typename Scheduler>
std::unique_ptr<IoScheduler> MakeBlind(const StorageDevice*) {
  return std::make_unique<Scheduler>();
}

std::unique_ptr<IoScheduler> MakeSptf(const StorageDevice* device) {
  return std::make_unique<SptfScheduler>(device);
}

constexpr SchedRow kRows[] = {
    {SchedKind::kFcfs, "FCFS", "fcfs", MakeBlind<FcfsScheduler>},
    {SchedKind::kSstfLbn, "SSTF_LBN", "sstf", MakeBlind<SstfLbnScheduler>},
    {SchedKind::kClook, "C-LOOK", "clook", MakeBlind<ClookScheduler>},
    {SchedKind::kLook, "LOOK", "look", MakeBlind<LookScheduler>},
    {SchedKind::kSptf, "SPTF", "sptf", MakeSptf},
};

const SchedRow& Row(SchedKind kind) {
  for (const SchedRow& row : kRows) {
    if (row.kind == kind) return row;
  }
  MSTK_CHECK(false, "SchedKind missing from the scheduler table");
  return kRows[0];
}

}  // namespace

const char* SchedKindName(SchedKind kind) { return Row(kind).name; }

const char* SchedKindCliName(SchedKind kind) { return Row(kind).cli_name; }

bool ParseSchedKind(const char* cli_name, SchedKind* out) {
  for (const SchedRow& row : kRows) {
    if (std::strcmp(cli_name, row.cli_name) == 0) {
      *out = row.kind;
      return true;
    }
  }
  return false;
}

std::unique_ptr<IoScheduler> MakeScheduler(SchedKind kind, const StorageDevice* device) {
  return Row(kind).make(device);
}

}  // namespace mstk
