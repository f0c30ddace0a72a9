// Property tests for the calendar EventQueue: under arbitrary
// push/cancel/pop churn it must be observationally identical to a small
// ordered-map reference — the same event fires at each pop (time, id and
// callback), Cancel returns the same results, sizes agree. The sweep-level
// byte-identity CI gate rests on this (time, seq) pop order.
#include "src/sim/event_queue.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <random>
#include <utility>
#include <vector>

namespace mstk {
namespace {

// Reference queue: a std::map keyed on (time, seq) is the pop order by
// construction; an id -> key index finds an event for Cancel. Values carry
// the id the real queue handed out and the tag its callback writes.
class ReferenceQueue {
 public:
  struct Fired {
    double time_ms;
    int64_t id;
    int64_t tag;
  };

  void Push(double time_ms, int64_t id, int64_t tag) {
    const Key key{time_ms, next_seq_++};
    by_key_.emplace(key, Entry{id, tag});
    by_id_.emplace(id, key);
  }

  bool Cancel(int64_t id) {
    const auto it = by_id_.find(id);
    if (it == by_id_.end()) {
      return false;
    }
    by_key_.erase(it->second);
    by_id_.erase(it);
    return true;
  }

  bool Empty() const { return by_key_.empty(); }
  int64_t size() const { return static_cast<int64_t>(by_key_.size()); }
  double PeekTime() const { return by_key_.begin()->first.first; }

  Fired Pop() {
    const auto it = by_key_.begin();
    const Fired fired{it->first.first, it->second.id, it->second.tag};
    by_id_.erase(it->second.id);
    by_key_.erase(it);
    return fired;
  }

 private:
  using Key = std::pair<double, uint64_t>;
  struct Entry {
    int64_t id;
    int64_t tag;
  };
  std::map<Key, Entry> by_key_;
  std::map<int64_t, Key> by_id_;
  uint64_t next_seq_ = 0;
};

// Drives one queue and the reference in lockstep. Every pushed callback
// writes its tag to `fired_tag_`, so each pop checks which event fired, not
// only when.
class Lockstep {
 public:
  int64_t Push(double time_ms) {
    const int64_t tag = next_tag_++;
    int64_t* out = &fired_tag_;
    const int64_t id = queue_.Push(time_ms, [out, tag] { *out = tag; });
    ref_.Push(time_ms, id, tag);
    return id;
  }

  // Returns whether the queue's Cancel succeeded; fails the test if the
  // reference disagrees.
  bool Cancel(int64_t id) {
    const bool ok = queue_.Cancel(id);
    EXPECT_EQ(ok, ref_.Cancel(id)) << "Cancel diverged for id " << id;
    return ok;
  }

  // Pops one event through Pop() or, with `fire_next`, the in-place
  // FireNext() path, and checks it against the reference. Returns its time.
  double PopAndCheck(bool fire_next, int64_t step) {
    const ReferenceQueue::Fired want = ref_.Pop();
    fired_tag_ = -1;
    double time_ms = -1.0;
    if (fire_next) {
      queue_.FireNext(&time_ms);
    } else {
      EventQueue::Event event = queue_.Pop();
      EXPECT_EQ(event.id, want.id) << "popped id diverged at step " << step;
      time_ms = event.time_ms;
      event.callback();
    }
    EXPECT_EQ(time_ms, want.time_ms) << "pop time diverged at step " << step;
    EXPECT_EQ(fired_tag_, want.tag) << "wrong event fired at step " << step;
    return time_ms;
  }

  // Requires a non-empty reference.
  void CheckPeek(int64_t step) {
    EXPECT_EQ(queue_.PeekTime(), ref_.PeekTime()) << "PeekTime diverged at step " << step;
  }

  void CheckSize(int64_t step) {
    EXPECT_EQ(queue_.size(), ref_.size()) << "size diverged at step " << step;
    EXPECT_EQ(queue_.Empty(), ref_.Empty()) << "Empty diverged at step " << step;
  }

  // Pops everything left; the full remaining sequence must match.
  void Drain() {
    for (int64_t step = 0; !ref_.Empty() && !::testing::Test::HasFailure(); ++step) {
      CheckPeek(step);
      PopAndCheck(step % 2 == 1, step);
    }
    EXPECT_TRUE(queue_.Empty());
  }

  EventQueue& queue() { return queue_; }
  bool Empty() const { return ref_.Empty(); }

 private:
  EventQueue queue_;
  ReferenceQueue ref_;
  int64_t next_tag_ = 0;
  int64_t fired_tag_ = -1;
};

// One deterministic churn round. Times are drawn from a small discrete set
// so equal-time ties are common and the seq tiebreak is genuinely
// exercised. With `peeks`, PeekTime also runs between other operations, so
// pushes (also ones earlier than the peeked minimum), cancels (also of the
// peeked event) and pops land on a queue whose minimum was located by an
// earlier peek. Pops alternate between Pop() and FireNext().
void RunChurnEquivalence(uint64_t seed, int ops, bool coarse_times, bool peeks = false) {
  Lockstep q;
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> fine(0.0, 1000.0);
  std::uniform_int_distribution<int> coarse(0, 31);
  std::uniform_int_distribution<int> action(0, 9);

  double floor_ms = 0.0;  // pops advance virtual time; pushes must not precede it
  std::vector<int64_t> pending;  // ids pushed and not yet picked for Cancel

  for (int i = 0; i < ops; ++i) {
    if (peeks && !q.Empty() && action(rng) < 5) {
      q.CheckPeek(i);
    }
    const int a = action(rng);
    if (a < 6 || q.Empty()) {
      const double t =
          floor_ms + (coarse_times ? static_cast<double>(coarse(rng)) : fine(rng));
      pending.push_back(q.Push(t));
    } else if (a < 8 && !pending.empty()) {
      // The pick may already have fired: both sides must then refuse.
      std::uniform_int_distribution<size_t> pick(0, pending.size() - 1);
      const size_t k = pick(rng);
      q.Cancel(pending[k]);
      pending.erase(pending.begin() + static_cast<ptrdiff_t>(k));
    } else {
      q.CheckPeek(i);
      floor_ms = q.PopAndCheck(i % 2 == 1, i);
    }
    q.CheckSize(i);
    if (::testing::Test::HasFailure()) {
      return;
    }
  }
  q.Drain();
}

TEST(EventQueueEquivalenceTest, RandomChurnFineTimes) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    RunChurnEquivalence(seed, 20000, /*coarse_times=*/false);
  }
}

TEST(EventQueueEquivalenceTest, RandomChurnHeavyTies) {
  // Coarse integer times force many equal-time chains: pop order then rests
  // entirely on the seq tiebreak.
  for (uint64_t seed = 100; seed <= 107; ++seed) {
    RunChurnEquivalence(seed, 20000, /*coarse_times=*/true);
  }
}

TEST(EventQueueEquivalenceTest, RandomChurnWithInterleavedPeeks) {
  for (uint64_t seed = 200; seed <= 207; ++seed) {
    RunChurnEquivalence(seed, 20000, /*coarse_times=*/false, /*peeks=*/true);
    RunChurnEquivalence(seed + 100, 20000, /*coarse_times=*/true, /*peeks=*/true);
  }
}

TEST(EventQueueEquivalenceTest, PushBeforePeekedMinimumPopsFirst) {
  // A run that stops at a horizon has peeked an event beyond it; an event
  // scheduled between the horizon and that one must still pop first.
  Lockstep q;
  for (int i = 0; i < 200; ++i) {
    q.Push(100.0 + i);
  }
  ASSERT_EQ(q.queue().PeekTime(), 100.0);
  q.Push(50.0);
  q.Push(75.0);
  EXPECT_EQ(q.queue().PeekTime(), 50.0);
  EXPECT_EQ(q.PopAndCheck(/*fire_next=*/false, 0), 50.0);
  EXPECT_EQ(q.PopAndCheck(/*fire_next=*/true, 1), 75.0);
  for (int i = 0; i < 200; ++i) {
    ASSERT_EQ(q.PopAndCheck(i % 2 == 1, 2 + i), 100.0 + i);
  }
  EXPECT_TRUE(q.queue().Empty());
}

TEST(EventQueueEquivalenceTest, EqualTimeOrderIsInsertionOrderAfterResizes) {
  // Push enough coincident events to force several calendar resizes; FIFO
  // order among equal times must survive every re-thread.
  EventQueue cal;
  static std::vector<int> fired_order;
  fired_order.clear();
  constexpr int kN = 5000;
  for (int i = 0; i < kN; ++i) {
    cal.Push(7.5, [i] { fired_order.push_back(i); });
  }
  while (!cal.Empty()) {
    cal.Pop().callback();
  }
  ASSERT_EQ(fired_order.size(), static_cast<size_t>(kN));
  for (int i = 0; i < kN; ++i) {
    EXPECT_EQ(fired_order[static_cast<size_t>(i)], i);
  }
}

TEST(EventQueueEquivalenceTest, CancelChurnKeepsCalendarEntriesBounded) {
  // Timer re-arming: lazily-cancelled nodes must be pruned, not accumulated
  // one per push.
  EventQueue q;
  int64_t pending = q.Push(1.0, [] {});
  for (int i = 0; i < 10000; ++i) {
    const int64_t next = q.Push(static_cast<double>(i + 2), [] {});
    EXPECT_TRUE(q.Cancel(pending));
    pending = next;
  }
  EXPECT_EQ(q.size(), 1);
  EXPECT_LE(q.entries(), 64 + 2);
  EXPECT_DOUBLE_EQ(q.Pop().time_ms, 10001.0);
  EXPECT_TRUE(q.Empty());
}

TEST(EventQueueEquivalenceTest, InterleavedOpenLoopPatternMatches) {
  // The experiment-runner shape: a large preloaded arrival population with
  // short-lived completions scheduled from each pop. Exercises the calendar
  // resize path (grow during preload, shrink during drain).
  Lockstep q;
  constexpr int kArrivals = 20000;
  double t = 0.0;
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> gap(0.01, 0.12);
  for (int i = 0; i < kArrivals; ++i) {
    t += gap(rng);
    q.Push(t);
  }
  int popped = 0;
  while (!q.Empty()) {
    const double now = q.PopAndCheck(popped % 2 == 1, popped);
    ASSERT_FALSE(::testing::Test::HasFailure()) << "diverged at pop " << popped;
    // Every third pop models a dispatch: schedule a completion slightly
    // ahead, which lands near the calendar's current bucket cursor.
    if (++popped % 3 == 0) {
      q.Push(now + 0.05);
    }
  }
  EXPECT_TRUE(q.queue().Empty());
}

}  // namespace
}  // namespace mstk
