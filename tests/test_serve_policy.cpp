// Adaptive batching policy, per-client quota accounting, BatchKey sharding
// and the policy block of the stats body.
//
// The policy tests drive AdaptivePolicy with synthetic BatchObservation
// traces — no server, no clocks — so the state machine's transitions are
// asserted deterministically: convergence under bursty load, bypass
// engagement under uniform sparse load, and the no-flap hysteresis bound
// under an adversarial alternating trace.

#include <gtest/gtest.h>

#include <chrono>
#include <set>
#include <vector>

#include "fsi/serve/policy.hpp"
#include "fsi/serve/protocol.hpp"
#include "fsi/serve/queue.hpp"
#include "fsi/serve/shard.hpp"
#include "fsi/util/check.hpp"

namespace {

using namespace fsi;
using namespace fsi::serve;

AdaptiveConfig test_config() {
  AdaptiveConfig c;
  c.enabled = true;
  c.window_ceiling_us = 2000;
  c.window_floor_us = 50;
  c.max_batch_ceiling = 8;
  c.bypass_after = 4;
  c.resume_after = 3;
  return c;
}

BatchKey key_a() { return BatchKey{4, 1, 8, 2, 1.0, 2.0, 1.0}; }

/// A losing window: one request dispatched alone after paying 2 ms of
/// straggler wait on a 1 ms solo execution.
BatchObservation losing() {
  BatchObservation o;
  o.batch_size = 1;
  o.queue_depth_after = 0;
  o.window_wait_ns = 2'000'000;
  o.exec_ns = 1'000'000;
  return o;
}

/// A winning batch: four requests amortised one engine run.
BatchObservation winning() {
  BatchObservation o;
  o.batch_size = 4;
  o.queue_depth_after = 1;
  o.window_wait_ns = 100'000;
  o.exec_ns = 1'200'000;
  return o;
}

/// A neutral dispatch: alone, but the window was never charged (the batch
/// filled / arrived into an empty window).
BatchObservation neutral() {
  BatchObservation o;
  o.batch_size = 1;
  o.queue_depth_after = 0;
  o.window_wait_ns = 0;
  o.exec_ns = 1'000'000;
  return o;
}

/// A bypass-mode dispatch that left same-key work queued behind it.
BatchObservation backlogged() {
  BatchObservation o;
  o.batch_size = 1;
  o.queue_depth_after = 3;
  o.window_wait_ns = 0;
  o.exec_ns = 1'000'000;
  return o;
}

// ---------------------------------------------------------------------------
// Policy state machine

TEST(ServePolicy, UnseenKeyPlansAtCeilings) {
  AdaptivePolicy p(test_config());
  const BatchPlan plan = p.plan(key_a());
  EXPECT_EQ(plan.window.count(), 2000);
  EXPECT_EQ(plan.max_batch, 8u);
}

TEST(ServePolicy, DisabledPolicyAlwaysPlansCeilings) {
  AdaptiveConfig c = test_config();
  c.enabled = false;
  AdaptivePolicy p(c);
  for (int i = 0; i < 10; ++i) p.observe(key_a(), losing());
  const BatchPlan plan = p.plan(key_a());
  EXPECT_EQ(plan.window.count(), 2000);
  EXPECT_EQ(plan.max_batch, 8u);
  EXPECT_EQ(p.bypass_enters(), 0u);
}

TEST(ServePolicy, BurstyTraceStaysAtCeilings) {
  AdaptivePolicy p(test_config());
  for (int i = 0; i < 20; ++i) p.observe(key_a(), winning());
  const KeyPolicy s = p.state(key_a());
  EXPECT_FALSE(s.bypass);
  EXPECT_EQ(s.window_us, 2000);
  EXPECT_EQ(s.max_batch, 8u);
  EXPECT_GT(s.ema_occupancy, 3.0);
  EXPECT_EQ(p.bypass_enters(), 0u);
}

TEST(ServePolicy, LosingWindowsHalveThenBypass) {
  AdaptivePolicy p(test_config());
  p.observe(key_a(), losing());
  EXPECT_EQ(p.state(key_a()).window_us, 1000);
  p.observe(key_a(), losing());
  EXPECT_EQ(p.state(key_a()).window_us, 500);
  p.observe(key_a(), losing());
  EXPECT_EQ(p.state(key_a()).window_us, 250);
  EXPECT_FALSE(p.state(key_a()).bypass);
  p.observe(key_a(), losing());  // 4th consecutive loss: bypass engages
  const KeyPolicy s = p.state(key_a());
  EXPECT_TRUE(s.bypass);
  EXPECT_EQ(p.bypass_enters(), 1u);
  const BatchPlan plan = p.plan(key_a());
  EXPECT_EQ(plan.window.count(), 0);
  EXPECT_EQ(plan.max_batch, 1u);
}

TEST(ServePolicy, MeasuredSpeedupBelowOneInLosingTrace) {
  AdaptivePolicy p(test_config());
  // Seed the solo baseline (neutral size-1 dispatches), then lose.
  for (int i = 0; i < 5; ++i) p.observe(key_a(), neutral());
  for (int i = 0; i < 3; ++i) p.observe(key_a(), losing());
  const KeyPolicy s = p.state(key_a());
  EXPECT_GT(s.speedup, 0.0);
  EXPECT_LT(s.speedup, 1.0);
}

TEST(ServePolicy, MeasuredSpeedupAboveOneInWinningTrace) {
  AdaptivePolicy p(test_config());
  for (int i = 0; i < 5; ++i) p.observe(key_a(), neutral());
  for (int i = 0; i < 10; ++i) p.observe(key_a(), winning());
  EXPECT_GT(p.state(key_a()).speedup, 1.0);
}

TEST(ServePolicy, NeutralDispatchBreaksLoseStreak) {
  AdaptivePolicy p(test_config());
  for (int i = 0; i < 3; ++i) p.observe(key_a(), losing());
  p.observe(key_a(), neutral());  // streak resets
  for (int i = 0; i < 3; ++i) p.observe(key_a(), losing());
  EXPECT_EQ(p.bypass_enters(), 0u);
  EXPECT_FALSE(p.state(key_a()).bypass);
  p.observe(key_a(), losing());  // now 4 consecutive
  EXPECT_EQ(p.bypass_enters(), 1u);
}

TEST(ServePolicy, AdversarialAlternationNeverFlaps) {
  // Alternating win/lose can never build a 4-streak: zero transitions.
  AdaptivePolicy p(test_config());
  for (int i = 0; i < 200; ++i)
    p.observe(key_a(), i % 2 == 0 ? losing() : winning());
  EXPECT_EQ(p.bypass_enters(), 0u);
  EXPECT_EQ(p.bypass_exits(), 0u);
  EXPECT_FALSE(p.state(key_a()).bypass);
}

TEST(ServePolicy, BypassExitsOnSustainedBacklogWithSlowStart) {
  AdaptivePolicy p(test_config());
  for (int i = 0; i < 4; ++i) p.observe(key_a(), losing());
  ASSERT_TRUE(p.state(key_a()).bypass);

  // Alternating backlog / idle never reaches resume_after = 3.
  for (int i = 0; i < 20; ++i)
    p.observe(key_a(), i % 2 == 0 ? backlogged() : neutral());
  EXPECT_TRUE(p.state(key_a()).bypass);

  // Three consecutive backlogged dispatches exit bypass.
  for (int i = 0; i < 3; ++i) p.observe(key_a(), backlogged());
  const KeyPolicy s = p.state(key_a());
  EXPECT_FALSE(s.bypass);
  EXPECT_EQ(s.window_us, 50);   // slow start at the floor
  EXPECT_EQ(s.max_batch, 8u);   // full coalescing capacity for the backlog
  EXPECT_EQ(p.bypass_exits(), 1u);
}

TEST(ServePolicy, WindowRecoversByDoublingAfterExit) {
  AdaptivePolicy p(test_config());
  for (int i = 0; i < 4; ++i) p.observe(key_a(), losing());
  for (int i = 0; i < 3; ++i) p.observe(key_a(), backlogged());
  ASSERT_EQ(p.state(key_a()).window_us, 50);
  p.observe(key_a(), winning());
  EXPECT_EQ(p.state(key_a()).window_us, 100);
  for (int i = 0; i < 10; ++i) p.observe(key_a(), winning());
  EXPECT_EQ(p.state(key_a()).window_us, 2000);  // clamped at the ceiling
}

TEST(ServePolicy, PerKeyStateIsIndependent) {
  AdaptivePolicy p(test_config());
  BatchKey b = key_a();
  b.beta = 4.0;
  for (int i = 0; i < 4; ++i) p.observe(key_a(), losing());
  EXPECT_TRUE(p.state(key_a()).bypass);
  EXPECT_FALSE(p.state(b).bypass);
  EXPECT_EQ(p.plan(b).window.count(), 2000);
}

TEST(ServePolicy, KeyTableIsLruBounded) {
  AdaptiveConfig c = test_config();
  c.max_keys = 4;
  AdaptivePolicy p(c);
  for (int i = 0; i < 6; ++i) {
    BatchKey k = key_a();
    k.beta = 1.0 + i;
    p.observe(k, winning());
  }
  EXPECT_EQ(p.keys(), 4u);
  // The oldest key fell out: it plans fresh (at ceilings), not from state.
  BatchKey oldest = key_a();
  oldest.beta = 1.0;
  EXPECT_EQ(p.state(oldest).batches, 0u);
}

TEST(ServePolicy, ActiveStateTracksLastObservedKey) {
  AdaptivePolicy p(test_config());
  BatchKey b = key_a();
  b.beta = 4.0;
  for (int i = 0; i < 4; ++i) p.observe(key_a(), losing());
  p.observe(b, winning());
  EXPECT_FALSE(p.active_state().bypass);  // b, not the bypassed key_a
  p.observe(key_a(), neutral());
  EXPECT_TRUE(p.active_state().bypass);
}

// ---------------------------------------------------------------------------
// AdmissionQueue per-client quota

PendingRequest quota_request(std::uint64_t id, std::uint64_t client) {
  PendingRequest p;
  p.request.id = id;
  p.client_id = client;
  return p;
}

TEST(ServeQuota, OverQuotaClientIsRejectedOthersAdmitted) {
  AdmissionQueue q(8, 2);
  EXPECT_EQ(q.admit(quota_request(1, 1)), Admit::Ok);
  EXPECT_EQ(q.admit(quota_request(2, 1)), Admit::Ok);
  EXPECT_EQ(q.admit(quota_request(3, 1)), Admit::OverQuota);
  EXPECT_EQ(q.client_depth(1), 2u);
  // A different client still gets in: the quota is the fairness mechanism.
  EXPECT_EQ(q.admit(quota_request(4, 2)), Admit::Ok);
  EXPECT_EQ(q.depth(), 3u);
}

TEST(ServeQuota, UnattributedRequestsAreNeverQuotaLimited) {
  AdmissionQueue q(8, 1);
  for (std::uint64_t i = 0; i < 5; ++i)
    EXPECT_EQ(q.admit(quota_request(i, 0)), Admit::Ok);
}

TEST(ServeQuota, SlotsReleaseWhenBatchPops) {
  AdmissionQueue q(8, 2);
  ASSERT_EQ(q.admit(quota_request(1, 7)), Admit::Ok);
  ASSERT_EQ(q.admit(quota_request(2, 7)), Admit::Ok);
  ASSERT_EQ(q.admit(quota_request(3, 7)), Admit::OverQuota);
  const auto batch = q.next_batch(std::chrono::microseconds(0), 8);
  EXPECT_EQ(batch.size(), 2u);
  EXPECT_EQ(q.client_depth(7), 0u);
  EXPECT_EQ(q.admit(quota_request(4, 7)), Admit::Ok);
}

TEST(ServeQuota, FullQueueReportsFullNotQuota) {
  AdmissionQueue q(2, 8);
  EXPECT_EQ(q.admit(quota_request(1, 1)), Admit::Ok);
  EXPECT_EQ(q.admit(quota_request(2, 1)), Admit::Ok);
  EXPECT_EQ(q.admit(quota_request(3, 1)), Admit::Full);
}

TEST(ServeQuota, DrainClearsQuotaAccounting) {
  AdmissionQueue q(8, 1);
  ASSERT_EQ(q.admit(quota_request(1, 5)), Admit::Ok);
  ASSERT_EQ(q.admit(quota_request(2, 5)), Admit::OverQuota);
  const auto drained = q.drain();
  EXPECT_EQ(drained.size(), 1u);
  EXPECT_EQ(q.client_depth(5), 0u);
}

TEST(ServeQuota, PlannerReceivesTheOldestKeyAndItsPlanApplies) {
  AdmissionQueue q(8, 0);
  for (std::uint64_t i = 0; i < 3; ++i)
    ASSERT_EQ(q.admit(quota_request(i, 0)), Admit::Ok);
  BatchKey seen{};
  const auto batch = q.next_batch([&](const BatchKey& k) {
    seen = k;
    return BatchPlan{std::chrono::microseconds(0), 1};
  });
  EXPECT_EQ(batch.size(), 1u);  // the plan's max_batch bound held
  EXPECT_EQ(q.depth(), 2u);
  EXPECT_EQ(seen, quota_request(0, 0).key());
}

// ---------------------------------------------------------------------------
// BatchKey sharding

TEST(ServeShard, HashIsDeterministicAndKeySensitive) {
  const BatchKey a = key_a();
  BatchKey b = key_a();
  EXPECT_EQ(batch_key_hash(a), batch_key_hash(b));
  b.beta = 1.0000001;
  EXPECT_NE(batch_key_hash(a), batch_key_hash(b));
}

TEST(ServeShard, SingleReplicaAlwaysShardZero) {
  EXPECT_EQ(shard_for(key_a(), 0), 0u);
  EXPECT_EQ(shard_for(key_a(), 1), 0u);
}

TEST(ServeShard, KeysSpreadAcrossReplicas) {
  std::set<std::size_t> hit;
  for (int i = 0; i < 64; ++i) {
    BatchKey k = key_a();
    k.beta = 0.25 * (i + 1);
    hit.insert(shard_for(k, 4));
  }
  EXPECT_EQ(hit.size(), 4u);  // 64 keys certainly touch all 4 shards
  for (const std::size_t s : hit) EXPECT_LT(s, 4u);
}

TEST(ServeShard, RendezvousMinimalDisruptionOnShrink) {
  // Removing the last replica only remaps keys that lived on it: every key
  // whose winner among 3 replicas is 0 or 1 keeps that winner among 2.
  for (int i = 0; i < 256; ++i) {
    BatchKey k = key_a();
    k.u = 0.125 * i;
    const std::size_t with3 = shard_for(k, 3);
    if (with3 < 2) {
      EXPECT_EQ(shard_for(k, 2), with3);
    }
  }
}

// ---------------------------------------------------------------------------
// Policy block of the stats body

TEST(ServeStatsV3, RoundTripsPolicyBlock) {
  StatsResponse s;
  s.id = 99;
  s.admitted = 10;
  s.rejected_quota = 3;
  s.replicas = 2;
  s.adaptive_enabled = true;
  s.policy_keys = 5;
  s.policy_window_us = 125;
  s.policy_max_batch = 4;
  s.policy_bypass = true;
  s.policy_speedup = 0.47;
  s.bypass_enters = 2;
  s.bypass_exits = 1;
  const auto payload = encode_stats_response(s);
  const Decoded d = decode_payload(payload.data(), payload.size());
  ASSERT_EQ(d.type, MsgType::StatsResponse);
  EXPECT_EQ(d.stats.admitted, 10u);
  EXPECT_EQ(d.stats.rejected_quota, 3u);
  EXPECT_EQ(d.stats.replicas, 2u);
  EXPECT_TRUE(d.stats.adaptive_enabled);
  EXPECT_EQ(d.stats.policy_keys, 5u);
  EXPECT_EQ(d.stats.policy_window_us, 125);
  EXPECT_EQ(d.stats.policy_max_batch, 4u);
  EXPECT_TRUE(d.stats.policy_bypass);
  EXPECT_DOUBLE_EQ(d.stats.policy_speedup, 0.47);
  EXPECT_EQ(d.stats.bypass_enters, 2u);
  EXPECT_EQ(d.stats.bypass_exits, 1u);
}

}  // namespace
