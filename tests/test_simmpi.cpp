// SimMPI tests: point-to-point semantics, collectives vs. analytic
// expectations across world sizes (incl. non-powers of two), byte
// accounting, exception propagation, and the nonblocking allreduce —
// including fuzzed adversarial completion orders through the test-only
// scheduler hook, which must never change the bit pattern of the result.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "core/threadpool.hpp"
#include "dist/simmpi.hpp"

namespace d500 {
namespace {

/// Per-rank deterministic random vector (same across both worlds of a
/// comparison, different across ranks and buckets).
std::vector<float> random_vec(std::size_t len, int rank, int salt) {
  std::mt19937 rng(static_cast<unsigned>(9000 + 131 * rank + salt));
  std::uniform_real_distribution<float> dist(-2.0f, 2.0f);
  std::vector<float> v(len);
  for (auto& x : v) x = dist(rng);
  return v;
}

TEST(SimMpi, SendRecvDeliversData) {
  SimMpi world(2);
  world.run([](Communicator& c) {
    std::vector<float> buf{1.0f, 2.0f, 3.0f};
    if (c.rank() == 0) {
      c.send(1, buf, 7);
    } else {
      std::vector<float> out(3);
      c.recv(0, out, 7);
      EXPECT_EQ(out, (std::vector<float>{1.0f, 2.0f, 3.0f}));
    }
  });
  EXPECT_EQ(world.bytes_sent(0), 12u);
  EXPECT_EQ(world.bytes_sent(1), 0u);
  EXPECT_EQ(world.messages_sent(0), 1u);
}

TEST(SimMpi, TagsKeepMessagesApart) {
  SimMpi world(2);
  world.run([](Communicator& c) {
    if (c.rank() == 0) {
      std::vector<float> a{1.0f}, b{2.0f};
      c.send(1, a, 1);
      c.send(1, b, 2);
    } else {
      std::vector<float> out(1);
      c.recv(0, out, 2);  // request tag 2 first
      EXPECT_EQ(out[0], 2.0f);
      c.recv(0, out, 1);
      EXPECT_EQ(out[0], 1.0f);
    }
  });
}

TEST(SimMpi, BarrierSynchronizes) {
  SimMpi world(4);
  std::atomic<int> before{0}, after{0};
  world.run([&](Communicator& c) {
    ++before;
    c.barrier();
    EXPECT_EQ(before.load(), 4);
    ++after;
  });
  EXPECT_EQ(after.load(), 4);
}

class CollectiveWorlds : public ::testing::TestWithParam<int> {};

TEST_P(CollectiveWorlds, BcastFromEveryRoot) {
  const int n = GetParam();
  SimMpi world(n);
  for (int root = 0; root < n; ++root) {
    world.run([&](Communicator& c) {
      std::vector<float> data(5, c.rank() == root ? 42.0f : 0.0f);
      c.bcast(data, root);
      for (float v : data) EXPECT_EQ(v, 42.0f) << "rank " << c.rank();
    });
  }
}

TEST_P(CollectiveWorlds, ReduceSumsToRoot) {
  const int n = GetParam();
  SimMpi world(n);
  world.run([&](Communicator& c) {
    std::vector<float> data{static_cast<float>(c.rank() + 1)};
    c.reduce_sum(data, 0);
    if (c.rank() == 0)
      EXPECT_FLOAT_EQ(data[0], static_cast<float>(n * (n + 1) / 2));
  });
}

TEST_P(CollectiveWorlds, RingAllreduceMatchesExpectation) {
  const int n = GetParam();
  SimMpi world(n);
  world.run([&](Communicator& c) {
    // Vector longer than the world size so chunks are uneven.
    std::vector<float> data(13);
    for (std::size_t i = 0; i < data.size(); ++i)
      data[i] = static_cast<float>(c.rank() * 100 + static_cast<int>(i));
    c.allreduce_sum_ring(data);
    for (std::size_t i = 0; i < data.size(); ++i) {
      const float expected =
          static_cast<float>(100 * (n * (n - 1) / 2) + n * static_cast<int>(i));
      ASSERT_FLOAT_EQ(data[i], expected) << "rank " << c.rank() << " i=" << i;
    }
  });
}

TEST_P(CollectiveWorlds, RecursiveDoublingAllreduceMatchesRing) {
  const int n = GetParam();
  SimMpi world(n);
  world.run([&](Communicator& c) {
    std::vector<float> a(7), b(7);
    for (std::size_t i = 0; i < a.size(); ++i)
      a[i] = b[i] = static_cast<float>((c.rank() + 1) * (i + 1));
    c.allreduce_sum_ring(a);
    c.allreduce_sum_rd(b);
    for (std::size_t i = 0; i < a.size(); ++i)
      ASSERT_NEAR(a[i], b[i], 1e-3f);
  });
}

TEST_P(CollectiveWorlds, AllgatherAssemblesChunks) {
  const int n = GetParam();
  SimMpi world(n);
  world.run([&](Communicator& c) {
    std::vector<float> chunk{static_cast<float>(c.rank()),
                             static_cast<float>(c.rank() * 10)};
    std::vector<float> out(static_cast<std::size_t>(2 * n));
    c.allgather(chunk, out);
    for (int r = 0; r < n; ++r) {
      ASSERT_FLOAT_EQ(out[static_cast<std::size_t>(2 * r)], r);
      ASSERT_FLOAT_EQ(out[static_cast<std::size_t>(2 * r + 1)], r * 10);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Worlds, CollectiveWorlds,
                         ::testing::Values(1, 2, 3, 4, 5, 8),
                         [](const auto& info) {
                           return "n" + std::to_string(info.param);
                         });

TEST(SimMpi, RingAllreduceByteAccounting) {
  // Ring allreduce wire volume per rank = 2 * (n-1)/n * bytes (within
  // chunk-rounding of the uneven split).
  const int n = 4;
  const std::size_t elems = 1024;
  SimMpi world(n);
  world.run([&](Communicator& c) {
    std::vector<float> data(elems, 1.0f);
    c.allreduce_sum_ring(data);
  });
  const double expected = 2.0 * (n - 1) / n * elems * sizeof(float);
  for (int r = 0; r < n; ++r) {
    EXPECT_NEAR(static_cast<double>(world.bytes_sent(r)), expected,
                expected * 0.05)
        << "rank " << r;
  }
}

TEST(SimMpi, RdAllreduceSendsLogRounds) {
  const int n = 8;
  const std::size_t elems = 256;
  SimMpi world(n);
  world.run([&](Communicator& c) {
    std::vector<float> data(elems, 1.0f);
    c.allreduce_sum_rd(data);
  });
  // Power-of-two world: log2(n)=3 full-vector sends per rank.
  for (int r = 0; r < n; ++r)
    EXPECT_EQ(world.bytes_sent(r), 3 * elems * sizeof(float));
}

TEST_P(CollectiveWorlds, IallreduceMatchesBlockingRingBitwise) {
  const int n = GetParam();
  // Uneven chunking on purpose (13 % n != 0 for most n).
  for (const std::size_t len : {std::size_t{1}, std::size_t{13},
                                std::size_t{257}}) {
    SimMpi world(n);
    world.run([&](Communicator& c) {
      std::vector<float> blocking = random_vec(len, c.rank(), 0);
      std::vector<float> nonblocking = blocking;
      c.allreduce_sum_ring(blocking);
      AllreduceRequest req = c.iallreduce_sum(nonblocking);
      c.wait(req);
      EXPECT_FALSE(req.valid());
      for (std::size_t i = 0; i < len; ++i)
        ASSERT_EQ(blocking[i], nonblocking[i])
            << "rank " << c.rank() << " len " << len << " i=" << i;
    });
  }
}

TEST_P(CollectiveWorlds, IallreduceManyInFlightDrainedInAnyOrder) {
  const int n = GetParam();
  constexpr int kBuckets = 5;
  const std::size_t sizes[kBuckets] = {7, 64, 1, 129, 32};
  SimMpi world(n);
  world.run([&](Communicator& c) {
    std::vector<std::vector<float>> expected(kBuckets), got(kBuckets);
    for (int b = 0; b < kBuckets; ++b) {
      expected[b] = random_vec(sizes[b], c.rank(), b + 1);
      got[b] = expected[b];
      c.allreduce_sum_ring(expected[b]);
    }
    std::vector<AllreduceRequest> reqs(kBuckets);
    for (int b = 0; b < kBuckets; ++b)
      reqs[b] = c.iallreduce_sum(got[b], /*tag=*/b);
    // Drain back-to-front: completion must not depend on wait order.
    for (int b = kBuckets - 1; b >= 0; --b) c.wait(reqs[b]);
    for (int b = 0; b < kBuckets; ++b)
      for (std::size_t i = 0; i < sizes[b]; ++i)
        ASSERT_EQ(expected[b][i], got[b][i])
            << "rank " << c.rank() << " bucket " << b << " i=" << i;
  });
}

TEST(SimMpi, IallreduceTagMatchingIgnoresLaunchOrder) {
  // Matching is (tag, per-tag sequence): ranks may launch tags in
  // different orders without cross-matching buffers.
  const int n = 4;
  SimMpi world(n);
  world.run([&](Communicator& c) {
    std::vector<float> a(11), b(11);
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = static_cast<float>(c.rank() + 1);
      b[i] = static_cast<float>(10 * (c.rank() + 1));
    }
    AllreduceRequest ra, rb;
    if (c.rank() % 2 == 0) {
      ra = c.iallreduce_sum(a, /*tag=*/1);
      rb = c.iallreduce_sum(b, /*tag=*/2);
    } else {
      rb = c.iallreduce_sum(b, /*tag=*/2);
      ra = c.iallreduce_sum(a, /*tag=*/1);
    }
    c.wait(ra);
    c.wait(rb);
    for (std::size_t i = 0; i < a.size(); ++i) {
      ASSERT_FLOAT_EQ(a[i], static_cast<float>(n * (n + 1) / 2));
      ASSERT_FLOAT_EQ(b[i], static_cast<float>(10 * n * (n + 1) / 2));
    }
  });
}

TEST(SimMpi, IallreduceByteAccountingMatchesBlockingRingExactly) {
  for (const int n : {2, 3, 4, 5}) {
    for (const std::size_t elems : {std::size_t{17}, std::size_t{1024}}) {
      SimMpi blocking_world(n), nonblocking_world(n);
      blocking_world.run([&](Communicator& c) {
        std::vector<float> data(elems, 1.0f);
        c.allreduce_sum_ring(data);
      });
      nonblocking_world.run([&](Communicator& c) {
        std::vector<float> data(elems, 1.0f);
        AllreduceRequest req = c.iallreduce_sum(data);
        c.wait(req);
      });
      for (int r = 0; r < n; ++r) {
        EXPECT_EQ(blocking_world.bytes_sent(r),
                  nonblocking_world.bytes_sent(r))
            << "n=" << n << " elems=" << elems << " rank " << r;
        EXPECT_EQ(blocking_world.messages_sent(r),
                  nonblocking_world.messages_sent(r))
            << "n=" << n << " elems=" << elems << " rank " << r;
      }
    }
  }
}

TEST(SimMpi, IallreduceFuzzAdversarialCompletionOrder) {
  // Random worlds, random bucket counts and sizes, and completion tasks
  // executed in a shuffled order on one rank's thread instead of the
  // thread pool: results must stay bit-identical to the blocking ring
  // path no matter when or where completions run.
  for (unsigned trial = 0; trial < 8; ++trial) {
    std::mt19937 rng(777 + trial);
    const int n = std::uniform_int_distribution<int>(2, 5)(rng);
    const int buckets = std::uniform_int_distribution<int>(1, 6)(rng);
    std::vector<std::size_t> sizes(static_cast<std::size_t>(buckets));
    for (auto& s : sizes)
      s = static_cast<std::size_t>(
          std::uniform_int_distribution<int>(1, 300)(rng));

    // Reference results from the blocking path.
    std::vector<std::vector<std::vector<float>>> expected(
        static_cast<std::size_t>(n));
    SimMpi ref_world(n);
    ref_world.run([&](Communicator& c) {
      auto& mine = expected[static_cast<std::size_t>(c.rank())];
      mine.resize(static_cast<std::size_t>(buckets));
      for (int b = 0; b < buckets; ++b) {
        mine[static_cast<std::size_t>(b)] = random_vec(
            sizes[static_cast<std::size_t>(b)], c.rank(),
            static_cast<int>(trial * 100) + b);
        c.allreduce_sum_ring(mine[static_cast<std::size_t>(b)]);
      }
    });

    SimMpi world(n);
    std::mutex mu;
    std::vector<std::function<void()>> captured;
    world.set_completion_scheduler([&](std::function<void()> task) {
      std::lock_guard<std::mutex> lock(mu);
      captured.push_back(std::move(task));
    });
    const unsigned shuffle_seed = rng();
    world.run([&](Communicator& c) {
      std::vector<std::vector<float>> data(static_cast<std::size_t>(buckets));
      std::vector<AllreduceRequest> reqs(static_cast<std::size_t>(buckets));
      for (int b = 0; b < buckets; ++b) {
        data[static_cast<std::size_t>(b)] = random_vec(
            sizes[static_cast<std::size_t>(b)], c.rank(),
            static_cast<int>(trial * 100) + b);
        reqs[static_cast<std::size_t>(b)] = c.iallreduce_sum(
            data[static_cast<std::size_t>(b)], /*tag=*/b);
      }
      // All ranks have joined every collective after this barrier, so all
      // completion tasks are captured; rank 0 runs them shuffled.
      c.barrier();
      if (c.rank() == 0) {
        std::lock_guard<std::mutex> lock(mu);
        EXPECT_EQ(captured.size(), static_cast<std::size_t>(buckets));
        std::shuffle(captured.begin(), captured.end(),
                     std::mt19937(shuffle_seed));
        for (auto& task : captured) task();
        captured.clear();
      }
      for (int b = 0; b < buckets; ++b) c.wait(reqs[static_cast<std::size_t>(b)]);
      const auto& mine = expected[static_cast<std::size_t>(c.rank())];
      for (int b = 0; b < buckets; ++b)
        for (std::size_t i = 0; i < sizes[static_cast<std::size_t>(b)]; ++i)
          ASSERT_EQ(mine[static_cast<std::size_t>(b)][i],
                    data[static_cast<std::size_t>(b)][i])
              << "trial " << trial << " rank " << c.rank() << " bucket " << b
              << " i=" << i;
    });
  }
}

TEST(SimMpi, IallreduceWaitStressLosesNoWakeup) {
  // Many short launch/wait pairs: each completion races its waiters'
  // check-then-sleep. A completion published outside the pool lock can
  // slip between the two and leave a rank asleep forever, so this test
  // hangs (and the ctest TIMEOUT fails it) unless every wake-up lands.
  const int pool_before = ThreadPool::instance().num_threads();
  for (int threads : {1, 2}) {
    ThreadPool::instance().reset(threads);
    SimMpi world(2);
    world.run([](Communicator& c) {
      std::vector<float> v(4);
      for (int it = 0; it < 40000; ++it) {
        std::fill(v.begin(), v.end(), static_cast<float>(c.rank() + 1));
        AllreduceRequest req = c.iallreduce_sum(v);
        c.wait(req);
        ASSERT_EQ(v[3], 3.0f) << "iteration " << it;
      }
    });
  }
  ThreadPool::instance().reset(pool_before);
}

TEST(SimMpi, WaitOnEmptyRequestIsNoop) {
  SimMpi world(2);
  world.run([](Communicator& c) {
    AllreduceRequest req;
    EXPECT_FALSE(req.valid());
    c.wait(req);  // no-op
    EXPECT_TRUE(c.test(req));
    std::vector<float> v{1.0f, 2.0f};
    AllreduceRequest live = c.iallreduce_sum(v);
    c.wait(live);
    c.wait(live);  // idempotent
    EXPECT_FLOAT_EQ(v[0], 2.0f);
    EXPECT_FLOAT_EQ(v[1], 4.0f);
  });
}

TEST(SimMpi, IallreduceSizeMismatchThrows) {
  // The second rank to join a collective with a different buffer size
  // throws; nobody waits (the op can never complete).
  SimMpi world(2);
  EXPECT_THROW(world.run([](Communicator& c) {
                 std::vector<float> v(c.rank() == 0 ? 4 : 5, 1.0f);
                 AllreduceRequest req = c.iallreduce_sum(v);
               }),
               Error);
}

TEST(SimMpi, ExceptionsPropagate) {
  SimMpi world(2);
  EXPECT_THROW(world.run([](Communicator& c) {
                 if (c.rank() == 1) throw Error("rank 1 boom");
               }),
               Error);
}

TEST(SimMpi, ResetCounters) {
  SimMpi world(2);
  world.run([](Communicator& c) {
    std::vector<float> v{1.0f};
    if (c.rank() == 0) c.send(1, v);
    else c.recv(0, v);
  });
  EXPECT_GT(world.total_bytes_sent(), 0u);
  world.reset_counters();
  EXPECT_EQ(world.total_bytes_sent(), 0u);
}

// ---- fault injection: adversarial retry / timeout / abort cases -------------
//
// The injector's drop schedule is a pure function of (seed, src, send
// index, attempt), so a mirror injector built from the same plan replays
// the exact retransmission history SimMpi will see — letting these tests
// assert wire bytes, message counts, and injected delay to the byte.

struct DropProbe {
  std::vector<int> drops;        // per delivered send, in send order
  bool undeliverable = false;    // probe stopped at an exhausted message
};

/// Replays rank 0's send schedule until `limit` sends or the first
/// undeliverable message (whose index is drops.size()).
DropProbe probe_drops(const FaultPlan& plan, int limit) {
  FaultInjector probe(plan, 2);
  DropProbe out;
  for (int i = 0; i < limit; ++i) {
    try {
      out.drops.push_back(probe.on_send(0, 1, 0, 16));
    } catch (const Error&) {
      out.undeliverable = true;
      break;
    }
  }
  return out;
}

TEST(SimMpiFaults, RetryDeliveredExactlyAtDeadline) {
  // A message whose drop count equals max_retries is delivered on the very
  // last permitted attempt — data intact, every attempt on the wire, and
  // the full retry timeout charged as virtual delay.
  FaultPlan plan;
  plan.enabled = true;
  plan.drop_prob = 0.5;
  plan.max_retries = 2;
  plan.retry_timeout_us = 7;
  int deadline = -1;
  for (std::uint64_t seed = 1; seed <= 40 && deadline < 0; ++seed) {
    plan.seed = seed;
    const DropProbe probe = probe_drops(plan, 64);
    for (std::size_t i = 0; i < probe.drops.size(); ++i)
      if (probe.drops[i] == plan.max_retries) {
        deadline = static_cast<int>(i);
        break;
      }
  }
  ASSERT_GE(deadline, 0) << "no seed produced a deadline delivery";
  const DropProbe probe = probe_drops(plan, deadline + 1);
  const int sends = deadline + 1;

  SimMpi world(2);
  world.set_fault_plan(plan);
  world.run([&](Communicator& c) {
    for (int i = 0; i < sends; ++i) {
      std::vector<float> msg{static_cast<float>(i), static_cast<float>(2 * i),
                             -1.0f, 0.5f};
      if (c.rank() == 0) {
        c.send(1, msg);
      } else {
        std::vector<float> got(4);
        c.recv(0, got);
        EXPECT_EQ(got, msg) << "send " << i;
      }
    }
  });

  std::uint64_t attempts = 0, dropped = 0;
  for (int d : probe.drops) {
    attempts += static_cast<std::uint64_t>(d) + 1;
    dropped += static_cast<std::uint64_t>(d);
  }
  EXPECT_EQ(world.bytes_sent(0), attempts * 16u);
  EXPECT_EQ(world.messages_sent(0), attempts);
  EXPECT_EQ(world.fault_injector().drops(), dropped);
  EXPECT_EQ(world.fault_injector().delay_us_injected(),
            dropped * static_cast<std::uint64_t>(plan.retry_timeout_us));
}

TEST(SimMpiFaults, UndeliverableMessageThrowsWithExactAccounting) {
  // Dropped on the initial attempt and every retry: the send throws Error
  // after charging all max_retries + 1 attempts — they all went on the
  // wire; only the delivery never happened.
  FaultPlan plan;
  plan.enabled = true;
  plan.drop_prob = 0.8;
  plan.max_retries = 1;
  plan.seed = 2;
  DropProbe probe = probe_drops(plan, 256);
  for (std::uint64_t seed = 2; !probe.undeliverable && seed <= 40; ++seed) {
    plan.seed = seed;
    probe = probe_drops(plan, 256);
  }
  ASSERT_TRUE(probe.undeliverable) << "no seed produced an undeliverable send";
  const int delivered = static_cast<int>(probe.drops.size());

  SimMpi world(2);
  world.set_fault_plan(plan);
  EXPECT_THROW(world.run([&](Communicator& c) {
                 if (c.rank() == 0) {
                   std::vector<float> msg(4, 1.0f);
                   for (int i = 0; i <= delivered; ++i) c.send(1, msg);
                 } else {
                   std::vector<float> got(4);
                   for (int i = 0; i < delivered; ++i) c.recv(0, got);
                 }
               }),
               Error);

  std::uint64_t attempts = 0;
  for (int d : probe.drops) attempts += static_cast<std::uint64_t>(d) + 1;
  // The exhausted message itself: initial attempt + max_retries retries.
  attempts += static_cast<std::uint64_t>(plan.max_retries) + 1;
  EXPECT_EQ(world.bytes_sent(0), attempts * 16u);
  EXPECT_EQ(world.messages_sent(0), attempts);
}

TEST(SimMpiFaults, ScheduledAbortMidCollectiveRevokesPeersAndRecovers) {
  // Rank 1 dies at its second send — inside the allgather phase of a ring
  // allreduce. The peer must not deadlock: revocation wakes it with
  // RankFailure. After clear_mailboxes, the retried collective runs clean
  // (the per-rank send counter moved past the scheduled abort) and every
  // partial message of the aborted attempt was charged exactly once.
  FaultPlan plan;
  plan.enabled = true;
  plan.abort_sends.emplace_back(1, 1);
  SimMpi world(2);
  world.set_fault_plan(plan);

  auto attempt = [&world] {
    world.run([](Communicator& c) {
      std::vector<float> v = c.rank() == 0
                                 ? std::vector<float>{1, 2, 3, 4}
                                 : std::vector<float>{10, 20, 30, 40};
      c.allreduce_sum_ring(v);
      EXPECT_EQ(v, (std::vector<float>{11, 22, 33, 44})) << "rank " << c.rank();
    });
  };
  EXPECT_THROW(attempt(), RankFailure);
  // World 2, 4 floats: 2 chunks of 8 bytes. Rank 1 delivered its
  // reduce-scatter chunk then aborted; rank 0 finished reduce-scatter and
  // posted its allgather chunk before blocking on rank 1's.
  EXPECT_EQ(world.bytes_sent(1), 8u);
  EXPECT_EQ(world.bytes_sent(0), 16u);

  world.clear_mailboxes();
  attempt();  // the scheduled abort fired once; the retry must complete
  EXPECT_EQ(world.bytes_sent(1), 8u + 16u);
  EXPECT_EQ(world.bytes_sent(0), 16u + 16u);
  EXPECT_EQ(world.messages_sent(0), 4u);
  EXPECT_EQ(world.messages_sent(1), 3u);
}

}  // namespace
}  // namespace d500
