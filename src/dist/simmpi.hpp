// SimMPI: an in-process message-passing substrate standing in for MPI
// (see DESIGN.md substitutions — the container has no MPI and one core).
//
// Ranks execute as threads; point-to-point messages travel through
// per-(src,dst,tag) queues with real data movement, and the collectives
// are implemented with the standard algorithms (binomial-tree broadcast
// and reduce, ring and recursive-doubling allreduce, ring allgather) on
// top of send/recv, so communication VOLUME is exact — the quantity the
// paper's CommunicationVolume metric reports (Fig. 12 caption) — even
// though wall-clock time on one core is not meaningful (timing comes from
// dist/netmodel.hpp instead).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "core/error.hpp"
#include "core/threadpool.hpp"
#include "dist/fault.hpp"

namespace d500 {

class Communicator;
class AllreduceRequest;

/// A world of `size` ranks. run() launches one thread per rank and joins.
class SimMpi {
 public:
  /// The world attaches a FaultInjector built from the D500_FAULTS env
  /// schedule (the all-no-op disabled plan when unset); every send routes
  /// through it unconditionally.
  explicit SimMpi(int size);

  int size() const { return size_; }

  /// Replaces the injector with a programmatic schedule (tests/benches).
  /// Call before run(); per-rank event counters restart from zero.
  void set_fault_plan(FaultPlan plan);
  FaultInjector& fault_injector() { return *injector_; }

  /// Drops every queued point-to-point message and forgets in-flight
  /// nonblocking collectives. Recovery support: after a RankFailure aborts
  /// a collective mid-flight, the orphaned partial messages must not
  /// cross-match a retried attempt. Only call between run() invocations.
  void clear_mailboxes();

  /// Runs `fn(comm)` on every rank concurrently. Exceptions thrown by any
  /// rank are captured and rethrown (first by rank order) after join.
  void run(const std::function<void(Communicator&)>& fn);

  /// Total bytes sent by each rank across all run() calls.
  std::uint64_t bytes_sent(int rank) const;
  std::uint64_t total_bytes_sent() const;
  /// Messages sent per rank.
  std::uint64_t messages_sent(int rank) const;
  void reset_counters();

  /// Test-only hook intercepting nonblocking-collective completion tasks.
  /// The default (empty) scheduler enqueues each completion onto the shared
  /// thread pool; a test can capture the closures instead and run them in
  /// an adversarial order — results must not depend on it. Completions left
  /// unexecuted deadlock wait(), exactly like a lost MPI message would.
  void set_completion_scheduler(std::function<void(std::function<void()>)> s);

 private:
  friend class Communicator;
  friend class AllreduceRequest;
  friend class EagerAllreduce;  // analytic wire charge for board rounds

  /// Shared state of one in-flight nonblocking allreduce: every rank's
  /// buffer span, registered on arrival. The last arrival schedules a
  /// single completion task that reduces with the blocking ring algorithm's
  /// exact arithmetic and fans the result out to every registered span
  /// (buffers must stay valid until wait(), as in MPI).
  struct CollectiveOp {
    int expected = 0;
    int arrived = 0;
    std::size_t len = 0;                 // element count (all ranks equal)
    std::vector<std::span<float>> bufs;  // indexed by rank
    Latch complete{1};  // counted down by the completion task
    // Keeps the op alive until its completion task has run.
    std::shared_ptr<CollectiveOp> self;
  };

  struct Message {
    std::vector<float> data;
  };
  struct Mailbox {
    std::mutex mu;
    std::condition_variable cv;
    std::map<std::pair<int, int>, std::deque<Message>> queues;  // (src, tag)
  };

  /// Marks the world revoked (a rank died mid-run): every blocked take /
  /// take_any / barrier wakes and throws RankFailure, so one rank's
  /// scheduled abort cannot deadlock its peers in a blocking collective —
  /// the ULFM MPI_Comm_revoke model. run() resets the flag on entry.
  void revoke();

  void post(int src, int dst, int tag, std::vector<float> data);
  Message take(int src, int dst, int tag);
  /// Wildcard receive: first queued message for `dst` on `tag` from any
  /// source, lowest source rank first when several wait. Blocks like take.
  std::pair<int, Message> take_any(int dst, int tag);
  /// Wire/message accounting for paths that do not move real point-to-point
  /// messages (nonblocking collectives, eager boards) but must charge what
  /// the equivalent algorithm would send.
  void charge(int rank, std::uint64_t bytes, std::uint64_t msgs);

  /// Rank `rank` joins nonblocking collective (tag, seq); returns the
  /// shared op. The last arrival schedules the completion task.
  std::shared_ptr<CollectiveOp> join_collective(int rank, int tag,
                                                std::uint64_t seq,
                                                std::span<float> data);
  /// Ring-equivalent reduction: for each ring chunk c, fold the ranks'
  /// contributions in cyclic order starting at rank c — the exact
  /// summation order (IEEE addition is commutative) of
  /// Communicator::allreduce_sum_ring — then fan the chunk out to every
  /// buffer. Bit-identical to the blocking path by construction.
  static void complete_allreduce(CollectiveOp& op);
  /// The completion task (ctx = the CollectiveOp): reduce, count down.
  static void run_completion(void* ctx, std::int64_t);

  int size_;
  std::vector<Mailbox> mailboxes_;  // one per destination rank

  // Nonblocking collectives in flight, keyed by (tag, per-tag sequence).
  // Entries are erased by the last arrival (waiters hold shared_ptrs).
  std::mutex coll_mu_;
  std::map<std::pair<int, std::uint64_t>, std::shared_ptr<CollectiveOp>>
      pending_colls_;
  std::function<void(std::function<void()>)> completion_scheduler_;

  // Barrier state (central counter, generation-based).
  std::mutex barrier_mu_;
  std::condition_variable barrier_cv_;
  int barrier_count_ = 0;
  std::uint64_t barrier_generation_ = 0;

  std::atomic<bool> revoked_{false};

  mutable std::mutex stats_mu_;
  std::vector<std::uint64_t> bytes_sent_;
  std::vector<std::uint64_t> msgs_sent_;

  std::unique_ptr<FaultInjector> injector_;
};

/// Per-rank handle (only valid inside SimMpi::run).
class Communicator {
 public:
  int rank() const { return rank_; }
  int size() const { return world_->size(); }

  /// Point-to-point. Data is copied (value semantics, like MPI buffers).
  void send(int dst, std::span<const float> data, int tag = 0);
  void recv(int src, std::span<float> out, int tag = 0);

  /// Wildcard receive (MPI_ANY_SOURCE): blocks for the first message on
  /// `tag` from any source; returns (source rank, payload). The
  /// parameter-server optimizer's service loop is built on this.
  std::pair<int, std::vector<float>> recv_any(int tag = 0);

  void barrier();

  /// Binomial-tree broadcast from root.
  void bcast(std::span<float> data, int root = 0);

  /// Binomial-tree reduction (sum) to root.
  void reduce_sum(std::span<float> data, int root = 0);

  /// Ring allreduce (reduce-scatter + allgather): the bandwidth-optimal
  /// algorithm, 2*(n-1)/n * bytes per rank.
  void allreduce_sum_ring(std::span<float> data);

  /// Recursive-doubling allreduce: log2(n) rounds of full-vector exchange
  /// (latency-optimal for small vectors). Non-power-of-two worlds fold the
  /// excess ranks first.
  void allreduce_sum_rd(std::span<float> data);

  /// Ring allgather: each rank contributes `chunk` elements; `out` is
  /// size*chunk, rank r's contribution at offset r*chunk.
  void allgather(std::span<const float> chunk, std::span<float> out);

  /// Nonblocking allreduce (sum). Returns immediately with a handle; the
  /// reduction runs as a single task on the shared thread pool once every
  /// rank has joined, so communication proceeds while the caller keeps
  /// computing. `data` must stay valid and untouched until wait()/test()
  /// reports completion, and holds the full sum afterwards. Matching is by
  /// (tag, per-tag call sequence): every rank's i-th iallreduce on a tag
  /// joins the same collective, so launch order across tags may differ
  /// between ranks. Results are bit-identical to allreduce_sum_ring on the
  /// same data, and byte/message accounting charges exactly what the
  /// blocking ring algorithm would send.
  AllreduceRequest iallreduce_sum(std::span<float> data, int tag = 0);

  /// Blocks until `req` completes. While blocked, the calling thread works
  /// the shared pool queue (it may execute other ranks' completion tasks —
  /// that is the single-core overlap story, and it also means wait() makes
  /// progress even on a pool with no workers). Idempotent: a second wait
  /// on the same handle returns immediately.
  void wait(AllreduceRequest& req);

  /// Nonblocking completion poll.
  bool test(const AllreduceRequest& req) const;

 private:
  friend class SimMpi;
  friend class EagerAllreduce;
  Communicator(SimMpi* world, int rank) : world_(world), rank_(rank) {}

  SimMpi* world_;
  int rank_;
  std::map<int, std::uint64_t> coll_seq_;  // per-tag iallreduce call count
};

/// Handle for a nonblocking collective (default-constructed = empty, and
/// wait() on it is a no-op). Movable, not copyable: exactly one owner
/// waits, like an MPI_Request.
class AllreduceRequest {
 public:
  AllreduceRequest() = default;
  AllreduceRequest(AllreduceRequest&&) = default;
  AllreduceRequest& operator=(AllreduceRequest&&) = default;
  AllreduceRequest(const AllreduceRequest&) = delete;
  AllreduceRequest& operator=(const AllreduceRequest&) = delete;

  bool valid() const { return op_ != nullptr; }

 private:
  friend class Communicator;
  std::shared_ptr<SimMpi::CollectiveOp> op_;
};

}  // namespace d500
