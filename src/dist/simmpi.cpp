#include "dist/simmpi.hpp"

#include <algorithm>
#include <thread>

#include "core/metrics_registry.hpp"
#include "core/threadpool.hpp"
#include "core/trace.hpp"

namespace d500 {

namespace {

/// Shared latency histogram for every blocking collective; the wire-volume
/// counter pairs with the per-rank trace curve.
Histogram& collective_hist() {
  static Histogram& h =
      MetricsRegistry::instance().histogram("mpi.collective_ns");
  return h;
}

Counter& wire_bytes_counter() {
  static Counter& c = MetricsRegistry::instance().counter("mpi.wire_bytes");
  return c;
}

/// Chunk boundaries of the ring allreduce (n nearly-equal chunks of a
/// `len`-element vector) — shared by the blocking algorithm and the
/// ring-equivalent accounting/reduction of the nonblocking path.
std::size_t ring_chunk_begin(std::size_t len, int n, int c) {
  return len * static_cast<std::size_t>(c) / static_cast<std::size_t>(n);
}
std::size_t ring_chunk_size(std::size_t len, int n, int c) {
  return ring_chunk_begin(len, n, c + 1) - ring_chunk_begin(len, n, c);
}

/// Bytes rank `r` sends in a blocking ring allreduce of `len` floats:
/// n-1 reduce-scatter chunks then n-1 allgather chunks.
std::uint64_t ring_send_bytes(int r, int n, std::size_t len) {
  std::uint64_t bytes = 0;
  for (int s = 0; s < n - 1; ++s) {
    bytes += ring_chunk_size(len, n, ((r - s) % n + n) % n);
    bytes += ring_chunk_size(len, n, ((r + 1 - s) % n + n) % n);
  }
  return bytes * sizeof(float);
}

}  // namespace

SimMpi::SimMpi(int size)
    : size_(size),
      mailboxes_(static_cast<std::size_t>(size)),
      bytes_sent_(static_cast<std::size_t>(size), 0),
      msgs_sent_(static_cast<std::size_t>(size), 0),
      injector_(std::make_unique<FaultInjector>(fault_plan_from_env(), size)) {
  D500_CHECK_MSG(size >= 1, "SimMpi world must have >= 1 rank");
}

void SimMpi::set_fault_plan(FaultPlan plan) {
  injector_ = std::make_unique<FaultInjector>(std::move(plan), size_);
}

void SimMpi::clear_mailboxes() {
  for (auto& box : mailboxes_) {
    std::lock_guard<std::mutex> lock(box.mu);
    box.queues.clear();
  }
  std::lock_guard<std::mutex> lock(coll_mu_);
  pending_colls_.clear();
}

void SimMpi::run(const std::function<void(Communicator&)>& fn) {
  revoked_.store(false, std::memory_order_relaxed);
  {
    // A revoked barrier may have left a partial count behind.
    std::lock_guard<std::mutex> lock(barrier_mu_);
    barrier_count_ = 0;
  }
  std::vector<std::thread> threads;
  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(size_));
  threads.reserve(static_cast<std::size_t>(size_));
  for (int r = 0; r < size_; ++r) {
    threads.emplace_back([this, &fn, &errors, r] {
      Communicator comm(this, r);
      try {
        fn(comm);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        revoke();
      }
    });
  }
  for (auto& t : threads) t.join();
  // Revocation makes the surviving ranks throw secondary RankFailures, so
  // the root cause is the first error that is NOT one — unless the fault
  // really was a scheduled RankFailure, in which case every capture is one
  // and the first (by rank order) is rethrown.
  for (const auto& e : errors) {
    if (!e) continue;
    try {
      std::rethrow_exception(e);
    } catch (const RankFailure&) {
    } catch (...) {
      throw;
    }
  }
  for (const auto& e : errors)
    if (e) std::rethrow_exception(e);
}

void SimMpi::revoke() {
  revoked_.store(true, std::memory_order_release);
  for (auto& box : mailboxes_) {
    std::lock_guard<std::mutex> lock(box.mu);
    box.cv.notify_all();
  }
  {
    std::lock_guard<std::mutex> lock(barrier_mu_);
    barrier_cv_.notify_all();
  }
}

std::uint64_t SimMpi::bytes_sent(int rank) const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return bytes_sent_[static_cast<std::size_t>(rank)];
}

std::uint64_t SimMpi::total_bytes_sent() const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  std::uint64_t total = 0;
  for (auto b : bytes_sent_) total += b;
  return total;
}

std::uint64_t SimMpi::messages_sent(int rank) const {
  std::lock_guard<std::mutex> lock(stats_mu_);
  return msgs_sent_[static_cast<std::size_t>(rank)];
}

void SimMpi::reset_counters() {
  std::lock_guard<std::mutex> lock(stats_mu_);
  std::fill(bytes_sent_.begin(), bytes_sent_.end(), 0);
  std::fill(msgs_sent_.begin(), msgs_sent_.end(), 0);
}

void SimMpi::post(int src, int dst, int tag, std::vector<float> data) {
  // Every delivery routes through the injector — disabled, on_send is a
  // single branch, so the straggler-free path and the fault build share
  // one code path. A dropped attempt went on the wire before it was lost:
  // each one charges full message bytes, and delivery happens on the first
  // surviving attempt (on_send throws past the retry bound).
  int dropped = 0;
  try {
    dropped = injector_->on_send(src, dst, tag, data.size() * sizeof(float));
  } catch (const RankFailure&) {
    throw;  // scheduled abort: the rank dies before anything hits the wire
  } catch (const Error&) {
    // Undeliverable: the initial attempt and every retry went on the wire
    // and were lost — charge them all, then propagate.
    const auto tries =
        static_cast<std::uint64_t>(injector_->plan().max_retries) + 1;
    charge(src, tries * data.size() * sizeof(float), tries);
    throw;
  }
  const auto attempts = static_cast<std::uint64_t>(dropped) + 1;
  charge(src, attempts * data.size() * sizeof(float), attempts);
  Mailbox& box = mailboxes_[static_cast<std::size_t>(dst)];
  {
    std::lock_guard<std::mutex> lock(box.mu);
    box.queues[{src, tag}].push_back(Message{std::move(data)});
  }
  box.cv.notify_all();
}

void SimMpi::charge(int rank, std::uint64_t bytes, std::uint64_t msgs) {
  {
    std::lock_guard<std::mutex> lock(stats_mu_);
    bytes_sent_[static_cast<std::size_t>(rank)] += bytes;
    msgs_sent_[static_cast<std::size_t>(rank)] += msgs;
    // Per-rank cumulative send volume; each rank thread emits into its own
    // ring, so the counter tracks that rank's curve.
    trace_counter(
        "dist", "bytes_sent",
        static_cast<double>(bytes_sent_[static_cast<std::size_t>(rank)]));
  }
  wire_bytes_counter().add(bytes);
}

void SimMpi::set_completion_scheduler(
    std::function<void(std::function<void()>)> s) {
  std::lock_guard<std::mutex> lock(coll_mu_);
  completion_scheduler_ = std::move(s);
}

std::shared_ptr<SimMpi::CollectiveOp> SimMpi::join_collective(
    int rank, int tag, std::uint64_t seq, std::span<float> data) {
  std::shared_ptr<CollectiveOp> op;
  std::function<void(std::function<void()>)> scheduler;
  bool last = false;
  {
    std::lock_guard<std::mutex> lock(coll_mu_);
    auto key = std::make_pair(tag, seq);
    auto it = pending_colls_.find(key);
    if (it == pending_colls_.end()) {
      op = std::make_shared<CollectiveOp>();
      op->expected = size_;
      op->len = data.size();
      op->bufs.resize(static_cast<std::size_t>(size_));
      pending_colls_.emplace(key, op);
    } else {
      op = it->second;
      D500_CHECK_MSG(data.size() == op->len,
                     "iallreduce: buffer size mismatch across ranks (got "
                         << data.size() << ", want " << op->len << ")");
    }
    op->bufs[static_cast<std::size_t>(rank)] = data;
    if (++op->arrived == op->expected) {
      pending_colls_.erase(key);
      last = true;
      scheduler = completion_scheduler_;
    }
  }
  if (last) {
    op->self = op;
    if (scheduler) {
      scheduler([ctx = op.get()] { run_completion(ctx, 0); });
    } else {
      ThreadPool::instance().submit(&run_completion, op.get(), 0);
    }
  }
  return op;
}

void SimMpi::run_completion(void* ctx, std::int64_t) {
  auto& op = *static_cast<CollectiveOp*>(ctx);
  const std::shared_ptr<CollectiveOp> keep = std::move(op.self);
  complete_allreduce(op);
  ThreadPool::instance().count_down(op.complete);
}

void SimMpi::complete_allreduce(CollectiveOp& op) {
  D500_TRACE_SCOPE("dist", "iallreduce_complete");
  const int n = op.expected;
  const std::size_t len = op.len;
  if (n == 1 || len == 0) {
    return;
  }
  std::vector<float> acc(len);
  // Per ring chunk c, fold contributions in cyclic order starting at rank
  // c — the summation order chunk c experiences in allreduce_sum_ring
  // (it originates at rank c and accumulates while travelling the ring).
  for (int c = 0; c < n; ++c) {
    const std::size_t lo = ring_chunk_begin(len, n, c);
    const std::size_t sz = ring_chunk_size(len, n, c);
    float* a = acc.data() + lo;
    std::copy_n(op.bufs[static_cast<std::size_t>(c)].data() + lo, sz, a);
    for (int s = 1; s < n; ++s) {
      const float* src =
          op.bufs[static_cast<std::size_t>((c + s) % n)].data() + lo;
      for (std::size_t i = 0; i < sz; ++i) a[i] += src[i];
    }
  }
  for (int r = 0; r < n; ++r)
    std::copy(acc.begin(), acc.end(), op.bufs[static_cast<std::size_t>(r)].begin());
}

SimMpi::Message SimMpi::take(int src, int dst, int tag) {
  Mailbox& box = mailboxes_[static_cast<std::size_t>(dst)];
  std::unique_lock<std::mutex> lock(box.mu);
  auto key = std::make_pair(src, tag);
  auto ready = [&] {
    auto it = box.queues.find(key);
    return it != box.queues.end() && !it->second.empty();
  };
  box.cv.wait(lock, [&] {
    return ready() || revoked_.load(std::memory_order_acquire);
  });
  // Queued messages stay consumable after revocation; only an empty wait
  // aborts (the peer that should have sent is gone).
  if (!ready())
    throw RankFailure("SimMpi: communicator revoked — a peer rank failed");
  auto& q = box.queues[key];
  Message m = std::move(q.front());
  q.pop_front();
  return m;
}

std::pair<int, SimMpi::Message> SimMpi::take_any(int dst, int tag) {
  Mailbox& box = mailboxes_[static_cast<std::size_t>(dst)];
  std::unique_lock<std::mutex> lock(box.mu);
  // The queue map is ordered by (src, tag), so the linear scan naturally
  // yields the lowest waiting source first — a deterministic tie-break.
  auto find_ready = [&]() -> decltype(box.queues.begin()) {
    for (auto it = box.queues.begin(); it != box.queues.end(); ++it)
      if (it->first.second == tag && !it->second.empty()) return it;
    return box.queues.end();
  };
  decltype(box.queues.begin()) ready;
  box.cv.wait(lock, [&] {
    return (ready = find_ready()) != box.queues.end() ||
           revoked_.load(std::memory_order_acquire);
  });
  if ((ready = find_ready()) == box.queues.end())
    throw RankFailure("SimMpi: communicator revoked — a peer rank failed");
  Message m = std::move(ready->second.front());
  ready->second.pop_front();
  return {ready->first.first, std::move(m)};
}

void Communicator::send(int dst, std::span<const float> data, int tag) {
  D500_CHECK_MSG(dst >= 0 && dst < size() && dst != rank_,
                 "send: bad destination " << dst);
  world_->post(rank_, dst, tag, std::vector<float>(data.begin(), data.end()));
}

void Communicator::recv(int src, std::span<float> out, int tag) {
  D500_CHECK_MSG(src >= 0 && src < size() && src != rank_,
                 "recv: bad source " << src);
  const SimMpi::Message m = world_->take(src, rank_, tag);
  D500_CHECK_MSG(m.data.size() == out.size(),
                 "recv: size mismatch (got " << m.data.size() << ", want "
                 << out.size() << ")");
  std::copy(m.data.begin(), m.data.end(), out.begin());
}

std::pair<int, std::vector<float>> Communicator::recv_any(int tag) {
  auto [src, m] = world_->take_any(rank_, tag);
  return {src, std::move(m.data)};
}

void Communicator::barrier() {
  std::unique_lock<std::mutex> lock(world_->barrier_mu_);
  const std::uint64_t gen = world_->barrier_generation_;
  if (++world_->barrier_count_ == world_->size_) {
    world_->barrier_count_ = 0;
    ++world_->barrier_generation_;
    world_->barrier_cv_.notify_all();
  } else {
    world_->barrier_cv_.wait(lock, [&] {
      return world_->barrier_generation_ != gen ||
             world_->revoked_.load(std::memory_order_acquire);
    });
    if (world_->barrier_generation_ == gen)
      throw RankFailure("SimMpi: communicator revoked — a peer rank failed");
  }
}

void Communicator::bcast(std::span<float> data, int root) {
  LatencyScope lat(collective_hist());
  D500_TRACE_SCOPE("dist", "bcast");
  // Binomial tree rooted at `root`: virtual rank v = (rank - root) mod n.
  // v receives from v - lsb(v), then forwards to v + m for each mask m
  // below its own lowest set bit (the whole range below n for the root).
  const int n = size();
  if (n == 1) return;
  const int v = (rank_ - root + n) % n;
  int start_mask;
  if (v != 0) {
    const int lsb = v & -v;
    recv((v - lsb + root) % n, data, /*tag=*/100);
    start_mask = lsb >> 1;
  } else {
    start_mask = 1;
    while (start_mask * 2 < n) start_mask <<= 1;
  }
  for (int m = start_mask; m >= 1; m >>= 1)
    if (v + m < n) send((v + m + root) % n, data, /*tag=*/100);
}

void Communicator::reduce_sum(std::span<float> data, int root) {
  LatencyScope lat(collective_hist());
  D500_TRACE_SCOPE("dist", "reduce");
  // Binomial-tree reduce: virtual rank v = (rank - root) mod n.
  const int n = size();
  if (n == 1) return;
  const int v = (rank_ - root + n) % n;
  std::vector<float> incoming(data.size());
  for (int m = 1; m < n; m <<= 1) {
    if (v & m) {
      send(((v & ~m) + root) % n, data, /*tag=*/101);
      return;  // sent up; done
    }
    if (v + m < n) {
      recv((v + m + root) % n, incoming, /*tag=*/101);
      for (std::size_t i = 0; i < data.size(); ++i) data[i] += incoming[i];
    }
  }
}

void Communicator::allreduce_sum_ring(std::span<float> data) {
  LatencyScope lat(collective_hist());
  D500_TRACE_SCOPE("dist", "allreduce_ring");
  const int n = size();
  if (n == 1) return;
  const std::size_t len = data.size();
  // Chunk boundaries (n chunks, nearly equal).
  auto chunk_begin = [&](int c) { return len * static_cast<std::size_t>(c) / n; };
  auto chunk_size = [&](int c) {
    return chunk_begin(c + 1) - chunk_begin(c);
  };
  const int right = (rank_ + 1) % n;
  const int left = (rank_ - 1 + n) % n;
  std::vector<float> buf(len);  // staging

  // Reduce-scatter: n-1 steps; in step s, send chunk (rank - s) and
  // receive+accumulate chunk (rank - s - 1).
  for (int s = 0; s < n - 1; ++s) {
    const int send_c = ((rank_ - s) % n + n) % n;
    const int recv_c = ((rank_ - s - 1) % n + n) % n;
    send(right, data.subspan(chunk_begin(send_c), chunk_size(send_c)),
         /*tag=*/200 + s);
    std::span<float> stage(buf.data(), chunk_size(recv_c));
    recv(left, stage, /*tag=*/200 + s);
    float* dst = data.data() + chunk_begin(recv_c);
    for (std::size_t i = 0; i < stage.size(); ++i) dst[i] += stage[i];
  }
  // Allgather: n-1 steps circulating the reduced chunks.
  for (int s = 0; s < n - 1; ++s) {
    const int send_c = ((rank_ + 1 - s) % n + n) % n;
    const int recv_c = ((rank_ - s) % n + n) % n;
    send(right, data.subspan(chunk_begin(send_c), chunk_size(send_c)),
         /*tag=*/300 + s);
    std::span<float> stage(data.data() + chunk_begin(recv_c),
                           chunk_size(recv_c));
    recv(left, stage, /*tag=*/300 + s);
  }
}

void Communicator::allreduce_sum_rd(std::span<float> data) {
  LatencyScope lat(collective_hist());
  D500_TRACE_SCOPE("dist", "allreduce_rd");
  const int n = size();
  if (n == 1) return;
  // Largest power of two <= n.
  int pof2 = 1;
  while (pof2 * 2 <= n) pof2 *= 2;
  const int rem = n - pof2;
  std::vector<float> incoming(data.size());

  // Fold excess ranks into the power-of-two set.
  int newrank;
  if (rank_ < 2 * rem) {
    if (rank_ % 2 == 0) {  // even: send to odd neighbor, then idle
      send(rank_ + 1, data, /*tag=*/400);
      newrank = -1;
    } else {
      recv(rank_ - 1, incoming, /*tag=*/400);
      for (std::size_t i = 0; i < data.size(); ++i) data[i] += incoming[i];
      newrank = rank_ / 2;
    }
  } else {
    newrank = rank_ - rem;
  }

  if (newrank >= 0) {
    for (int mask = 1; mask < pof2; mask <<= 1) {
      const int peer_new = newrank ^ mask;
      const int peer =
          peer_new < rem ? peer_new * 2 + 1 : peer_new + rem;
      // Exchange full vectors (send first from the lower rank to avoid
      // deadlock is unnecessary: queues are buffered/nonblocking sends).
      send(peer, data, /*tag=*/401 + mask);
      recv(peer, incoming, /*tag=*/401 + mask);
      for (std::size_t i = 0; i < data.size(); ++i) data[i] += incoming[i];
    }
  }

  // Unfold: odd ranks of the folded pairs send results back to evens.
  if (rank_ < 2 * rem) {
    if (rank_ % 2 == 1) {
      send(rank_ - 1, data, /*tag=*/402);
    } else {
      recv(rank_ + 1, data, /*tag=*/402);
    }
  }
}

void Communicator::allgather(std::span<const float> chunk,
                             std::span<float> out) {
  LatencyScope lat(collective_hist());
  D500_TRACE_SCOPE("dist", "allgather");
  const int n = size();
  const std::size_t csize = chunk.size();
  D500_CHECK_MSG(out.size() == csize * static_cast<std::size_t>(n),
                 "allgather: output size mismatch");
  std::copy(chunk.begin(), chunk.end(),
            out.begin() + static_cast<std::ptrdiff_t>(csize * rank_));
  if (n == 1) return;
  const int right = (rank_ + 1) % n;
  const int left = (rank_ - 1 + n) % n;
  for (int s = 0; s < n - 1; ++s) {
    const int send_c = ((rank_ - s) % n + n) % n;
    const int recv_c = ((rank_ - s - 1) % n + n) % n;
    send(right, out.subspan(csize * static_cast<std::size_t>(send_c), csize),
         /*tag=*/500 + s);
    recv(left, out.subspan(csize * static_cast<std::size_t>(recv_c), csize),
         /*tag=*/500 + s);
  }
}

AllreduceRequest Communicator::iallreduce_sum(std::span<float> data, int tag) {
  D500_TRACE_SCOPE("dist", "iallreduce_launch");
  // The nonblocking path moves no real point-to-point messages, so drops
  // cannot apply; a scheduled straggler still pays its delay at launch.
  world_->injector_->maybe_slow(rank_);
  const std::uint64_t seq = coll_seq_[tag]++;
  AllreduceRequest req;
  req.op_ = world_->join_collective(rank_, tag, seq, data);
  // Charge exactly what the blocking ring algorithm would send from this
  // rank, so volume metrics are algorithm-equivalent across both paths.
  const int n = size();
  if (n > 1)
    world_->charge(rank_, ring_send_bytes(rank_, n, data.size()),
                   2 * static_cast<std::uint64_t>(n - 1));
  return req;
}

void Communicator::wait(AllreduceRequest& req) {
  if (!req.op_) return;
  D500_TRACE_SCOPE("dist", "overlap_wait");
  // Work the shared pool queue while waiting: on a worker-less pool (1
  // thread) this is what actually runs the completion task, and on a busy
  // pool it turns wait time into useful compute.
  ThreadPool::instance().wait(req.op_->complete);
  req.op_.reset();
}

bool Communicator::test(const AllreduceRequest& req) const {
  return req.op_ == nullptr || req.op_->complete.done();
}

}  // namespace d500
