#include "serve/service.hpp"

#include <chrono>
#include <condition_variable>
#include <deque>
#include <mutex>

#include "common/check.hpp"
#include "plan/plan.hpp"

namespace obx::serve {

namespace {

std::uint64_t to_us(Clock::duration d) {
  const auto us = std::chrono::duration_cast<std::chrono::microseconds>(d).count();
  return us < 0 ? 0 : static_cast<std::uint64_t>(us);
}

}  // namespace

// Bounded handoff between the batcher thread and the executor pool.  Always
// blocking on push: once a batch exists, its jobs are committed to execution,
// so the only correct overflow behaviour is to slow the batcher down (which
// in turn fills the admission queue, where the configured policy applies).
class BulkService::BatchQueue {
 public:
  explicit BatchQueue(std::size_t capacity) : capacity_(std::max<std::size_t>(capacity, 1)) {}

  void push(Batch&& batch) {
    std::unique_lock lock(mutex_);
    not_full_.wait(lock, [&] { return batches_.size() < capacity_ || closed_; });
    // After close the executors still drain; never drop a formed batch.
    batches_.push_back(std::move(batch));
    lock.unlock();
    not_empty_.notify_one();
  }

  bool pop(Batch& out) {
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [&] { return !batches_.empty() || closed_; });
    if (batches_.empty()) return false;
    out = std::move(batches_.front());
    batches_.pop_front();
    lock.unlock();
    not_full_.notify_one();
    return true;
  }

  void close() {
    {
      std::lock_guard lock(mutex_);
      closed_ = true;
    }
    not_empty_.notify_all();
    not_full_.notify_all();
  }

 private:
  const std::size_t capacity_;
  std::mutex mutex_;
  std::condition_variable not_empty_;
  std::condition_variable not_full_;
  std::deque<Batch> batches_;
  bool closed_ = false;
};

BulkService::BulkService(ServiceOptions options)
    : options_(options), batcher_(options.batcher), tenants_(options.default_quota) {
  OBX_CHECK(options_.executors > 0, "executor pool needs at least one worker");
  options_.prepare.reference_lanes = options_.batcher.max_batch_lanes;
  programs_ = std::make_unique<ProgramCache>(options_.prepare);
  queue_ = std::make_unique<AdmissionQueue>(options_.queue_capacity, options_.policy);
  batches_ = std::make_unique<BatchQueue>(options_.executors * 2);
  const Clock::time_point now = Clock::now();
  for (const auto& [tenant, quota] : options_.tenant_quotas) {
    tenants_.set_quota(tenant, quota, now);
  }
  batcher_thread_ = std::thread([this] { batcher_loop(); });
  executor_threads_.reserve(options_.executors);
  for (unsigned i = 0; i < options_.executors; ++i) {
    executor_threads_.emplace_back([this] { executor_loop(); });
  }
}

BulkService::~BulkService() { stop(); }

void BulkService::register_program(const std::string& id, trace::Program program) {
  programs_->add(id, std::move(program));
}

void BulkService::set_tenant_quota(const std::string& tenant, TenantQuota quota) {
  tenants_.set_quota(tenant, quota, Clock::now());
}

BulkService::TrySubmit BulkService::admit(Job&& job, bool allow_block) {
  TenantCounters& tenant = metrics_.tenant(job.tenant);
  const OverflowPolicy policy = options_.effective_policy(job.priority);

  // Quota gate first: a tenant over its bucket never touches the shared
  // queue, so a quota storm cannot displace other tenants' work.
  const bool quota_ok = tenants_.admit(job.tenant, Clock::now());

  if (!quota_ok) {
    metrics_.submitted.fetch_add(1, std::memory_order_relaxed);
    tenant.submitted.fetch_add(1, std::memory_order_relaxed);
    metrics_.rejected.fetch_add(1, std::memory_order_relaxed);
    metrics_.throttled.fetch_add(1, std::memory_order_relaxed);
    tenant.rejected.fetch_add(1, std::memory_order_relaxed);
    tenant.throttled.fetch_add(1, std::memory_order_relaxed);
    JobResult r;
    r.status = JobStatus::kRejected;
    r.error = "tenant quota exceeded";
    job.resolve(std::move(r));
    return TrySubmit::kResolved;
  }

  std::optional<Job> shed;
  bool waited = false;
  const std::string tenant_id = job.tenant;  // job may be consumed by push
  const auto result = queue_->push(std::move(job), policy, &shed, allow_block, &waited);

  if (result == AdmissionQueue::PushResult::kWouldBlock) {
    // Nothing happened: hand the quota token back so the retry is not
    // charged twice.  push leaves the job untouched, so the caller still
    // owns it (try_submit hands its input back).
    tenants_.refund(tenant_id);
    return TrySubmit::kWouldBlock;
  }

  metrics_.submitted.fetch_add(1, std::memory_order_relaxed);
  tenant.submitted.fetch_add(1, std::memory_order_relaxed);
  if (waited) tenant.overflow_block.fetch_add(1, std::memory_order_relaxed);
  if (shed.has_value()) {
    tenant.overflow_shed.fetch_add(1, std::memory_order_relaxed);
    resolve_dropped(std::move(*shed), JobStatus::kShed);
  }
  if (result == AdmissionQueue::PushResult::kRejected) {
    // push() leaves the job untouched on rejection, so it is still ours to
    // resolve.
    metrics_.rejected.fetch_add(1, std::memory_order_relaxed);
    tenant.rejected.fetch_add(1, std::memory_order_relaxed);
    tenant.overflow_reject.fetch_add(1, std::memory_order_relaxed);
    JobResult r;
    r.status = JobStatus::kRejected;
    job.resolve(std::move(r));
    return TrySubmit::kResolved;
  }
  metrics_.queue_depth.fetch_add(1, std::memory_order_relaxed);
  return TrySubmit::kResolved;
}

std::future<JobResult> BulkService::submit(const std::string& id,
                                           std::vector<Word> input,
                                           const SubmitOptions& options) {
  const PreparedProgram& prepared = programs_->get(id);
  OBX_CHECK(input.size() == prepared.input_words(),
            "input has " + std::to_string(input.size()) + " words, program '" + id +
                "' expects " + std::to_string(prepared.input_words()));

  Job job;
  job.id = next_job_id_.fetch_add(1, std::memory_order_relaxed);
  job.program_id = id;
  job.tenant = options.tenant;
  job.priority = options.priority;
  job.input = std::move(input);
  job.enqueue_time = Clock::now();
  if (options.deadline.has_value()) job.deadline = job.enqueue_time + *options.deadline;
  std::future<JobResult> future = job.promise.get_future();

  admit(std::move(job), /*allow_block=*/true);
  return future;
}

std::future<JobResult> BulkService::submit(const std::string& id,
                                           std::vector<Word> input,
                                           std::optional<Clock::duration> deadline) {
  SubmitOptions options;
  options.deadline = deadline;
  return submit(id, std::move(input), options);
}

BulkService::TrySubmit BulkService::try_submit(const std::string& id,
                                               std::vector<Word>&& input,
                                               const SubmitOptions& options,
                                               std::function<void(JobResult&&)> done) {
  const PreparedProgram& prepared = programs_->get(id);
  OBX_CHECK(input.size() == prepared.input_words(),
            "input has " + std::to_string(input.size()) + " words, program '" + id +
                "' expects " + std::to_string(prepared.input_words()));
  OBX_CHECK(static_cast<bool>(done), "try_submit needs a completion callback");

  Job job;
  job.id = next_job_id_.fetch_add(1, std::memory_order_relaxed);
  job.program_id = id;
  job.tenant = options.tenant;
  job.priority = options.priority;
  job.input = std::move(input);
  job.enqueue_time = Clock::now();
  if (options.deadline.has_value()) job.deadline = job.enqueue_time + *options.deadline;
  job.on_complete = std::move(done);

  const TrySubmit outcome = admit(std::move(job), /*allow_block=*/false);
  if (outcome == TrySubmit::kWouldBlock) input = std::move(job.input);
  return outcome;
}

void BulkService::resolve_dropped(Job&& job, JobStatus status) {
  if (status == JobStatus::kShed) {
    metrics_.shed.fetch_add(1, std::memory_order_relaxed);
    metrics_.tenant(job.tenant).shed.fetch_add(1, std::memory_order_relaxed);
    metrics_.queue_depth.fetch_sub(1, std::memory_order_relaxed);
  }
  JobResult r;
  r.status = status;
  r.latency = Clock::now() - job.enqueue_time;
  job.resolve(std::move(r));
}

void BulkService::batcher_loop() {
  for (;;) {
    const std::optional<Clock::time_point> due = batcher_.next_due();
    Job job;
    AdmissionQueue::PopResult r;
    if (due.has_value()) {
      r = queue_->pop_until(job, *due);
    } else {
      r = queue_->pop(job);
    }
    if (r == AdmissionQueue::PopResult::kJob) {
      metrics_.queue_depth.fetch_sub(1, std::memory_order_relaxed);
      batcher_.add(std::move(job), Clock::now());
    }
    for (Batch& batch : batcher_.take_ready(Clock::now())) {
      dispatch(std::move(batch));
    }
    if (r == AdmissionQueue::PopResult::kClosed) {
      for (Batch& batch : batcher_.drain()) dispatch(std::move(batch));
      break;
    }
  }
  batches_->close();
}

void BulkService::dispatch(Batch&& batch) {
  switch (batch.reason) {
    case FlushReason::kSize:
      metrics_.flush_size.fetch_add(1, std::memory_order_relaxed);
      break;
    case FlushReason::kDelay:
      metrics_.flush_delay.fetch_add(1, std::memory_order_relaxed);
      break;
    case FlushReason::kDeadline:
      metrics_.flush_deadline.fetch_add(1, std::memory_order_relaxed);
      break;
    case FlushReason::kDrain:
      metrics_.flush_drain.fetch_add(1, std::memory_order_relaxed);
      break;
  }
  batches_->push(std::move(batch));
}

void BulkService::executor_loop() {
  Batch batch;
  while (batches_->pop(batch)) {
    execute(std::move(batch));
  }
}

void BulkService::execute(Batch&& batch) {
  const PreparedProgram& prepared = programs_->get(batch.program_id);
  const std::size_t lanes = batch.jobs.size();
  const Clock::time_point dispatched = Clock::now();

  const std::size_t in_words = prepared.input_words();
  std::vector<Word> out;
  try {
    if (options_.before_execute) options_.before_execute(batch);
    std::vector<Word> flat;
    flat.reserve(lanes * in_words);
    for (const Job& job : batch.jobs) {
      const std::vector<Word>& in = job.input;
      // Last line of defence behind submit-time validation and the
      // batcher's (program, input length) group key: a mis-sized lane
      // must fail loudly, never overrun the scatter buffer.
      OBX_CHECK(in.size() == in_words,
                "batched job input length does not match its program");
      flat.insert(flat.end(), in.begin(), in.end());
    }
    // Every engine decision (arrangement, backend, tile, workers) comes from
    // the plan built once at register_program() time.
    plan::run(prepared.plan(), flat, lanes, &out);
  } catch (...) {
    const std::exception_ptr error = std::current_exception();
    metrics_.failed.fetch_add(batch.jobs.size(), std::memory_order_relaxed);
    for (Job& job : batch.jobs) {
      metrics_.tenant(job.tenant).failed.fetch_add(1, std::memory_order_relaxed);
      job.resolve_error(error);
    }
    return;
  }

  const Clock::time_point completed = Clock::now();
  metrics_.batches.fetch_add(1, std::memory_order_relaxed);
  metrics_.batch_occupancy.record(lanes);
  metrics_.batch_latency_us.record(to_us(completed - dispatched));
  if (options_.record_simulated_units) {
    metrics_.batch_sim_units.record(prepared.units_for_lanes(lanes));
  }

  const std::size_t out_words = prepared.output_words();
  for (std::size_t j = 0; j < lanes; ++j) {
    Job& job = batch.jobs[j];
    TenantCounters& tenant = metrics_.tenant(job.tenant);
    JobResult r;
    r.status = JobStatus::kCompleted;
    const auto lane_out = out.begin() + static_cast<std::ptrdiff_t>(j * out_words);
    r.output.assign(lane_out, lane_out + static_cast<std::ptrdiff_t>(out_words));
    r.queue_delay = dispatched - job.enqueue_time;
    r.latency = completed - job.enqueue_time;
    r.batch_lanes = lanes;
    r.deadline_missed = job.deadline.has_value() && completed > *job.deadline;
    metrics_.queue_delay_us.record(to_us(r.queue_delay));
    tenant.queue_delay_us.record(to_us(r.queue_delay));
    metrics_.completed.fetch_add(1, std::memory_order_relaxed);
    tenant.completed.fetch_add(1, std::memory_order_relaxed);
    if (r.deadline_missed) {
      metrics_.deadline_missed.fetch_add(1, std::memory_order_relaxed);
      tenant.deadline_missed.fetch_add(1, std::memory_order_relaxed);
    }
    job.resolve(std::move(r));
  }
}

void BulkService::stop() {
  if (stopped_.exchange(true)) {
    return;
  }
  queue_->close();
  if (batcher_thread_.joinable()) batcher_thread_.join();
  for (auto& t : executor_threads_) {
    if (t.joinable()) t.join();
  }
}

}  // namespace obx::serve
