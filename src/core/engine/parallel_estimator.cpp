#include "core/engine/parallel_estimator.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <vector>

#include "core/engine/parallel_for.h"
#include "core/engine/trial_workspace.h"
#include "core/fault/fault.h"
#include "core/obs/metrics.h"
#include "core/obs/trace.h"
#include "core/probe_session.h"
#include "core/witness.h"
#include "util/require.h"

namespace qps {

namespace {

// Engine metrics, registered once.  All are per-batch (a batch is ~1024
// trials), so the per-trial overhead of metrics is a fraction of an atomic.
struct EngineMetrics {
  obs::Counter& trials =
      obs::MetricsRegistry::instance().counter("engine/trials");
  obs::Counter& batches =
      obs::MetricsRegistry::instance().counter("engine/batches");
  obs::Counter& early_stops =
      obs::MetricsRegistry::instance().counter("engine/early_stops");
  obs::Histogram& merge_wait_us =
      obs::MetricsRegistry::instance().histogram("engine/merge_wait_us");

  static EngineMetrics& get() {
    static EngineMetrics metrics;
    return metrics;
  }
};

// Shared state of one run(): per-batch results plus the in-order merge
// frontier.  Workers deposit finished batches; whoever completes the batch
// at the frontier advances the merge (under the mutex), which is the only
// place results are combined or the stop decision is taken -- keeping both
// independent of scheduling.
struct RunState {
  explicit RunState(std::size_t num_batches)
      : results(num_batches), errors(num_batches), done(num_batches, 0) {}

  std::atomic<std::size_t> next_batch{0};
  std::atomic<bool> stop{false};

  std::mutex mutex;
  std::vector<RunningStats> results;
  std::vector<std::exception_ptr> errors;
  std::vector<char> done;
  std::size_t merged_upto = 0;  // batches [0, merged_upto) are merged
  RunningStats merged;
  std::exception_ptr first_error;
};

/// Throws when `witness` does not certify the state of `coloring`.
void check_witness(const QuorumSystem& system, const ProbeStrategy& strategy,
                   const Coloring& coloring, const Witness& witness,
                   const ProbeSession& session) {
  const std::string error =
      validate_witness(system, coloring, witness, session.probed());
  if (!error.empty())
    throw std::logic_error(strategy.name() + " returned a bad witness: " +
                           error);
}

/// One probe run of `strategy` against `coloring` on a fresh session (the
/// empty-universe trial).  Returns the probe count.
double run_probe_trial(const QuorumSystem& system,
                       const ProbeStrategy& strategy, const Coloring& coloring,
                       bool validate, Rng& rng) {
  ProbeSession session(coloring);
  const Witness witness = strategy.run(session, rng);
  if (validate) check_witness(system, strategy, coloring, witness, session);
  return static_cast<double>(session.probe_count());
}

}  // namespace

ParallelEstimator::ParallelEstimator(EngineOptions options)
    : options_(options) {
  QPS_REQUIRE(options_.trials > 0, "need at least one trial");
  QPS_REQUIRE(options_.batch_size > 0, "batch size must be positive");
  QPS_REQUIRE(options_.target_sem >= 0.0, "target SEM must be non-negative");
}

std::size_t ParallelEstimator::resolved_threads() const {
  const std::size_t threads = ThreadPool::resolve_threads(options_.threads);
  const std::size_t num_batches =
      (options_.trials + options_.batch_size - 1) / options_.batch_size;
  return threads < num_batches ? threads : num_batches;
}

RunningStats ParallelEstimator::run_batches(
    const BatchFnFactory& make_batch_fn) const {
  const std::size_t trials = options_.trials;
  const std::size_t batch_size = options_.batch_size;
  const std::size_t num_batches = (trials + batch_size - 1) / batch_size;
  const std::size_t threads = resolved_threads();

  RunState state(num_batches);

  // True once the merged prefix satisfies the early-stop target.  Called
  // only under the mutex with a frontier that advances in index order, so
  // the answer is a function of the batch results alone.
  const auto stop_satisfied = [&](const RunningStats& merged) {
    return options_.target_sem > 0.0 && merged.count() >= options_.min_trials &&
           merged.sem() <= options_.target_sem;
  };

  EngineMetrics& metrics = EngineMetrics::get();
  const auto worker = [&] {
    // Per-worker state (e.g. the trial workspace) lives in the batch
    // function made here, once per thread.
    const BatchFn batch_fn = make_batch_fn();
    for (;;) {
      if (state.stop.load(std::memory_order_relaxed)) return;
      const std::size_t k =
          state.next_batch.fetch_add(1, std::memory_order_relaxed);
      if (k >= num_batches) return;

      RunningStats batch;
      std::exception_ptr error;
      try {
        const std::size_t begin = k * batch_size;
        const std::size_t end =
            begin + batch_size < trials ? begin + batch_size : trials;
        Rng rng = Rng::for_stream(options_.seed, k);
        QPS_TRACE_SPAN("engine/batch", "engine");
        batch_fn(begin, end, rng, batch);
        metrics.batches.increment();
        metrics.trials.add(end - begin);
      } catch (...) {
        error = std::current_exception();
      }

      // The merge-wait histogram records how long workers queue on the
      // merge mutex: the direct measurement of merge contention the
      // lock-free refactor (ROADMAP) needs a baseline for.
      std::uint64_t wait_us = 0;
      if constexpr (obs::kMetricsCompiled) {
        const std::uint64_t t0 = obs::monotonic_us();
        state.mutex.lock();
        wait_us = obs::monotonic_us() - t0;
      } else {
        state.mutex.lock();
      }
      std::lock_guard<std::mutex> lock(state.mutex, std::adopt_lock);
      if constexpr (obs::kMetricsCompiled)
        metrics.merge_wait_us.record(wait_us);
      state.results[k] = batch;
      state.errors[k] = error;
      state.done[k] = 1;
      // Once the stop decision fired, the merge frontier is frozen: batches
      // completing after it are deposited but never merged.
      if (state.stop.load(std::memory_order_relaxed)) return;
      while (state.merged_upto < num_batches && state.done[state.merged_upto]) {
        const std::size_t i = state.merged_upto++;
        if (state.errors[i]) {
          state.first_error = state.errors[i];
          state.stop.store(true, std::memory_order_relaxed);
          return;
        }
        state.merged.merge(state.results[i]);
        if (stop_satisfied(state.merged)) {
          metrics.early_stops.increment();
          state.stop.store(true, std::memory_order_relaxed);
          return;
        }
      }
    }
  };

  // The shared pool runs `worker` on `threads` workers (the calling thread
  // included); a single-worker pool degenerates to an inline call.
  ThreadPool(threads).run_workers(worker);

  if (state.first_error) std::rethrow_exception(state.first_error);
  return state.merged;
}

RunningStats ParallelEstimator::run(const Trial& trial) const {
  QPS_REQUIRE(static_cast<bool>(trial), "run() needs a trial function");
  return run_batches([&trial] {
    return [&trial](std::size_t begin, std::size_t end, Rng& rng,
                    RunningStats& out) {
      for (std::size_t t = begin; t < end; ++t) out.add(trial(rng));
    };
  });
}

RunningStats ParallelEstimator::estimate_ppc(const QuorumSystem& system,
                                             const ProbeStrategy& strategy,
                                             double p) const {
  QPS_FAULT_POINT("engine/estimate");
  const std::size_t n = system.universe_size();
  if (n == 0) {
    return run([&](Rng& rng) {
      const Coloring coloring = sample_iid_coloring(n, p, rng);
      return run_probe_trial(system, strategy, coloring,
                             options_.validate_witnesses, rng);
    });
  }
  return run_strategy(system, strategy,
                      [n, p](std::uint64_t* masks, std::size_t count,
                             Rng& rng) {
                        sample_iid_coloring_words(masks, count, n, p, rng);
                      });
}

RunningStats ParallelEstimator::expected_probes_on(
    const QuorumSystem& system, const ProbeStrategy& strategy,
    const Coloring& coloring) const {
  const std::size_t n = system.universe_size();
  if (n == 0) {
    return run([&](Rng& rng) {
      return run_probe_trial(system, strategy, coloring,
                             options_.validate_witnesses, rng);
    });
  }
  QPS_REQUIRE(coloring.universe_size() == n,
              "coloring over the wrong universe");
  // The fixed coloring's green-mask row, copied into every trial's row.
  const std::size_t stride = (n + 63) / 64;
  std::vector<std::uint64_t> row(stride, 0);
  const ElementSet& greens = coloring.greens();
  for (Element e = greens.first(); e < n; e = greens.next_after(e))
    row[e / 64] |= 1ULL << (e % 64);
  return run_strategy(system, strategy,
                      [&row, stride](std::uint64_t* masks, std::size_t count,
                                     Rng& /*rng*/) {
                        for (std::size_t t = 0; t < count; ++t)
                          std::copy(row.begin(), row.end(),
                                    masks + t * stride);
                      });
}

RunningStats ParallelEstimator::run_strategy(
    const QuorumSystem& system, const ProbeStrategy& strategy,
    const FillMasks& fill_masks) const {
  const std::size_t n = system.universe_size();
  const std::size_t stride = (n + 63) / 64;
  const bool validate = options_.validate_witnesses;
  // The one path decision: batch kernels need no witnesses, so validation
  // (like a strategy without a kernel) takes the reference run().
  const SimdKernels* kernels = !validate && strategy.supports_batch(n)
                                   ? &resolve_simd_kernels(options_.simd)
                                   : nullptr;
  return run_batches([&system, &strategy, &fill_masks, kernels, validate, n,
                      stride] {
    auto workspace = std::make_shared<TrialWorkspace>(n);
    return [workspace, &system, &strategy, &fill_masks, kernels, validate, n,
            stride](std::size_t begin, std::size_t end, Rng& rng,
                    RunningStats& out) {
      TrialWorkspace& ws = *workspace;
      const std::size_t count = end - begin;
      std::uint64_t* masks = ws.coloring_masks(count);
      fill_masks(masks, count, rng);
      if (kernels != nullptr) {
        ws.batch_block().configure(*kernels, n);
        run_bit_sliced_trials(strategy, ws.batch_block(), masks, count, n,
                              rng, out);
        return;
      }
      for (std::size_t i = 0; i < count; ++i) {
        ws.coloring().assign_greens_words(masks + i * stride);
        ProbeSession& session = ws.begin_trial(ws.coloring());
        const Witness witness = strategy.run(session, rng);
        if (validate)
          check_witness(system, strategy, ws.coloring(), witness, session);
        out.add(static_cast<double>(session.probe_count()));
      }
    };
  });
}

}  // namespace qps
