#include "engine/pipeline.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/fault_injection.h"
#include "common/thread_pool.h"
#include "core/placement.h"
#include "engine/baselines.h"
#include "engine/synthesis_cache.h"

namespace p2::engine {

Pipeline::Pipeline(SynthesisCache& cache, ThreadPool& pool,
                   core::LoweringMemo& memo, const Engine& engine,
                   PipelineOptions options)
    : cache_(cache),
      pool_(pool),
      memo_(memo),
      engine_(engine),
      options_(options) {}

namespace {

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// Lowers, predicts and (guided-)measures every program of one placement,
// given its synthesis: the per-placement evaluation of Pipeline::Run and of
// EvaluateUncachedPlacement. Each program's synthesis-level replay comes
// from `memo`; each distinct step is built once and predicted once per
// placement (core::PlacementSteps), and every program's prediction and
// measurement add the same doubles in the same order as
// CostModel::PredictProgram and Executor::MeasureProgram on LowerProgram's
// steps.
PlacementEvaluation EvaluateSynthesized(const Engine& engine,
                                        core::LoweringMemo& memo,
                                        const core::ParallelismMatrix& matrix,
                                        const core::SynthesisHierarchy& sh,
                                        const core::SynthesisResult& synthesis,
                                        int measure_top_k) {
  const bool guided = measure_top_k >= 0;
  const bool measure_all = !guided && engine.options().measure;
  const double payload = engine.payload_bytes();
  const core::NcclAlgo algo = engine.options().algo;

  PlacementEvaluation eval;
  eval.matrix = matrix;
  eval.synthesis_seconds = synthesis.stats.seconds;
  eval.synthesis_stats = synthesis.stats;

  core::PlacementSteps steps(sh);
  std::vector<std::optional<double>> predicted;  // by step id
  // Each evaluated program's step ids, kept for the guided top-k
  // measurement pass below.
  std::vector<std::vector<std::size_t>> step_ids;
  step_ids.reserve(synthesis.programs.size() + 1);
  const auto measure_steps = [&](const std::vector<std::size_t>& ids) {
    double total = 0.0;
    for (const std::size_t id : ids) {
      total += engine.executor().MeasureStep(steps.step(id), payload, algo);
    }
    return total;
  };
  const auto evaluate = [&](const core::Program& program,
                            std::vector<std::size_t> ids) {
    ProgramEvaluation& e = eval.programs.emplace_back();
    e.program = program;
    e.text = core::ToString(program, sh.level_names());
    e.num_steps = static_cast<int>(program.size());
    predicted.resize(steps.size());
    double total = 0.0;
    for (const std::size_t id : ids) {
      if (!predicted[id]) {
        predicted[id] =
            engine.cost_model().PredictStep(steps.step(id), payload, algo);
      }
      total += *predicted[id];
    }
    e.predicted_seconds = total;
    if (measure_all) {
      e.measured_seconds = measure_steps(ids);
      e.measured = true;
    }
    step_ids.push_back(std::move(ids));
  };

  // The default AllReduce always comes first; the synthesizer also finds it,
  // so drop the duplicate from the synthesized list.
  const core::Program default_ar = DefaultAllReduceProgram();
  evaluate(default_ar,
           steps.Lower(default_ar, memo.Fractions(sh.levels(), default_ar)));
  eval.programs.front().is_default_allreduce = true;
  const std::size_t default_step = step_ids.front().front();

  for (const core::Program& p : synthesis.programs) {
    std::vector<std::size_t> ids =
        steps.Lower(p, memo.Fractions(sh.levels(), p));
    if (ids.size() == 1 &&
        steps.step(ids[0]).op == core::Collective::kAllReduce &&
        steps.step(ids[0]).groups == steps.step(default_step).groups) {
      // A one-step program with the same lowered groups *is* the default.
      continue;
    }
    evaluate(p, std::move(ids));
  }

  if (guided) {
    // Measure the default AllReduce and the top-k by prediction (stable on
    // prediction ties, so the measured set is deterministic), reusing the
    // steps from the predict pass above.
    std::vector<int> order(eval.programs.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<int>(i);
    }
    std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
      return eval.programs[static_cast<std::size_t>(a)].predicted_seconds <
             eval.programs[static_cast<std::size_t>(b)].predicted_seconds;
    });
    auto measure = [&](int index) {
      auto& p = eval.programs[static_cast<std::size_t>(index)];
      if (p.measured) return;
      p.measured_seconds =
          measure_steps(step_ids[static_cast<std::size_t>(index)]);
      p.measured = true;
    };
    measure(0);  // the baseline is always measured
    // Early stopping over the top-k: a candidate whose *prediction* already
    // exceeds the incumbent's *measurement* by more than the model's
    // observed overprediction is skipped — under every pred/meas ratio seen
    // so far in this placement, its measurement could not beat the
    // incumbent. The bound tightens as measurements accrue; everything here
    // is a pure function of the (deterministic) predictions and
    // measurements, so the measured set — and with it the whole result —
    // stays byte-identical at any thread count and cache state.
    double incumbent_measured = eval.programs.front().measured_seconds;
    double overprediction = 1.0;  // max observed predicted/measured, >= 1
    const auto observe = [&](const ProgramEvaluation& p) {
      if (p.measured_seconds > 0.0) {
        overprediction = std::max(overprediction,
                                  p.predicted_seconds / p.measured_seconds);
        incumbent_measured = std::min(incumbent_measured, p.measured_seconds);
      }
    };
    observe(eval.programs.front());
    for (int i = 0; i < measure_top_k && i < static_cast<int>(order.size());
         ++i) {
      const int index = order[static_cast<std::size_t>(i)];
      auto& p = eval.programs[static_cast<std::size_t>(index)];
      if (p.measured) continue;  // the baseline may sit inside the top-k
      if (p.predicted_seconds > incumbent_measured * overprediction) {
        // `order` is prediction-ascending, so once one candidate is
        // provably behind, all remaining ones are too; counting them
        // individually keeps the report honest about what was skipped.
        ++eval.guided_skipped;
        continue;
      }
      measure(index);
      observe(p);
    }
  }
  return eval;
}

}  // namespace

PlacementEvaluation EvaluateUncachedPlacement(
    const Engine& engine, const core::ParallelismMatrix& matrix,
    std::span<const int> reduction_axes, int measure_top_k) {
  const auto sh = core::SynthesisHierarchy::Build(
      matrix, reduction_axes, engine.options().hierarchy_kind,
      engine.options().collapse_hierarchy);
  core::LoweringMemo memo;
  return EvaluateSynthesized(
      engine, memo, matrix, sh,
      core::SynthesizePrograms(sh, engine.options().synthesis),
      measure_top_k);
}

ExperimentResult Pipeline::Run(std::span<const std::int64_t> axes,
                               std::span<const int> reduction_axes) {
  const auto start = std::chrono::steady_clock::now();
  // A request aborted while queued (deadline already past, Cancel() before
  // the pool got to it) unwinds before doing any work.
  options_.cancel.ThrowIfCancelled();

  ExperimentResult result;
  result.axes.assign(axes.begin(), axes.end());
  result.reduction_axes.assign(reduction_axes.begin(), reduction_axes.end());
  result.algo = engine_.options().algo;
  result.payload_bytes = engine_.payload_bytes();

  // Stage 1: enumerate placements (deterministic lexicographic order).
  const auto placements =
      core::EnumeratePlacements(engine_.cluster().hierarchy(), axes);
  const std::size_t n = placements.size();

  // Stage 2: build each placement's synthesis hierarchy and group placements
  // by signature. `members_of[u]` lists the placements sharing unique
  // signature u, in placement order.
  std::vector<core::SynthesisHierarchy> hierarchies;
  hierarchies.reserve(n);
  for (const auto& matrix : placements) {
    hierarchies.push_back(core::SynthesisHierarchy::Build(
        matrix, reduction_axes, engine_.options().hierarchy_kind,
        engine_.options().collapse_hierarchy));
  }
  std::vector<std::vector<std::size_t>> members_of;
  std::unordered_map<std::string, std::size_t> group_of_signature;
  for (std::size_t i = 0; i < n; ++i) {
    const auto [it, inserted] = group_of_signature.try_emplace(
        SynthesisCache::BaseKey(hierarchies[i], engine_.options().synthesis),
        members_of.size());
    if (inserted) members_of.emplace_back();
    members_of[it->second].push_back(i);
  }

  // This request's work items. Other in-flight requests have their own
  // groups on the same pool; the scheduler interleaves them round-robin and
  // Wait helps execute instead of idling a worker, so requests running *as*
  // pool tasks make progress too.
  ThreadPool::TaskGroup group(pool_);

  // Stages 3+4: synthesize once per unique signature, then
  // lower/predict/measure every placement, as one deferral-aware work loop.
  // Each placement's cache events land in its own record, so this
  // request's cache accounting below is deterministic in placement order
  // and never includes other requests' activity; the results land in
  // preallocated slots whose order equals placement order, which *is* the
  // deterministic merge — the output matches the serial path byte for byte.
  //
  // The engine's synthesis knobs plus this request's token, threaded into
  // every dispatch below. Execution-only (SynthesisCache::BaseKey excludes
  // the token — stage 2 keyed with the engine's plain options and gets the
  // same groups), so cache entries stay shared across requests regardless
  // of who carries a token.
  core::SynthesisOptions synth_options = engine_.options().synthesis;
  synth_options.cancel = options_.cancel;
  std::vector<std::shared_ptr<const core::SynthesisResult>> synthesis(n);
  std::vector<SynthesisCacheStats> counted(n);
  result.placements.resize(n);

  // One self-re-enqueueing resolve task per signature group. Members
  // resolve through non-blocking TryLookup; a group whose signature is
  // being synthesized by another request reserves its pool slot, registers
  // a completion continuation, and returns — the thread moves on to other
  // pending tasks (this request's or anyone else's) instead of blocking —
  // and the continuation (owner publish or owner death) commits the task
  // back into the group. Once every member holds its synthesis the group
  // fans its evaluations into the same TaskGroup, so downstream
  // lower/predict work interleaves with other groups' synthesis instead of
  // waiting behind a barrier. Inline pools run the same loop: a
  // continuation fired by another caller's thread commits into the queue
  // this request's Wait drains.
  struct GroupState {
    std::size_t next_member = 0;  ///< members resolved so far
    SynthesisCache::DeferredLookup deferred;
    double synth_seconds = 0.0;
  };
  std::vector<GroupState> group_states(members_of.size());
  std::vector<double> eval_seconds(n, 0.0);

  // One FireState per deferral: whoever wins the fire-once CAS commits the
  // re-enqueued resolve task — the cache continuation, or the cancel kick
  // below. The shared_ptr keeps a late losing fire (a continuation an owner
  // extracted before CancelDeferred could withdraw it) safe even after this
  // frame unwound: it CAS-fails and touches nothing.
  struct FireState {
    std::atomic<bool> fired{false};
    ThreadPool::TaskGroup* group = nullptr;
    std::function<void()> task;
  };
  const auto try_fire = [](const std::shared_ptr<FireState>& state) {
    bool expected = false;
    if (state->fired.compare_exchange_strong(expected, true)) {
      state->group->CommitDeferred(std::move(state->task));
    }
  };
  std::mutex fire_mu;
  bool kicked = false;  // guarded by fire_mu
  std::vector<std::shared_ptr<FireState>> pending_fires;  // ditto

  std::function<void(std::size_t)> resolve = [&](std::size_t g) {
    MaybeInjectFault("pipeline.synthesize");
    options_.cancel.ThrowIfCancelled();
    GroupState& state = group_states[g];
    const auto& members = members_of[g];
    while (state.next_member < members.size()) {
      const std::size_t i = members[state.next_member];
      // Reserve the pool slot BEFORE the lookup can register the
      // continuation: a continuation firing instantly must find the
      // reservation its CommitDeferred settles.
      group.ReserveDeferred();
      auto fire = std::make_shared<FireState>();
      fire->group = &group;
      fire->task = [&resolve, g] { resolve(g); };
      SynthesisCache::TryLookupResult looked = cache_.TryLookup(
          hierarchies[i], synth_options, [fire, try_fire] { try_fire(fire); },
          &state.deferred, &counted[i], options_.tenant);
      if (looked.state == SynthesisCache::TryLookupState::kInFlight) {
        // Publish the pending fire for the cancel kick. If the kick already
        // ran, nobody walks the registry again — self-fire, and the
        // committed re-run observes the cancellation and unwinds.
        bool kick_now = false;
        {
          std::lock_guard<std::mutex> fire_lock(fire_mu);
          pending_fires.push_back(fire);
          kick_now = kicked;
        }
        if (kick_now) try_fire(fire);
        // The reservation keeps group.Wait blocked (and helping) until
        // exactly one CommitDeferred re-runs this task.
        return;
      }
      // Not deferred: no continuation was registered, so the FireState is
      // ours alone — neutralize it and release the unused reservation.
      fire->fired.store(true, std::memory_order_relaxed);
      group.AbandonDeferred();
      if (looked.state == SynthesisCache::TryLookupState::kOwned) {
        // This call owns the signature: the cache's owner sequence tries
        // the remote plane, else synthesizes and publishes — or, on a
        // throw (cancellation included), withdraws the claim first, the
        // dead-owner contract. The owner never defers on its own claim, so
        // every in-flight signature always has a running owner: owner
        // chains cannot cycle.
        const auto owned_start = std::chrono::steady_clock::now();
        synthesis[i] = cache_.SynthesizeOwned(
            hierarchies[i], synth_options, &counted[i], options_.tenant);
        state.synth_seconds += SecondsSince(owned_start);
      } else {
        synthesis[i] = std::move(looked.result);  // kReady: hit counted
      }
      ++state.next_member;
    }
    // All members resolved: fan this group's evaluations into the same
    // TaskGroup (submitting without waiting from inside a task is
    // supported), where they interleave with other groups' work.
    for (const std::size_t i : members) {
      group.Submit([&, i] {
        MaybeInjectFault("pipeline.evaluate");
        options_.cancel.ThrowIfCancelled();
        const auto eval_start = std::chrono::steady_clock::now();
        result.placements[i] = EvaluateSynthesized(
            engine_, memo_, placements[i], hierarchies[i], *synthesis[i],
            options_.measure_top_k);
        eval_seconds[i] = SecondsSince(eval_start);
      });
    }
  };

  for (std::size_t g = 0; g < members_of.size(); ++g) {
    group.Submit([&resolve, g] { resolve(g); });
  }
  // The cancel kick flushes every pending deferral back into the queue. It
  // COMMITS (never abandons), so each pool reservation is settled by
  // exactly one commit; the re-run tasks observe the cancellation at their
  // checkpoint and unwind into the group's first error, which Wait rethrows
  // with the usual abort taxonomy. Setting `kicked` under fire_mu closes
  // the race with deferrals registering concurrently — they self-fire
  // above.
  const auto kick = [&] {
    std::vector<std::shared_ptr<FireState>> snapshot;
    {
      std::lock_guard<std::mutex> fire_lock(fire_mu);
      kicked = true;
      snapshot.swap(pending_fires);
    }
    for (const auto& fire : snapshot) try_fire(fire);
  };
  std::exception_ptr error;
  try {
    group.Wait(options_.cancel, kick);
  } catch (...) {
    error = std::current_exception();
  }
  // Wait returned: every pool reservation is settled and no resolve task is
  // running or pending — but a group whose committed task was
  // fail-fast-skipped (or threw at its re-entry checkpoint) still holds its
  // cache-side reservation and continuation registration. Settle them.
  for (GroupState& state : group_states) {
    cache_.CancelDeferred(&state.deferred);
  }
  if (error != nullptr) std::rethrow_exception(error);

  double synthesis_seconds = 0.0;
  double evaluation_seconds = 0.0;
  for (const GroupState& state : group_states) {
    synthesis_seconds += state.synth_seconds;
  }
  for (const double s : eval_seconds) evaluation_seconds += s;

  result.pipeline.num_placements = static_cast<std::int64_t>(n);
  result.pipeline.unique_hierarchies =
      static_cast<std::int64_t>(members_of.size());
  for (const auto& placement : result.placements) {
    result.pipeline.synth_states_visited +=
        placement.synthesis_stats.states_visited;
    result.pipeline.synth_states_deduped +=
        placement.synthesis_stats.states_deduped;
    result.pipeline.synth_branches_pruned +=
        placement.synthesis_stats.branches_pruned;
    result.pipeline.guided_skipped += placement.guided_skipped;
  }
  // Cache accounting from this request's own lookups, summed in placement
  // order (deterministic and double-reproducible — unlike global cache
  // deltas, which under concurrent requests would absorb everyone else's
  // activity).
  for (const SynthesisCacheStats& c : counted) result.pipeline.cache += c;
  result.pipeline.synthesis_seconds = synthesis_seconds;
  result.pipeline.evaluation_seconds = evaluation_seconds;
  result.pipeline.total_seconds = SecondsSince(start);
  result.pipeline.threads = std::max(1, pool_.num_threads());
  return result;
}

}  // namespace p2::engine
