#include "core/sweeper.hpp"

#include <omp.h>

#include <algorithm>

#include "angular/harmonics.hpp"
#include "obs/trace.hpp"
#include "util/assert.hpp"
#include "util/threads.hpp"
#include "util/timer.hpp"

namespace unsnap::core {

Sweeper::Sweeper(const Assembler& assembler, SweepConfig config)
    : assembler_(&assembler),
      config_(config),
      kernel_options_{config.solver, false, config.time_solve} {
  require(config_.ng >= 1, "SweepConfig: ng must be positive");
  require(config_.nmom >= 1, "SweepConfig: nmom must be positive");
  const int n = assembler.discretization().num_nodes();
  const int nf = assembler.discretization().nodes_per_face();
  // Size the per-thread scratch from a stable upper bound, not just the
  // current omp_get_max_threads(): callers may raise the OpenMP thread
  // count after construction, and contexts_[omp_get_thread_num()] must
  // never index out of bounds (ensure_contexts() re-checks per sweep as a
  // backstop for counts above even the hardware concurrency).
  contexts_.resize(static_cast<std::size_t>(
      std::max(omp_get_max_threads(), util::hardware_threads())));
  for (auto& ctx : contexts_) ctx.resize(n, nf);

  if (config_.nmom > 1) {
    const angular::SphericalHarmonics sh(config_.nmom - 1);
    const angular::QuadratureSet& quad =
        assembler.discretization().quadrature();
    const auto count = static_cast<std::size_t>(sh.count());
    const auto nang = static_cast<std::size_t>(quad.per_octant());
    ylm_acc_.resize({angular::kOctants, nang, count});
    ylm_src_.resize({angular::kOctants, nang, count});
    for (int oct = 0; oct < angular::kOctants; ++oct)
      for (int a = 0; a < quad.per_octant(); ++a) {
        sh.evaluate(quad.direction(oct, a), &ylm_acc_(oct, a, 0));
        for (int m = 0; m < sh.count(); ++m)
          ylm_src_(oct, a, m) =
              (2 * sh.l_of(m) + 1) * ylm_acc_(oct, a, m);
      }
  }
}

template <class E, class Body>
void Sweeper::parallel_bucket(long count, util::RegionErrors& errors,
                              Body&& body) {
  // `omp for schedule(static)` hands out the same iteration blocks a
  // combined `parallel for schedule(static)` would; `nowait` lets each
  // thread flush its own queue before the region's closing barrier.
#pragma omp parallel
  {
    AssemblyContext& ctx = contexts_[omp_get_thread_num()];
#pragma omp for schedule(static) nowait
    for (long idx = 0; idx < count; ++idx)
      errors.capture([&] { body(ctx, idx); });
    errors.capture(
        [&] { assembler_->flush<E::n, E::nf>(ctx, kernel_options_); });
  }
}

template <class E>
void Sweeper::sweep_angle(SweepState state, int oct, int a) {
  const Discretization& disc = assembler_->discretization();
  const sweep::SweepSchedule& schedule = disc.schedules().get(oct, a);
  const Vec3 omega = disc.quadrature().direction(oct, a);
  const double weight = disc.quadrature().weight(a);
  const int ng = config_.ng;
  const Assembler& assembler = *assembler_;
  const KernelOptions& options = kernel_options_;
  state.schedule = &schedule;
  if (config_.nmom > 1) {
    state.moment_count = config_.nmom * config_.nmom;
    state.ylm_acc = &ylm_acc_(oct, a, 0);
    state.ylm_src = &ylm_src_(oct, a, 0);
  }

  util::RegionErrors errors;
  for (int b = 0; b < schedule.num_buckets(); ++b) {
    const std::span<const int> bucket = schedule.bucket(b);
    const int nb = static_cast<int>(bucket.size());
    const auto submit = [&](AssemblyContext& ctx, int i, int g) {
      assembler.submit<E::n, E::nf>(
          ctx, {&state, omega, weight, oct, a, bucket[i], g}, options);
    };

    switch (config_.scheme) {
      case ConcurrencyScheme::Serial: {
        // Loop order follows the configured layout for cache coherence.
        AssemblyContext& ctx = contexts_[0];
        if (config_.loop_order == FluxLayout::AngleElementGroup) {
          for (int i = 0; i < nb; ++i)
            for (int g = 0; g < ng; ++g) submit(ctx, i, g);
        } else {
          for (int g = 0; g < ng; ++g)
            for (int i = 0; i < nb; ++i) submit(ctx, i, g);
        }
        assembler.flush<E::n, E::nf>(ctx, options);
        break;
      }

      case ConcurrencyScheme::Elements:
        // Thread the independent elements of the bucket; groups serial
        // inside each thread ("angle/element/group" with elements bold).
        parallel_bucket<E>(nb, errors, [&](AssemblyContext& ctx, long i) {
          for (int g = 0; g < ng; ++g) submit(ctx, static_cast<int>(i), g);
        });
        break;

      case ConcurrencyScheme::Groups:
        // Thread energy groups; elements serial inside each thread.
        parallel_bucket<E>(ng, errors, [&](AssemblyContext& ctx, long g) {
          for (int i = 0; i < nb; ++i) submit(ctx, i, static_cast<int>(g));
        });
        break;

      case ConcurrencyScheme::ElementsGroups: {
        // Collapse the element and group loops (the paper's best scheme).
        // The decode order reproduces the OpenMP collapse semantics for
        // the configured loop order: AEG iterates groups fastest, AGE
        // iterates elements fastest.
        const bool aeg = config_.loop_order == FluxLayout::AngleElementGroup;
        parallel_bucket<E>(
            static_cast<long>(nb) * ng, errors,
            [&](AssemblyContext& ctx, long idx) {
              const int i = aeg ? static_cast<int>(idx / ng)
                                : static_cast<int>(idx % nb);
              const int g = aeg ? static_cast<int>(idx % ng)
                                : static_cast<int>(idx / nb);
              submit(ctx, i, g);
            });
        break;
      }

      case ConcurrencyScheme::AnglesAtomic:
      case ConcurrencyScheme::AngleBatch:
        UNSNAP_ASSERT(false);  // handled at octant level
        break;
    }
    errors.rethrow();
  }
}

template <class E>
void Sweeper::sweep_octant_batched(const SweepState& state, int oct) {
  // Angle batching over same-signature schedules: angles sharing a
  // dependency signature share a bucket list, so one walk of that list
  // serves the whole batch. Threads own elements — each thread solves its
  // element for every batched angle and group, so the scalar-flux row of
  // an element is only ever touched by one thread (no atomics) and every
  // bucket exposes |bucket| x |batch| x ng work units behind a single
  // barrier instead of |bucket| x ng behind |batch| barriers.
  const Discretization& disc = assembler_->discretization();
  const sweep::ScheduleSet& schedules = disc.schedules();
  const int ng = config_.ng;
  const Assembler& assembler = *assembler_;
  const KernelOptions& options = kernel_options_;

  for (const std::vector<int>& batch : schedules.batches(oct)) {
    const sweep::SweepSchedule& schedule = schedules.get(oct, batch[0]);
    const int na = static_cast<int>(batch.size());
    // Build the per-angle table once per batch: the SweepState copy (with
    // schedule and ylm rows bound), direction and weight of every batched
    // angle. The hot element loop below then just walks the table —
    // without this, each of the |bucket| x |batch| inner iterations
    // re-copied the SweepState and re-derived the quadrature lookups.
    batch_angles_.clear();
    batch_angles_.reserve(static_cast<std::size_t>(na));
    for (int k = 0; k < na; ++k) {
      const int a = batch[k];
      BatchAngle ba;
      ba.state = state;  // per-angle coefficient rows
      ba.state.schedule = &schedule;
      if (config_.nmom > 1) {
        ba.state.moment_count = config_.nmom * config_.nmom;
        ba.state.ylm_acc = &ylm_acc_(oct, a, 0);
        ba.state.ylm_src = &ylm_src_(oct, a, 0);
      }
      ba.omega = disc.quadrature().direction(oct, a);
      ba.weight = disc.quadrature().weight(a);
      ba.a = a;
      batch_angles_.push_back(ba);
    }
    for (int b = 0; b < schedule.num_buckets(); ++b) {
      const std::span<const int> bucket = schedule.bucket(b);
      const int nb = static_cast<int>(bucket.size());
      // Explicit parallel region (not parallel_bucket) so every worker can
      // open its own "sweep.batch" span — the per-thread timeline is the
      // whole point of the trace. The `for schedule(static)` inside hands
      // out the identical iteration blocks a combined `parallel for
      // schedule(static)` would, so flux accumulation order (and thus the
      // golden digests) is unchanged.
      util::RegionErrors errors;
#pragma omp parallel
      {
        OBS_SPAN("sweep.batch", "bucket", b, "elements", nb);
        AssemblyContext& ctx = contexts_[omp_get_thread_num()];
#pragma omp for schedule(static) nowait
        for (int i = 0; i < nb; ++i) {
          errors.capture([&] {
            const int e = bucket[i];
            for (const BatchAngle& ba : batch_angles_) {
              for (int g = 0; g < ng; ++g)
                assembler.submit<E::n, E::nf>(
                    ctx, {&ba.state, ba.omega, ba.weight, oct, ba.a, e, g},
                    options);
            }
          });
        }
        errors.capture(
            [&] { assembler.flush<E::n, E::nf>(ctx, options); });
      }
      errors.rethrow();
    }
  }
}

template <class E>
void Sweeper::sweep_octant_angles_atomic(const SweepState& state, int oct) {
  // Thread over the independent angles of the octant (paper §IV-A-3).
  // Every thread walks its own angle's schedule serially; the shared
  // scalar-flux reduction forces atomic accumulation, which is exactly the
  // non-scaling behaviour the paper reports.
  const Discretization& disc = assembler_->discretization();
  const int nang = disc.nang();
  const int ng = config_.ng;
  KernelOptions options = kernel_options_;
  options.atomic_phi = true;

  util::RegionErrors errors;
#pragma omp parallel for schedule(dynamic, 1)
  for (int a = 0; a < nang; ++a) {
    errors.capture([&] {
      AssemblyContext& ctx = contexts_[omp_get_thread_num()];
      SweepState local = state;  // per-angle coefficient rows
      if (config_.nmom > 1) {
        local.moment_count = config_.nmom * config_.nmom;
        local.ylm_acc = &ylm_acc_(oct, a, 0);
        local.ylm_src = &ylm_src_(oct, a, 0);
      }
      const sweep::SweepSchedule& schedule = disc.schedules().get(oct, a);
      local.schedule = &schedule;
      const Vec3 omega = disc.quadrature().direction(oct, a);
      const double weight = disc.quadrature().weight(a);
      for (int b = 0; b < schedule.num_buckets(); ++b) {
        for (const int e : schedule.bucket(b))
          for (int g = 0; g < ng; ++g)
            assembler_->submit<E::n, E::nf>(
                ctx, {&local, omega, weight, oct, a, e, g}, options);
        assembler_->flush<E::n, E::nf>(ctx, options);
      }
    });
  }
  errors.rethrow();
}

void Sweeper::ensure_contexts() {
  const auto needed = static_cast<std::size_t>(omp_get_max_threads());
  if (needed <= contexts_.size()) return;
  const int n = assembler_->discretization().num_nodes();
  const int nf = assembler_->discretization().nodes_per_face();
  contexts_.resize(needed);
  for (auto& ctx : contexts_)
    if (ctx.rhs.size() != static_cast<std::size_t>(n)) ctx.resize(n, nf);
}

void Sweeper::sweep_begin(SweepState& state) {
  UNSNAP_ASSERT(state.psi != nullptr && state.phi != nullptr &&
                state.qin != nullptr);
  ensure_contexts();
  state.phi->fill(0.0);
  if (state.phi_hi != nullptr)
    for (auto& field : *state.phi_hi) field.fill(0.0);
  for (auto& ctx : contexts_) ctx.solve_seconds = 0.0;
  sweep_seconds_ = 0.0;
}

void Sweeper::sweep_octant(SweepState& state, int oct) {
  OBS_SPAN("sweep.octant", "oct", oct, "elements",
           assembler_->discretization().num_elements());
  Stopwatch watch;
  watch.start();
  const Discretization& disc = assembler_->discretization();
  with_extent(disc, [&](auto ext) {
    using E = decltype(ext);
    if (config_.scheme == ConcurrencyScheme::AnglesAtomic) {
      sweep_octant_angles_atomic<E>(state, oct);
    } else if (config_.scheme == ConcurrencyScheme::AngleBatch) {
      sweep_octant_batched<E>(state, oct);
    } else {
      for (int a = 0; a < disc.nang(); ++a) sweep_angle<E>(state, oct, a);
    }
  });
  sweep_seconds_ += watch.stop();
}

void Sweeper::sweep_end() {
  // Average over the threads that solved. Each thread's solve time lies
  // inside the sweep's wall time, so the average does too, at any thread
  // count.
  double total = 0.0;
  int solving = 0;
  for (const auto& ctx : contexts_) {
    if (ctx.solve_seconds <= 0.0) continue;
    total += ctx.solve_seconds;
    ++solving;
  }
  solve_seconds_ = solving > 0 ? total / solving : 0.0;
}

}  // namespace unsnap::core
