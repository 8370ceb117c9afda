#include "dta/batch_engine.hpp"

#include <algorithm>
#include <condition_variable>
#include <cstring>
#include <mutex>
#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "obs/metrics.hpp"
#include "obs/span_tracer.hpp"

namespace focs::dta {

namespace {

/// Ring depth: one slot being filled, one being merged, plus one in flight
/// per worker keeps every thread busy without unbounded buffering.
std::size_t ring_slots(int threads) { return static_cast<std::size_t>(threads) + 2; }

[[noreturn]] void throw_violated_endpoint() {
    throw Error("gate-level simulation clock violated an endpoint");
}

#ifndef FOCS_OBS_COMPILE_OUT
/// Pipeline-stage metrics of the batched engine, on the global registry.
/// All sites fire per batch / per shard / per stall — never per cycle or
/// per endpoint — so the disabled cost is one relaxed load at each.
struct BatchObsIds {
    obs::MetricsRegistry::Id batches, cycles, producer_stalls, shard_kernels, merges,
        ring_occupancy;
    explicit BatchObsIds(obs::MetricsRegistry& m)
        : batches(m.counter("dta.batches_published")),
          cycles(m.counter("dta.cycles_batched")),
          producer_stalls(m.counter("dta.producer_stalls")),
          shard_kernels(m.counter("dta.shard_kernels")),
          merges(m.counter("dta.merges")),
          ring_occupancy(m.gauge("dta.ring_occupancy")) {}
};

const BatchObsIds& batch_obs_ids() {
    static const BatchObsIds ids(obs::global_metrics());
    return ids;
}
#endif

}  // namespace

// ---------------------------------------------------------------- parallel

struct BatchCharacterizationEngine::Impl {
    struct Slot {
        std::vector<std::uint64_t> cycles;
        std::vector<std::array<OccKey, sim::kStageCount>> keys;
        std::vector<std::array<double, sim::kStageCount>> stage_ps;
        std::size_t count = 0;
        /// Per-shard partial per-stage maxima, [shard][cycle][stage] flat.
        std::vector<double> partial;
        int next_shard = 0;
        int shards_done = 0;
        enum class State { kFree, kKernel, kMerge } state = State::kFree;
    };

    std::vector<Slot> ring;
    /// Slots are processed strictly in sequence order: the producer fills
    /// slot produce_seq, workers drain any published slot, the merger folds
    /// slot merge_seq. merge_seq <= produce_seq < merge_seq + ring.size().
    std::uint64_t produce_seq = 0;
    std::uint64_t merge_seq = 0;
    bool producer_owns = false;  ///< producer is filling ring[produce_seq % n]
    bool stopping = false;
    std::exception_ptr error;

    std::mutex mutex;
    std::condition_variable work_cv;   ///< workers: kernel work / stop
    std::condition_variable space_cv;  ///< producer: next slot freed
    std::condition_variable merge_cv;  ///< merger: oldest slot kernel-done

    std::vector<std::thread> workers;
    std::thread merger;

    Slot* find_kernel_work(int shard_count) {
        for (std::uint64_t seq = merge_seq; seq < produce_seq; ++seq) {
            Slot& slot = ring[seq % ring.size()];
            if (slot.state == Slot::State::kKernel && slot.next_shard < shard_count) return &slot;
        }
        return nullptr;
    }

    void fail(std::exception_ptr e) {
        std::lock_guard<std::mutex> lock(mutex);
        if (!error) error = e;
        work_cv.notify_all();
        space_cv.notify_all();
        merge_cv.notify_all();
    }
};

BatchCharacterizationEngine::BatchCharacterizationEngine(
    const timing::SyntheticNetlist& netlist, const timing::DelayCalculator& calculator,
    DynamicTimingAnalysis& analysis, BatchOptions options, double sim_period_factor)
    : soa_(netlist.endpoint_soa()),
      calculator_(calculator),
      analysis_(analysis),
      options_(options) {
    check(sim_period_factor >= 1.0, "gate-sim clock must be at or below the STA frequency");
    check(options_.batch_cycles >= 1, "batch needs at least one cycle per slot");
    check(options_.batch_cycles <= (1 << 24), "implausible batch slot size");
    check(options_.threads <= 256, "implausible endpoint-kernel thread count");
    sim_period_ps_ = calculator.static_period_ps() * sim_period_factor;
    for (int s = 0; s < sim::kStageCount; ++s) {
        check(soa_.stage_size(s) > 0, "netlist has a stage without endpoints");
    }

    // Contiguous endpoint shards over the stage-major SoA order; each shard
    // precomputes the stage segments it overlaps so the kernel's inner loop
    // is branch-free over a flat [begin, end) run.
    const std::size_t total = soa_.size();
    const auto shard_count =
        static_cast<std::size_t>(std::clamp(options_.threads, 1, static_cast<int>(total)));
    shards_.resize(shard_count);
    for (std::size_t shard = 0; shard < shard_count; ++shard) {
        const std::size_t begin = total * shard / shard_count;
        const std::size_t end = total * (shard + 1) / shard_count;
        for (int s = 0; s < sim::kStageCount; ++s) {
            Segment seg;
            seg.stage = s;
            seg.stage_first = soa_.stage_begin[static_cast<std::size_t>(s)];
            seg.stage_size = soa_.stage_size(s);
            seg.begin = std::max(begin, seg.stage_first);
            seg.end = std::min(end, soa_.stage_begin[static_cast<std::size_t>(s) + 1]);
            if (seg.begin < seg.end) shards_[shard].push_back(seg);
        }
    }

    const auto batch = static_cast<std::size_t>(options_.batch_cycles);
    if (options_.threads <= 1) {
        serial_cycles_.resize(batch);
        serial_keys_.resize(batch);
        serial_stage_ps_.resize(batch);
        serial_partial_.resize(batch * sim::kStageCount);
        fold_scratch_.resize(batch);
        return;
    }

    impl_ = std::make_unique<Impl>();
    impl_->ring.resize(ring_slots(options_.threads));
    for (Impl::Slot& slot : impl_->ring) {
        slot.cycles.resize(batch);
        slot.keys.resize(batch);
        slot.stage_ps.resize(batch);
        slot.partial.resize(shards_.size() * batch * sim::kStageCount);
    }
    fold_scratch_.resize(batch);

    Impl* impl = impl_.get();
    const int worker_count = options_.threads;
    const auto worker_main = [this, impl, shard_count = static_cast<int>(shards_.size())] {
        for (;;) {
            Impl::Slot* slot = nullptr;
            int shard = -1;
            {
                std::unique_lock<std::mutex> lock(impl->mutex);
                impl->work_cv.wait(lock, [&] {
                    return impl->error || impl->stopping ||
                           impl->find_kernel_work(shard_count) != nullptr;
                });
                if (impl->error) return;
                slot = impl->find_kernel_work(shard_count);
                if (slot == nullptr) {
                    if (impl->stopping) return;
                    continue;
                }
                shard = slot->next_shard++;
            }
            try {
                FOCS_OBS_SPAN(span, obs::global_tracer(), "dta.shard_kernel");
                span.arg("shard", static_cast<std::int64_t>(shard))
                    .arg("cycles", static_cast<std::int64_t>(slot->count));
                FOCS_OBS(obs::global_metrics().add(batch_obs_ids().shard_kernels));
                const std::size_t stride = slot->cycles.size() * sim::kStageCount;
                run_shard(shards_[static_cast<std::size_t>(shard)], slot->cycles.data(),
                          slot->stage_ps.data(), slot->count,
                          slot->partial.data() + static_cast<std::size_t>(shard) * stride);
            } catch (...) {
                impl->fail(std::current_exception());
                return;
            }
            {
                std::lock_guard<std::mutex> lock(impl->mutex);
                if (++slot->shards_done == shard_count) {
                    slot->state = Impl::Slot::State::kMerge;
                    impl->merge_cv.notify_one();
                }
            }
        }
    };
    const auto merger_main = [this, impl] {
        for (;;) {
            Impl::Slot* slot = nullptr;
            {
                std::unique_lock<std::mutex> lock(impl->mutex);
                impl->merge_cv.wait(lock, [&] {
                    if (impl->error) return true;
                    if (impl->merge_seq < impl->produce_seq) {
                        return impl->ring[impl->merge_seq % impl->ring.size()].state ==
                               Impl::Slot::State::kMerge;
                    }
                    return impl->stopping;
                });
                if (impl->error) return;
                if (impl->merge_seq == impl->produce_seq) return;  // stopping, drained
                slot = &impl->ring[impl->merge_seq % impl->ring.size()];
            }
            try {
                FOCS_OBS_SPAN(span, obs::global_tracer(), "dta.merge");
                span.arg("cycles", static_cast<std::int64_t>(slot->count));
                FOCS_OBS(obs::global_metrics().add(batch_obs_ids().merges));
                // Deterministic shard-order max-merge of the partial per-
                // stage maxima, then one block fold into the analyzer.
                const std::size_t stride = slot->cycles.size() * sim::kStageCount;
                for (std::size_t c = 0; c < slot->count; ++c) {
                    FoldedCycle& fold = fold_scratch_[c];
                    fold.cycle = slot->cycles[c];
                    fold.keys = slot->keys[c];
                    fold.stage_ps.fill(0.0);
                    for (std::size_t shard = 0; shard < shards_.size(); ++shard) {
                        const double* row =
                            slot->partial.data() + shard * stride + c * sim::kStageCount;
                        for (int s = 0; s < sim::kStageCount; ++s) {
                            const auto stage = static_cast<std::size_t>(s);
                            if (row[stage] > fold.stage_ps[stage]) fold.stage_ps[stage] = row[stage];
                        }
                    }
                }
                analysis_.consume_batch({fold_scratch_.data(), slot->count});
            } catch (...) {
                impl->fail(std::current_exception());
                return;
            }
            {
                std::lock_guard<std::mutex> lock(impl->mutex);
                slot->count = 0;
                slot->next_shard = 0;
                slot->shards_done = 0;
                slot->state = Impl::Slot::State::kFree;
                ++impl->merge_seq;
                impl->space_cv.notify_one();
            }
        }
    };

    impl_->workers.reserve(static_cast<std::size_t>(worker_count));
    for (int i = 0; i < worker_count; ++i) impl_->workers.emplace_back(worker_main);
    impl_->merger = std::thread(merger_main);
}

BatchCharacterizationEngine::~BatchCharacterizationEngine() {
    if (impl_ == nullptr || finished_) return;
    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        impl_->stopping = true;
        impl_->work_cv.notify_all();
        impl_->merge_cv.notify_all();
    }
    for (std::thread& worker : impl_->workers) worker.join();
    if (impl_->merger.joinable()) impl_->merger.join();
}

// -------------------------------------------------------------- the kernel

void BatchCharacterizationEngine::run_shard(const std::vector<Segment>& shard,
                                            const std::uint64_t* cycles,
                                            const std::array<double, sim::kStageCount>* stage_ps,
                                            std::size_t count, double* partial) const {
    const double* skew = soa_.skew_ps.data();
    const std::uint64_t* jitter_key = soa_.jitter_key.data();
    const double sim_period = sim_period_ps_;

    for (std::size_t c = 0; c < count; ++c) {
        const std::uint64_t cycle = cycles[c];
        const std::uint64_t cycle_mix = cycle * 131u;
        double local[sim::kStageCount] = {};
        for (const Segment& seg : shard) {
            const double required = stage_ps[c][static_cast<std::size_t>(seg.stage)];
            // One endpoint of the stage carries the worst arrival this
            // cycle (rotating pseudo-randomly, like the shifting worst
            // endpoint of a real design); the rest settle earlier by a
            // per-endpoint jitter factor derived from ONE fused splitmix64
            // over the precomputed per-endpoint key. The event-emitting
            // producer hashes a second round on top; since every jittered
            // endpoint settles strictly earlier than the worst one, the
            // recovered per-stage maximum — the only value the analyzer
            // accumulates — is identical either way.
            const std::size_t worst =
                splitmix64(cycle * 31 + static_cast<std::uint64_t>(seg.stage)) % seg.stage_size;
            double stage_max = 0;
            for (std::size_t i = seg.begin; i < seg.end; ++i) {
                double endpoint_required = required;
                if (i - seg.stage_first != worst) {
                    endpoint_required *= 0.45 + 0.5 * hash_unit_double(cycle_mix + jitter_key[i]);
                }
                // Fused event production + slack recovery: events carry the
                // normalized requirement directly (see GateLevelSimulation),
                // so the recovered value is the requirement itself. The
                // slack check keeps the exact floating-point expression
                // order of DynamicTimingAnalysis::analyze so the two paths
                // accept/reject identically.
                const double clock_edge = sim_period + skew[i];
                const double slack = clock_edge - endpoint_required - skew[i];
                if (slack < 0) throw_violated_endpoint();
                if (endpoint_required > stage_max) stage_max = endpoint_required;
            }
            local[seg.stage] = stage_max;
        }
        std::memcpy(partial + c * sim::kStageCount, local, sizeof local);
    }
}

// -------------------------------------------------------------- the driver

void BatchCharacterizationEngine::on_cycle(const sim::CycleRecord& record) {
    if (finished_) [[unlikely]] {
        throw Error("batched characterization engine already finished");
    }
    if (impl_ == nullptr) {
        // Slot-boundary cancellation check: one token poll per
        // batch_cycles cycles, nothing on the per-cycle path.
        if (serial_count_ == 0 && options_.cancel != nullptr) {
            options_.cancel->throw_if_cancelled();
        }
        serial_cycles_[serial_count_] = record.cycle;
        serial_keys_[serial_count_] = attribution_keys(record);
        serial_stage_ps_[serial_count_] = calculator_.evaluate(record).stage_ps;
        ++cycles_observed_;
        if (++serial_count_ == serial_cycles_.size()) flush_serial();
        return;
    }

    Impl::Slot& slot = impl_->ring[impl_->produce_seq % impl_->ring.size()];
    if (!impl_->producer_owns) {
        // Slot-boundary cancellation check (see the serial path). Thrown
        // here the exception unwinds through machine.run; the engine's
        // destructor stops and joins the ring threads.
        if (options_.cancel != nullptr) options_.cancel->throw_if_cancelled();
        std::unique_lock<std::mutex> lock(impl_->mutex);
        if (!impl_->error && slot.state != Impl::Slot::State::kFree) {
            // The ring is full: the producer out-ran the kernel/merge
            // stages. The stall count and span show where a slow sweep's
            // characterization time actually went.
            FOCS_OBS(obs::global_metrics().add(batch_obs_ids().producer_stalls));
            FOCS_OBS_SPAN(stall_span, obs::global_tracer(), "dta.producer_stall");
            impl_->space_cv.wait(lock, [&] {
                return impl_->error || slot.state == Impl::Slot::State::kFree;
            });
        }
        if (impl_->error) std::rethrow_exception(impl_->error);
        impl_->producer_owns = true;
    }
    slot.cycles[slot.count] = record.cycle;
    slot.keys[slot.count] = attribution_keys(record);
    slot.stage_ps[slot.count] = calculator_.evaluate(record).stage_ps;
    ++cycles_observed_;
    if (++slot.count == slot.cycles.size()) {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        slot.state = Impl::Slot::State::kKernel;
        ++impl_->produce_seq;
        impl_->producer_owns = false;
        FOCS_OBS({
            obs::MetricsRegistry& metrics = obs::global_metrics();
            metrics.add(batch_obs_ids().batches);
            metrics.add(batch_obs_ids().cycles, slot.cycles.size());
            // Occupancy at publish: slots produced but not yet merged —
            // the pipeline's high-water backlog.
            metrics.gauge_max(batch_obs_ids().ring_occupancy,
                              static_cast<std::int64_t>(impl_->produce_seq - impl_->merge_seq));
        });
        impl_->work_cv.notify_all();
    }
}

void BatchCharacterizationEngine::flush_serial() {
    if (serial_count_ == 0) return;
    FOCS_OBS({
        obs::MetricsRegistry& metrics = obs::global_metrics();
        metrics.add(batch_obs_ids().batches);
        metrics.add(batch_obs_ids().cycles, serial_count_);
    });
    run_shard(shards_[0], serial_cycles_.data(), serial_stage_ps_.data(), serial_count_,
              serial_partial_.data());
    for (std::size_t c = 0; c < serial_count_; ++c) {
        FoldedCycle& fold = fold_scratch_[c];
        fold.cycle = serial_cycles_[c];
        fold.keys = serial_keys_[c];
        const double* row = serial_partial_.data() + c * sim::kStageCount;
        for (int s = 0; s < sim::kStageCount; ++s) {
            fold.stage_ps[static_cast<std::size_t>(s)] = row[s];
        }
    }
    analysis_.consume_batch({fold_scratch_.data(), serial_count_});
    serial_count_ = 0;
}

void BatchCharacterizationEngine::finish() {
    if (finished_) return;
    if (impl_ == nullptr) {
        flush_serial();
        finished_ = true;
        return;
    }

    {
        std::lock_guard<std::mutex> lock(impl_->mutex);
        if (impl_->producer_owns) {
            // Publish the partial tail slot (possibly empty); the merger
            // folds whatever count it carries.
            Impl::Slot& slot = impl_->ring[impl_->produce_seq % impl_->ring.size()];
            slot.state = Impl::Slot::State::kKernel;
            ++impl_->produce_seq;
            impl_->producer_owns = false;
        }
        impl_->stopping = true;
        impl_->work_cv.notify_all();
        impl_->merge_cv.notify_all();
    }
    for (std::thread& worker : impl_->workers) worker.join();
    if (impl_->merger.joinable()) impl_->merger.join();
    finished_ = true;
    if (impl_->error) std::rethrow_exception(impl_->error);
}

}  // namespace focs::dta
