// Slot assembly: the one path from a viewer's slot to scheduler input.
//
// A slot's problem (SIV-B, SV) is a function of the chunk power rates
// p(kappa), the battery e(1), E[gamma] and the edge costs g/h.  The
// emulator (and through it the city replay), the fleet federation and the
// serving daemon all generate content and price chunks here; each keeps
// only what differs between them: the battery view, the source of gamma,
// and the emulator's prefetch window and one-slot-ahead prediction.
// (emu/daily_life prices a constant per-minute rate and generates no
// content, so it does not come through here.)
#pragma once

#include <cstddef>
#include <cstdint>

#include "lpvs/core/slot_problem.hpp"
#include "lpvs/core/slot_problem_config.hpp"
#include "lpvs/display/display.hpp"
#include "lpvs/media/video.hpp"
#include "lpvs/transform/transform.hpp"

namespace lpvs::core {

/// Writes the content of `user`'s stream in `slot` into `out`, reusing its
/// chunk buffer.  A pure function of (config.seed, user, slot), so paired
/// runs and every driver see identical chunks.
void generate_slot_video(const SlotProblemConfig& config, std::uint64_t user,
                         std::uint64_t slot, media::Genre genre,
                         double bitrate_mbps, media::Video& out);

/// Fills `input`, possibly reused from an earlier slot, without allocating
/// once warm: the id, the rates and durations of the first `priced_chunks`
/// chunks (at most the whole video), the compute and storage cost of the
/// whole video, and sla_weight back at 1.  Battery and gamma are the
/// caller's.
void price_slot_input(common::DeviceId id, const media::Video& video,
                      std::size_t priced_chunks,
                      const display::DisplaySpec& spec,
                      const media::PowerRateEstimator& estimator,
                      const transform::ResourceModel& resources,
                      DeviceSlotInput& input);

}  // namespace lpvs::core
