#include "lpvs/core/slot_assembly.hpp"

#include <algorithm>

#include "lpvs/common/rng.hpp"

namespace lpvs::core {

void generate_slot_video(const SlotProblemConfig& config, std::uint64_t user,
                         std::uint64_t slot, media::Genre genre,
                         double bitrate_mbps, media::Video& out) {
  common::Rng content_rng = common::derived_rng(config.seed, user, slot);
  media::ContentGenerator generator(content_rng());
  generator.generate_into(
      out, common::VideoId{static_cast<std::uint32_t>(user * 100000u + slot)},
      genre, config.chunks_per_slot, bitrate_mbps,
      common::Seconds{config.chunk_seconds});
}

void price_slot_input(common::DeviceId id, const media::Video& video,
                      std::size_t priced_chunks,
                      const display::DisplaySpec& spec,
                      const media::PowerRateEstimator& estimator,
                      const transform::ResourceModel& resources,
                      DeviceSlotInput& input) {
  const std::size_t count = std::min(priced_chunks, video.chunks.size());
  input.id = id;
  input.power_rates_mw.resize(count);
  input.chunk_durations_s.resize(count);
  for (std::size_t k = 0; k < count; ++k) {
    input.power_rates_mw[k] = estimator.rate(spec, video.chunks[k]).value;
    input.chunk_durations_s[k] = video.chunks[k].duration.value;
  }
  input.compute_cost = resources.compute_cost(spec, video);
  input.storage_cost = resources.storage_cost(video);
  input.sla_weight = 1.0;
}

}  // namespace lpvs::core
