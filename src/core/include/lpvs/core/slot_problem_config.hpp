// SlotProblemConfig: the one type that parameterizes slot-problem assembly.
//
// One assembler (core/slot_assembly.hpp) builds every slot's content and
// chunk prices from these knobs, for three callers: the emulator (one
// virtual cluster, and through it the city replay's many), the fleet
// federation (per edge server), and the serving daemon (per connected
// cluster).  Each caller used to carry its own copy of the fields, so a
// default changed in one could silently drift from the others.  This
// struct is the single source: emu::ClusterParams derives from it,
// server::ServerConfig embeds it, and the per-subsystem configs only
// override defaults in their constructors.
//
// The load generator never assembles slot problems itself — it receives the
// scheduler's decisions over the wire — so it consumes this type only
// indirectly, through the daemon it drives.
#pragma once

#include <cstdint>

namespace lpvs::core {

struct SlotProblemConfig {
  /// Edge transform capacity C of constraint (6), compute units.
  double compute_capacity = 45.0;
  /// Edge staging storage S of constraint (7), megabytes.
  double storage_capacity_mb = 32.0 * 1024.0;
  /// Objective regularizer of (8a)/(13).
  double lambda = 2000.0;
  /// Chunks generated (and priced) per device per slot.
  int chunks_per_slot = 30;
  /// Playback seconds per chunk.
  double chunk_seconds = 10.0;
  /// Fraction of the full charge a user budgets for one viewing session —
  /// the session-budget convention every subsystem shares, so absolute
  /// watch-time numbers land on the paper's scale.
  double effective_capacity_scale = 0.25;
  /// Seeds the derived per-(entity, slot) randomness streams.
  std::uint64_t seed = 42;
};

}  // namespace lpvs::core
