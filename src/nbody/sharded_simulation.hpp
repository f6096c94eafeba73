// ShardedSimulation: a Simulation that owns its K shard devices, under the
// name the benchmark driver (perfbench/) constructs (DESIGN.md, "Sharding &
// local essential trees"). It adds constructors only — the step DAG, state
// and accessors are Simulation's.
#pragma once

#include "nbody/simulation.hpp"

namespace gothic::nbody {

class ShardedSimulation : public Simulation {
public:
  ShardedSimulation(Particles particles, SimConfig cfg, ShardOptions opt = {})
      : Simulation(std::move(particles), std::move(cfg), opt) {}
};

} // namespace gothic::nbody
