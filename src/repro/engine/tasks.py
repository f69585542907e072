"""Shard planning and the per-shard work function.

A sweep decomposes into one :class:`ShardTask` per suite matrix — the
natural unit: matrices are independent, similar in cost, and each one's
records are already grouped as a :class:`~repro.bench.harness.MatrixSweep`.
Tasks carry only picklable data (the suite index and the config); workers
re-resolve the entry from the suite registry, so the same task can run
in-process or in a forked/spawned worker.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field

from ..bench.harness import MatrixSweep, SweepConfig, sweep_matrix
from ..core.profiling import BlockProfile, ProfileCache
from ..machine.machine import MachineModel
from ..machine.presets import get_preset
from ..matrices.suite import get_entry

__all__ = ["ShardTask", "plan_shards", "run_shard_task"]


@dataclass(frozen=True)
class ShardTask:
    """One unit of sweep work: all candidates on one suite matrix."""

    #: 1-based suite index; doubles as the shard id and ``MatrixSweep.idx``.
    shard_id: int
    #: Suite matrix name (for events and file names only).
    name: str
    config: SweepConfig
    #: Calibrated profiles (one per precision) shipped to the worker so it
    #: can seed its per-process cache instead of recalibrating — the
    #: engine's warm start.  Excluded from equality/hash: two tasks for the
    #: same shard are the same work whether or not profiles ride along
    #: (and ``BlockProfile`` holds dicts, which cannot be hashed anyway).
    profiles: tuple[BlockProfile, ...] = field(
        default=(), compare=False, repr=False
    )


def plan_shards(
    config: SweepConfig,
    *,
    profiles: "tuple[BlockProfile, ...]" = (),
) -> tuple[ShardTask, ...]:
    """Decompose ``config`` into its per-matrix shard tasks, suite order."""
    return tuple(
        ShardTask(
            shard_id=e.idx,
            name=e.name,
            config=config,
            profiles=profiles,
        )
        for e in config.entries()
    )


# Per-process caches.  A worker process profiles the machine once per
# precision and reuses it for every shard it executes; under the default
# fork start method children even inherit profiles the parent already has.
_MACHINES: dict[str, MachineModel] = {}
_PROFILE_CACHE = ProfileCache()


def _machine_for(name: str) -> MachineModel:
    if name not in _MACHINES:
        _MACHINES[name] = get_preset(name)
    return _MACHINES[name]


def run_shard_task(task: ShardTask) -> MatrixSweep:
    """Execute one shard: build the matrix and sweep every candidate.

    This is the engine's default task function; tests substitute fault-
    injecting ones.  Must stay importable at module top level so it can be
    pickled into worker processes.
    """
    entry = get_entry(task.shard_id)
    machine = _machine_for(task.config.machine_name)
    for profile in task.profiles:
        _PROFILE_CACHE.seed(machine, profile)
    matrix = sweep_matrix(
        entry,
        task.config,
        machine=machine,
        profile_cache=_PROFILE_CACHE,
    )
    # The shard's formats, lazy structures and plan memos reference each
    # other in cycles, which only the cyclic collector frees.  Numpy-heavy
    # code allocates too few Python objects to trigger it, so without this
    # every later shard's peak memory stacks on the garbage of earlier ones.
    gc.collect()
    return matrix
