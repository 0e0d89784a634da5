"""Shared experiment plumbing: benchmark provenance and the Fig. 1 closed loop."""

from __future__ import annotations

import os
import platform
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

import numpy


def bench_env(workers: Optional[int] = None) -> Dict[str, Any]:
    """Provenance block shared by every ``BENCH_*.json`` writer.

    Records the interpreter, platform, CPU budget, worker count, and the
    commit the numbers were taken at, so benchmark files are comparable
    across machines and commits.
    """
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    env: Dict[str, Any] = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        # CPUs this process may run on (a container's share), not the host's.
        "cpu_count": len(os.sched_getaffinity(0)),
        "numpy": numpy.__version__,
        "commit": commit,
    }
    if workers is not None:
        env["workers"] = workers
    return env

from repro.core.auditing import TaskRegistry
from repro.core.config import ReboundConfig
from repro.core.runtime import ReboundSystem
from repro.net.topology import chemical_plant_topology
from repro.plant.actuator import PWMTrace
from repro.plant.chemical import (
    BurnerActuationTask,
    BurnerControlTask,
    ChemicalReactor,
    MonitorTask,
    PressureAlarmTask,
    SensorStageTask,
    ValveActuationTask,
    ValveControlTask,
)
from repro.plant.fixedpoint import MICRO, encode_micro, to_micro
from repro.sched.task import chemical_plant_workload


def chemical_plant_registry() -> TaskRegistry:
    """Fig. 1(c)'s eight tasks with their real control logic."""
    registry = TaskRegistry()
    registry.register(1, PressureAlarmTask())
    registry.register(2, BurnerControlTask())
    registry.register(3, BurnerActuationTask())
    registry.register(4, ValveControlTask())
    registry.register(5, ValveActuationTask())
    registry.register(6, SensorStageTask())
    registry.register(7, SensorStageTask())
    registry.register(8, MonitorTask())
    return registry


@dataclass
class ChemicalPlantLoop:
    """The Fig. 1 system in closed loop with the reactor physics.

    The REBOUND system and the reactor advance in lockstep: sensors read
    the reactor each round, actuator commands drive it, and
    :meth:`run` steps both.
    """

    config: ReboundConfig
    seed: int = 1
    reactor: ChemicalReactor = field(default_factory=ChemicalReactor)

    def __post_init__(self) -> None:
        topology = chemical_plant_topology()
        workload = chemical_plant_workload()
        s1 = topology.node_by_name("S1")  # pressure gauge
        s2 = topology.node_by_name("S2")  # temperature sensor
        self.traces: Dict[str, PWMTrace] = {
            name: PWMTrace(name=name) for name in ("A1", "A2", "A3", "A4")
        }

        def read_pressure(round_no: int) -> bytes:
            return encode_micro(to_micro(self.reactor.pressure_kpa))

        def read_temperature(round_no: int) -> bytes:
            return encode_micro(to_micro(self.reactor.temperature_k))

        def apply_burner(round_no: int, payload: bytes, origin: int) -> None:
            self.traces["A2"].apply(round_no, payload, origin)
            from repro.plant.fixedpoint import decode_micro

            self.reactor.set_burner(decode_micro(payload) / MICRO)

        def apply_valve(round_no: int, payload: bytes, origin: int) -> None:
            self.traces["A3"].apply(round_no, payload, origin)
            from repro.plant.fixedpoint import decode_micro

            self.reactor.set_valve(decode_micro(payload) / MICRO)

        self.system = ReboundSystem(
            topology,
            workload,
            self.config,
            registry=chemical_plant_registry(),
            sensor_reads={s1: read_pressure, s2: read_temperature},
            actuator_applies={
                topology.node_by_name("A1"): self.traces["A1"].apply,
                topology.node_by_name("A2"): apply_burner,
                topology.node_by_name("A3"): apply_valve,
                topology.node_by_name("A4"): self.traces["A4"].apply,
            },
            seed=self.seed,
        )

    def run(self, rounds: int) -> None:
        dt = self.config.round_length_us / 1e6
        for _ in range(rounds):
            self.system.run_round()
            self.reactor.step(dt)

    @property
    def round_no(self) -> int:
        return self.system.round_no
