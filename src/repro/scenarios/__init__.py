"""Declarative scenario registry + fleet-composition DSL.

Scenarios lift the hand-built experiment configs into data: a YAML/JSON
document describes a heterogeneous fleet (weighted machine classes over
the workload profiles), a regime-change schedule, correlated-outage
groups, and flash crowds — and compiles against a ``machines × days ×
seed`` frame into exactly the config/cache/shard machinery hand-built
configs use.  See ``docs/scenarios.md`` for the document schema and an
authoring walkthrough.

>>> from repro.scenarios import get_scenario, compile_scenario
>>> from repro.scenarios import generate_scenario_columns
>>> spec = get_scenario("student-lab-baseline")
>>> compiled = compile_scenario(spec, machines=4, days=7, seed=42)
>>> columns = generate_scenario_columns(compiled)
"""

from .compile import CompiledScenario, OverlayWindow, Segment, compile_scenario
from .diff import ScenarioAnalysis, diff_report
from .generate import (
    generate_scenario_columns,
    generate_scenario_shards,
    merge_overlay_rows,
    scenario_fleet,
    scenario_metadata,
)
from .loader import (
    dump_scenario,
    load_scenario,
    load_scenario_file,
    parse_scenario,
)
from .registry import LIBRARY_DIR, get_scenario, scenario_names, scenario_path
from .spec import (
    SCENARIO_SCHEMA_VERSION,
    FlashCrowdSpec,
    MachineClassSpec,
    OutageSpec,
    RegimeSpec,
    ScenarioSpec,
)

__all__ = [
    "LIBRARY_DIR",
    "SCENARIO_SCHEMA_VERSION",
    "CompiledScenario",
    "FlashCrowdSpec",
    "MachineClassSpec",
    "OutageSpec",
    "OverlayWindow",
    "RegimeSpec",
    "ScenarioAnalysis",
    "ScenarioSpec",
    "Segment",
    "compile_scenario",
    "diff_report",
    "dump_scenario",
    "generate_scenario_columns",
    "generate_scenario_shards",
    "get_scenario",
    "load_scenario",
    "load_scenario_file",
    "merge_overlay_rows",
    "parse_scenario",
    "scenario_fleet",
    "scenario_metadata",
    "scenario_names",
    "scenario_path",
]
