"""The benchmark's per-layer wrappers see the kernels' calls.

`perfbench/layers.py` wraps each layer function where its callers look it
up.  A kernel that reaches a layer function through some other binding (a
module-level `from .locomotion import step_locomotion` in `skills.py`, say)
bypasses the wrapper and silently zeroes that layer's metric.  These tests
install a `Tracer`, run short `scenario2_smoke` loopback runs and check
that every terrain and machine layer counts calls, and one TCP run that
takes the paths only a traced run takes.  The file is loaded by path, as
in `test_perfbench_hooks.py`, and every wrapped attribute is restored
afterwards.
"""

import types
from pathlib import Path

import pytest

from regolith.config import load_config
from regolith.runner import run
from regolith.scenarios import scenario_path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"

#: Layers each run below must reach.
DIG_LAYERS = ("machines.drive", "machines.settle", "machines.dig",
              "machines.dump", "terrain.excavate", "terrain.deposit",
              "terrain.relax")
LEVEL_LAYERS = ("machines.drive", "machines.settle", "machines.level",
                "terrain.deposit", "terrain.relax")


@pytest.fixture(scope="module")
def layers():
    module = types.ModuleType("perfbench_layers")
    module.__file__ = str(LAYERS)
    exec(compile(LAYERS.read_text(), str(LAYERS), "exec"), module.__dict__)
    return module


def _traced_smoke(layers, overrides: dict, out_dir=None):
    """The tracer of one traced smoke run."""
    saved = []
    for sites in layers.SPANS.values():
        for module_name, attr in sites:
            owner, name = layers._resolve(module_name, attr)
            saved.append((owner, name, getattr(owner, name)))
    try:
        tracer = layers.Tracer()
        tracer.install()
        config = load_config(scenario_path("scenario2_smoke"),
                             overrides=overrides)
        report = run(config, out_dir=out_dir)
        assert not report.error, report.error
    finally:
        for owner, name, original in saved:
            setattr(owner, name, original)
    return tracer


def _calls(tracer) -> dict:
    return {name: acc.calls for name, acc in tracer.acc.items()}


def test_a_dig_and_dump_reaches_every_dig_layer(layers):
    # the first dig starts at 6.8 s and its load is dumped by 40 s
    calls = _calls(_traced_smoke(layers, {"max_sim_time": 40.0}))
    assert {name: calls[name] for name in DIG_LAYERS if not calls[name]} \
        == {}


def test_a_leveling_run_reaches_every_level_layer(layers):
    # cells that count as done from the start send the excavator
    # straight to leveling, whose shed blade load is deposited
    config = load_config(scenario_path("scenario2_smoke"))
    planner = {**config.raw["planner"], "cell_tolerance": 1.0}
    calls = _calls(_traced_smoke(layers, {"max_sim_time": 40.0,
                                          "planner": planner}))
    assert {name: calls[name] for name in LEVEL_LAYERS if not calls[name]} \
        == {}


def test_every_wrapped_attribute_is_restored(layers):
    before = [getattr(*layers._resolve(m, a))
              for sites in layers.SPANS.values() for m, a in sites]
    _traced_smoke(layers, {"max_sim_time": 1.0})
    after = [getattr(*layers._resolve(m, a))
             for sites in layers.SPANS.values() for m, a in sites]
    assert after == before
    assert not any(hasattr(fn, "__wrapped__") for fn in after)


def test_a_traced_tcp_run_syncs_once_per_planner_tick(layers, tmp_path):
    """Only a traced run wraps the spans, feeds the counter hooks call
    arguments (`FrameDecoder.feed`'s data, `write_samples_csv`'s path,
    `avalanche_relax`'s sweeps) and, in TCP, counts planner ticks as
    `TcpBridgeServer.sync` calls, which must equal loopback's ticks."""
    config = load_config(scenario_path("scenario2_smoke"),
                         overrides={"max_sim_time": 40.0})
    ticks = []
    loopback = run(config, out_dir=tmp_path / "loopback",
                   observer=lambda sim, loop, status:
                   ticks.append(loop.tick_count))
    assert not loopback.error
    tracer = _traced_smoke(layers, {"max_sim_time": 40.0, "transport": "tcp"},
                           out_dir=tmp_path / "tcp")
    assert tracer.counted_statistics()["planner_ticks"] == ticks[-1]
    assert (tmp_path / "tcp" / "samples.csv").read_bytes() \
        == (tmp_path / "loopback" / "samples.csv").read_bytes()
