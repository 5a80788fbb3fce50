"""The benchmark's hooks still reach the program.

`perfbench/layers.py` wraps functions and constructors of `regolith` by
module and attribute name.  A rename in `src/` would fail every benchmark
run at install time, or leave a statistic reading an attribute that is
gone; these tests catch that first.  The file is loaded by path and
executed in a fresh module, so nothing is written under `perfbench/`.
"""

import importlib
import types
from pathlib import Path

import pytest

from regolith.bus import Bus
from regolith.telemetry import TelemetryCollector

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    module = types.ModuleType("perfbench_layers")
    module.__file__ = str(LAYERS)
    exec(compile(LAYERS.read_text(), str(LAYERS), "exec"), module.__dict__)
    return module


def test_every_span_site_resolves(layers):
    missing = []
    for span, sites in layers.SPANS.items():
        for module_name, attr in sites:
            try:
                owner, name = layers._resolve(module_name, attr)
                target = getattr(owner, name)
            except (ImportError, AttributeError) as exc:
                missing.append(f"{span}: {module_name}.{attr} ({exc})")
                continue
            if not callable(target):
                missing.append(f"{span}: {module_name}.{attr} not callable")
    assert not missing, "; ".join(missing)


def test_every_hooked_class_resolves(layers):
    for module_name, cls_name in layers.HOOKED_CLASSES:
        cls = getattr(importlib.import_module(module_name), cls_name)
        assert isinstance(cls, type), f"{module_name}.{cls_name}"


def test_run_statistics_reads_a_fresh_collector(layers):
    seen = {cls_name: [] for _, cls_name in layers.HOOKED_CLASSES}
    seen["TelemetryCollector"].append(
        TelemetryCollector(Bus(machine_ids=["m1"]), 0.1))
    stats = layers.run_statistics(seen)
    assert stats["sample_rows"] == 0
    assert stats["sim_steps"] == 0
