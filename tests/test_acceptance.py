"""End-to-end acceptance gate.

Each test covers one numbered release criterion and prints a single
PASS/FAIL line (bypassing output capture) so the verdicts are visible in
any pytest run.  Scenario runs are session-cached fixtures shared by the
criteria that examine them.
"""

import csv
import itertools
import json
import random
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np
import pytest

import test_bt_core as btc
import test_bt_dsl as dsl
import test_dig_force as fee
import test_kinematics as kin

from regolith.bt import (
    FAILURE,
    Parallel,
    ParallelPolicy,
    RUNNING,
    SUCCESS,
    Selector,
    Sequence,
    TickContext,
    decorate,
    parse_document,
    resolve,
    serialize,
)
from regolith.config import load_config
from regolith.runner import run
from regolith.scenarios import scenario_path
from regolith.terrain import (
    Heightfield,
    SoilParams,
    avalanche_relax,
    deposit,
    max_region_slope,
)

SOIL = SoilParams()


# -- reporting ---------------------------------------------------------------

def _emit(capman, line):
    if capman is not None:
        with capman.global_and_fixture_disabled():
            print(line, flush=True)
    else:
        print(line, flush=True)


@pytest.fixture
def announce(request):
    capman = request.config.pluginmanager.getplugin("capturemanager")

    @contextmanager
    def _ctx(number, label):
        try:
            yield
        except BaseException:
            _emit(capman, f"[criterion {number:02d}] {label}: FAIL")
            raise
        _emit(capman, f"[criterion {number:02d}] {label}: PASS")

    return _ctx


# -- cached scenario runs ----------------------------------------------------

# flat_run, sloped_run and smoke_rerun live in conftest.py: test_artifacts
# pins their bytes from the same session runs.

@pytest.fixture(scope="session")
def smoke_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke")
    config = load_config(scenario_path("scenario2_smoke"))
    data = {"first_level": None, "first_success": None}

    def observer(sim, loop, status):
        data["sim"] = sim
        if data["first_level"] is None \
                and sim.runners["excavator1"].action == "level":
            data["first_level"] = sim.sim_time
        if data["first_success"] is None and status is SUCCESS:
            data["first_success"] = sim.sim_time

    report = run(config, out_dir=out, observer=observer)
    return report, out, data, config


@pytest.fixture(scope="session")
def smoke_tcp(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke_tcp")
    path = scenario_path("scenario2_smoke")
    overrides = {"transport": "tcp"}
    config = load_config(path, overrides=overrides)
    report = run(config, config_path=path, out_dir=out,
                 overrides=overrides)
    return report, out


@pytest.fixture(scope="session")
def fault_run():
    """scenario1_flat with the truck commanded unavailable for 60 s."""
    config = load_config(scenario_path("scenario1_flat"))
    data = {"fir_converted": False, "excavator_failed": False, "trace": []}

    def observer(sim, loop, status):
        t = sim.sim_time
        kids = {c.name: c for c in loop.tree.children}
        truck_fir, excavator_fir = kids["Truck"], kids["Excavator"]
        if 60.0 <= t < 120.0:
            sim.set_available("truck1", False)
            truck_failed = truck_fir.children[0].last_status is FAILURE
            if truck_fir.last_status is RUNNING and truck_failed:
                data["fir_converted"] = True
            if excavator_fir.last_status is FAILURE:
                data["excavator_failed"] = True
            data["trace"].append(
                (excavator_fir.children[0].cursor, truck_failed))
        elif t >= 120.0:
            sim.set_available("truck1", True)

    report = run(config, observer=observer)
    return report, data


def _read_rows(out_dir, name):
    with open(Path(out_dir) / name, newline="") as fh:
        return list(csv.DictReader(fh))


# -- criteria ----------------------------------------------------------------

def test_criterion_01_bt_semantics_exhaustive(announce):
    with announce(1, "behaviour-tree semantics vs exhaustive oracle"):
        start = time.perf_counter()
        statuses = [SUCCESS, FAILURE, RUNNING]
        for n in (2, 3):
            for combo in itertools.product(statuses, repeat=n):
                for memory in (False, True):
                    node = Sequence(children=[btc.Stub([s]) for s in combo],
                                    memory=memory)
                    expected, _ = btc.seq_oracle(combo)
                    assert node.tick(TickContext()) is expected
                node = Selector(children=[btc.Stub([s]) for s in combo])
                expected, _ = btc.sel_oracle(combo)
                assert node.tick(TickContext()) is expected
        policies = [ParallelPolicy.SucceedOnOne(),
                    ParallelPolicy.SucceedOnAll(),
                    ParallelPolicy.SucceedOnChild(0)]
        for n in (2, 3):
            for combo in itertools.product(statuses, repeat=n):
                for policy in policies:
                    node = Parallel(children=[btc.Stub([s]) for s in combo],
                                    policy=policy)
                    assert node.tick(TickContext()) is \
                        btc.par_oracle(list(combo), policy)
        for s in statuses:
            assert decorate(s, "Inverter") is \
                {SUCCESS: FAILURE, FAILURE: SUCCESS, RUNNING: RUNNING}[s]
            assert decorate(s, "FailureIsRunning") is \
                {SUCCESS: SUCCESS, FAILURE: RUNNING, RUNNING: RUNNING}[s]
        assert time.perf_counter() - start < 1.0


def test_criterion_02_dsl_round_trip(announce):
    with announce(2, "tree DSL round trip and fuzz"):
        registry = dsl.make_registry()
        example = resolve(parse_document(dsl.EXAMPLE), registry)
        assert example.name == "Root"
        par = example.children[0]
        assert isinstance(par, Parallel) and len(par.children) == 3
        assert [c.context for c in par.children] == \
            [None, "excavator1", "dumptruck1"]

        rng = random.Random(1234)
        for _ in range(1000):
            tree, spec = dsl.random_tree(rng, registry)
            if spec:
                tree.spec_name = spec
            dsl.normalize_contexts(tree)
            rebuilt = resolve(parse_document(serialize(tree)), registry)
            assert dsl.trees_isomorphic(tree, rebuilt)

        fuzz = random.Random(99)
        for _ in range(300):
            blob = bytes(fuzz.randrange(256)
                         for _ in range(fuzz.randrange(200)))
            try:
                parse_document(blob)
            except Exception as exc:     # only the documented error type
                assert type(exc).__name__ == "ParseError"


def test_criterion_03_mass_conservation(flat_run, announce):
    with announce(3, "mass conservation over scenario1_flat"):
        report, _ = flat_run
        assert report.complete and report.error is None
        assert len(report.cycles["excavator1"]) >= 30
        assert report.mass_closure_error < 1e-4


def test_criterion_04_repose_invariant(announce):
    with announce(4, "angle of repose after avalanche relaxation"):
        limit = SOIL.repose_tan + 1e-3
        rng = np.random.default_rng(17)
        clean = 0
        for _ in range(5):
            h = Heightfield(12, 12, 0.5,
                            elevation=rng.uniform(0.0, 4.0, (12, 12)))
            result = avalanche_relax(h, SOIL)
            if not result.residual:
                clean += 1
                assert max_region_slope(h) <= limit
        h = Heightfield(40, 40, 0.25,
                        elevation=np.full((40, 40), 0.5))
        deposit(h, 5.0, 5.0, 800.0, SOIL, spread_radius=0.5)
        result = avalanche_relax(h, SOIL)
        if not result.residual:
            clean += 1
            assert max_region_slope(h) <= limit
        assert clean >= 1


def test_criterion_05_dig_force_oracle(announce):
    with announce(5, "cutting resistance vs brute-force wedge oracle"):
        fee.test_zero_depth_is_exactly_zero()
        fee.test_oracle_agreement_over_random_parameters()   # 100 sets, 5%
        fee.test_monotone_in_depth_width_cohesion()


def test_criterion_06_inverse_kinematics(announce):
    with announce(6, "inverse kinematics round trip and boundary residual"):
        kin.test_ik_round_trip_many_targets()                # 10,000 targets
        kin.test_unreachable_residual_is_distance_to_workspace_boundary()


def test_criterion_07_scenario1_completion(flat_run, sloped_run, announce):
    with announce(7, "scenario 1 flat and sloped complete 30 dig cycles"):
        for report, out in (flat_run, sloped_run):
            assert report.complete and report.error is None
            records = report.cycles["excavator1"]
            assert len(records) >= 30
            for rec in records:
                assert rec.spilled_kg >= 0.0
                if rec.loaded_kg > 0:
                    assert rec.spilled_kg / rec.loaded_kg <= 0.20
            rows = _read_rows(out, "cycles.csv")
            per_machine = {}
            for row in rows:
                per_machine.setdefault(row["machine"], []).append(row)
            assert len(per_machine.get("excavator1", [])) == len(records)
            assert sum(len(v) for v in per_machine.values()) == \
                sum(len(v) for v in report.cycles.values())
            events = _read_rows(out, "events.csv")
            digs = [e for e in events
                    if e["event"] == "dig_start:excavator1"]
            assert len(digs) == len(records) + 1   # spans between starts
            assert [float(e["sim_time"]) for e in digs] == \
                sorted(float(e["sim_time"]) for e in digs)


def test_criterion_08_slope_increases_work(flat_run, sloped_run, announce):
    with announce(8, "sloped haul needs more work per cycle than flat"):
        flat_report, _ = flat_run
        sloped_report, _ = sloped_run
        flat_mean = np.mean([c.work_J for c in flat_report.fleet_cycles])
        sloped_mean = np.mean([c.work_J for c in sloped_report.fleet_cycles])
        assert sloped_mean > flat_mean


def test_criterion_09_scenario2_smoke(smoke_run, announce):
    with announce(9, "scenario 2 smoke levels to target; done only after "
                     "leveling"):
        report, _, data, config = smoke_run
        assert report.complete and report.error is None
        sim = data["sim"]
        target = config.build_target(config.build_terrain())
        (x0, y0, x1, y1), _, _ = config.cell_grid()
        h = sim.terrain
        i0, j0 = h.cell_of(x0 + 1e-9, y0 + 1e-9)
        i1, j1 = h.cell_of(x1 - 1e-9, y1 - 1e-9)
        err = np.abs(np.array(h.elevation)[i0:i1 + 1, j0:j1 + 1]
                     - np.array(target.elevation)[i0:i1 + 1, j0:j1 + 1])
        assert float(err.mean()) <= 0.05
        assert data["first_level"] is not None
        assert data["first_success"] is not None
        assert data["first_success"] > data["first_level"]


def test_criterion_10_performance(flat_run, announce):
    with announce(10, "realtime factor and planner tick cost"):
        report, _ = flat_run
        assert report.realtime_factor >= 1.0
        assert report.mean_tick_seconds < 1e-3


def test_criterion_11_determinism_and_transport(smoke_run, smoke_rerun,
                                                smoke_tcp, announce):
    with announce(11, "seeded determinism and transport transparency"):
        _, out_a, _, _ = smoke_run
        _, out_b = smoke_rerun
        for name in ("cycles.csv", "samples.csv", "events.csv"):
            assert (Path(out_a) / name).read_bytes() == \
                (Path(out_b) / name).read_bytes()
        report_a, _, _, _ = smoke_run
        report_tcp, out_tcp = smoke_tcp
        assert report_tcp.complete and report_tcp.error is None
        stats_a = {m: {k: list(v) for k, v in s.items()}
                   for m, s in report_a.summary.items()}
        stats_tcp = {m: {k: list(v) for k, v in s.items()}
                     for m, s in report_tcp.summary.items()}
        assert json.dumps(stats_a, sort_keys=True) == \
            json.dumps(stats_tcp, sort_keys=True)
        assert _read_rows(out_a, "cycles.csv") == \
            _read_rows(out_tcp, "cycles.csv")
        for name in ("samples.csv", "events.csv"):
            assert (Path(out_a) / name).read_bytes() == \
                (Path(out_tcp) / name).read_bytes()


def test_criterion_12_failure_recovery(fault_run, announce):
    with announce(12, "truck outage tolerated without tree reset"):
        report, data = fault_run
        assert data["trace"], "outage window never observed"
        # the failing truck branch is converted to Running by its
        # FailureIsRunning decorator
        assert data["fir_converted"]
        # the excavator sibling subtree never reports Failure
        assert not data["excavator_failed"]
        # its memory cursor stays parked (constant, mid-sequence) across
        # ticks in which the truck branch is failing -> no reinitialization
        trace = data["trace"]
        preserved = any(
            all(c == trace[i][0] and c > 0 for c, _ in trace[i:i + 10])
            and any(failed for _, failed in trace[i:i + 10])
            for i in range(len(trace) - 10)
            for c in [trace[i][0]]
        )
        assert preserved
        # the outage is recoverable: the scenario still completes
        assert report.complete and report.error is None
        assert len(report.cycles["excavator1"]) >= 30


def test_tcp_run_reports_the_planner_childs_final_figures(smoke_tcp):
    # the child sends its tick time and bus counts once, after shutdown
    report, out = smoke_tcp
    assert report.mean_tick_seconds > 0.0
    saved = json.loads((Path(out) / "report.json").read_text())
    assert saved["mean_tick_seconds"] == report.mean_tick_seconds
    assert (saved["bus_dropped"], saved["bus_errors"]) == (0, 0)
