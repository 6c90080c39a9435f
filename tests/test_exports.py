import importlib

import pytest

import hankelid
import hankelid.benchmark

# names that left the top level, by the module that keeps them
MOVED = {
    "hankelid.benchmark": ["ScenarioSpec", "StateSpace", "cod", "fit_metric", "gen_random_system",
                           "lowpass_input", "make_estimators", "run_monte_carlo", "s1_system",
                           "sv_errors"],
    "hankelid.model": ["build_hankel", "hankel_dims", "read_dataset_csv", "weighted_hankel"],
    "hankelid.identify": ["svd_split"],
}


def test_every_exported_name_resolves_once():
    names = hankelid.__all__
    assert len(names) == len(set(names))
    missing = [name for name in names if not hasattr(hankelid, name)]
    assert missing == []


def test_top_level_is_the_estimator_path():
    assert len(hankelid.__all__) <= 28
    moved = [name for names in MOVED.values() for name in names]
    assert len(moved) == 15
    assert set(moved).isdisjoint(hankelid.__all__)


@pytest.mark.parametrize("module", sorted(MOVED))
def test_moved_names_resolve_in_their_module(module):
    mod = importlib.import_module(module)
    assert [name for name in MOVED[module] if not hasattr(mod, name)] == []


def test_csv_writer_is_not_in_the_package():
    # the CLI's simulate writes datasets through model._write_dataset; the
    # tests reach the same writer through conftest
    assert not hasattr(importlib.import_module("hankelid.model"), "write_dataset_csv")


@pytest.mark.parametrize("name", ["gen_scenario_run", "scenario_spec"])
def test_benchmark_reads_its_two_names_from_the_top_level(name):
    # perfbench calls hankelid.gen_scenario_run and hankelid.scenario_spec;
    # they stay reachable there, outside __all__, as the benchmark's objects
    assert name not in hankelid.__all__
    assert getattr(hankelid, name) is getattr(hankelid.benchmark, name)
