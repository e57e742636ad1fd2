"""Smoke test of the experiment scripts, in-process and without running
their `main`: each imports, and the library calls that
`kernel_timings.py` times run once, so a script that calls a deleted or
re-signatured library function fails here.  The fresh interpreters of
the import row are not started.  Last, the test configuration itself:
a failing property test does not end the session."""

import importlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hilbertball import algebra, cli, dynamics, geometry, isometries, numerics, serialize, verify

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture
def scripts_path(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))


@pytest.mark.parametrize("name", sorted(p.stem for p in SCRIPTS.glob("*.py")))
def test_script_imports(scripts_path, name):
    assert callable(importlib.import_module(name).main)


def test_kernel_timings_layer_cases_run(scripts_path):
    kernel_timings = importlib.import_module("kernel_timings")
    mods = {"algebra": algebra, "dynamics": dynamics, "geometry": geometry, "isometries": isometries,
            "numerics": numerics}
    for dim in (1, 2):
        rows = kernel_timings.cases(mods, kernel_timings.draw(dim, np.random.default_rng(0)))
        names = [row[0] for row in rows]
        assert {"op_norm", "is_inhomogeneous_unitary", "check_block_conditions", "lie_algebra_check",
                "is_self_adjoint", "hamiltonian_field", "poisson_bracket", "dispersion",
                "kahler_condition_check"} <= set(names)
        # the disc row comes only at dim 1; the rows of single objects
        # alone have no stacked call
        assert ("disc_evolve_closed" in names) == (dim == 1)
        assert [name for name, _, stacked in rows if stacked is None] == [
            "distance", "ExtendedOperator", "compose", "rim op"]
        for _, single, stacked in rows:
            single()
            if stacked is not None:
                stacked()


def test_kernel_timings_csv_cases_run(scripts_path):
    kernel_timings = importlib.import_module("kernel_timings")
    cases = kernel_timings.csv_cases({"serialize": serialize},
                                     kernel_timings.draw_csv(np.random.default_rng(0)))
    assert [(name, dim) for name, dim, _ in cases] == [("trajectory_csv", d) for d in (1, 8, 16)]
    for _, dim, call in cases:
        lines = call().splitlines()
        assert len(lines) == kernel_timings.STEPS + 2
        assert lines[1].count(",") == 2 * dim


def test_kernel_timings_norm_cases_run(scripts_path):
    kernel_timings = importlib.import_module("kernel_timings")
    C = kernel_timings.draw_operator(np.random.default_rng(0))
    assert C.shape == (5, 5)
    cases = kernel_timings.norm_cases({"algebra": algebra, "isometries": isometries}, C)
    for _, _, call in cases:
        assert call() > 0.0


def test_kernel_timings_cli_case_runs(scripts_path, tmp_path, capsys):
    kernel_timings = importlib.import_module("kernel_timings")
    path = str(tmp_path / "c.json")
    serialize.save_matrix(path, kernel_timings.draw_operator(np.random.default_rng(0)))
    (_, _, call), = kernel_timings.cli_cases({"cli": cli}, path)
    assert call() == 0
    assert capsys.readouterr().out == ""


def test_kernel_timings_io_cases_run(scripts_path, tmp_path, capsys):
    kernel_timings = importlib.import_module("kernel_timings")
    C = kernel_timings.draw_operator(np.random.default_rng(0))
    flows = kernel_timings.draw_flows(np.random.default_rng(0))
    files = kernel_timings.save_inputs(serialize, tmp_path, C, flows)
    out = tmp_path / "evolve.csv"
    (_, _, small), (_, _, large), (_, _, evolve) = kernel_timings.io_cases({"cli": cli, "serialize": serialize},
                                                                          files, str(out))
    assert np.array_equal(small(), C) and np.array_equal(large(), flows[2])
    assert evolve() == 0
    assert capsys.readouterr().out == ""
    assert len(out.read_text().splitlines()) == kernel_timings.STEPS + 2


def test_kernel_timings_verify_cases_run(scripts_path):
    # a second copy of the package, as --against loads one, which leaves
    # sys.modules as it found it
    kernel_timings = importlib.import_module("kernel_timings")

    def loaded():
        return {name: module for name, module in sys.modules.items() if name.split(".")[0] == "hilbertball"}

    before = loaded()
    package = kernel_timings.load_package(SCRIPTS.parent / "src")
    assert package["verify"] is not verify
    calls = kernel_timings.verify_cases(package, 1, 2)
    assert list(calls) == [name for _, name, _, _ in verify.PROPERTIES]
    for name, call in calls.items():
        assert call().name == name
    assert loaded() == before
    with pytest.raises(ValueError, match="dim must lie in"):
        kernel_timings.verify_cases(package, 17, 2)


def test_kernel_timings_rows_read_dash_for_missing_times(scripts_path):
    row = importlib.import_module("kernel_timings").row
    assert row("p", 1, [2.0]).split() == ["p", "1", "2.00", "-"]
    assert row("p", 1, [2.0, None]).split() == ["p", "1", "2.00", "-", "-", "-", "-", "-"]
    assert row("k", 4, [3.0, 1.5], [8.0, 2.0]).split() == [
        "k", "4", "3.00", "8.00", "1.50", "2.00", "2.00", "4.00"]


def test_kernel_timings_verify_rows_read_err_for_a_failing_call(scripts_path, monkeypatch):
    kernel_timings = importlib.import_module("kernel_timings")
    monkeypatch.setattr(kernel_timings, "VERIFY_ROUNDS", 1)
    monkeypatch.setattr(kernel_timings, "ROUND_SECONDS", 1e-4)

    def result(error):
        return lambda: verify.PropertyResult("p", "geometry", 1, 0.0, 1.0, True, error)

    times = kernel_timings.verify_times([result("ModuleNotFoundError: no"), result(None)])
    assert times[0] == "err" and isinstance(times[1], float)
    assert kernel_timings.verify_times([result(None), None])[1] is None
    assert kernel_timings.row("p", 1, times).split()[2:] == ["err", "-", "%.2f" % times[1], "-", "-", "-"]


def test_kernel_timings_cells_read_err_for_a_call_that_raises(scripts_path, monkeypatch):
    # a stacked call on a tree whose kernel takes single objects only
    # raises; its cell reads `err` and the other tree's time still comes
    kernel_timings = importlib.import_module("kernel_timings")
    monkeypatch.setattr(kernel_timings, "REPEATS", 3)
    monkeypatch.setattr(kernel_timings, "ROUND_SECONDS", 1e-4)

    def single_only():
        raise AttributeError("'numpy.ndarray' object has no attribute 'adjoint'")

    times = kernel_timings.per_call_us([lambda: None, single_only])
    assert isinstance(times[0], float) and times[1] == "err"
    assert kernel_timings.row("k", 4, [1.0, 2.0], times).split()[2:] == [
        "1.00", "%.2f" % times[0], "2.00", "err", "0.50", "-"]


def test_kernel_timings_csv_rows_compare_the_trees_text(scripts_path):
    same_output = importlib.import_module("kernel_timings").same_output
    assert same_output([lambda: "a,b\n"])
    assert same_output([lambda: "a,b\n", lambda: "a,b\n"])
    assert not same_output([lambda: "a,b\n", lambda: "a,c\n"])


def test_a_failing_property_test_does_not_end_the_session(tmp_path):
    # hypothesis' plugin warns (DeprecationWarning) while it reports a
    # failing example; under pyproject's filterwarnings = ["error"] that
    # warning was an INTERNALERROR, and no later test ran
    (tmp_path / "test_two.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\ndef test_fails(x):\n    assert x < 0\n\n\n"
        "def test_passes():\n    assert True\n")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(SCRIPTS.parent / "pyproject.toml"),
         "--rootdir", str(tmp_path), str(tmp_path / "test_two.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert "1 failed, 1 passed" in done.stdout.splitlines()[-1]
