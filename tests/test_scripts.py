"""Smoke test of the experiment scripts, in-process: each imports, the
rows that `kernel_timings.py` times run once, so a script that calls a
deleted or re-signatured library function fails here, its `-`, `err`
and `differs` rule holds, and its `main` prints every row of a small
run against this checkout.  Last, the test configuration itself: a
failing property test does not end the session."""

import importlib
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from hilbertball import verify

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture
def scripts_path(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))


@pytest.fixture
def kernel_timings(scripts_path):
    return importlib.import_module("kernel_timings")


def this_package(kernel_timings):
    return {name: importlib.import_module("hilbertball." + name) for name in kernel_timings.MODULES}


@pytest.fixture
def commands(kernel_timings, tmp_path):
    """The command rows on this package, by (name, dim), and their inputs;
    the evolve row writes tmp_path/evolve.csv."""
    mods = this_package(kernel_timings)
    inputs, files = kernel_timings.command_inputs(mods, str(tmp_path))
    rows = kernel_timings.command_rows(mods, inputs, files, str(tmp_path / "evolve.csv"))
    assert all(stacked is None for *_, stacked in rows)
    return {(name, dim): single for name, dim, single, _ in rows}, inputs


@pytest.mark.parametrize("name", sorted(p.stem for p in SCRIPTS.glob("*.py")))
def test_script_imports(scripts_path, name):
    assert callable(importlib.import_module(name).main)


def test_kernel_timings_layer_cases_run(kernel_timings):
    mods = this_package(kernel_timings)
    rng = np.random.default_rng(0)
    for dim in (1, 2):
        kernels, verifies = kernel_timings.dim_rows(mods, dim, kernel_timings.draw(verify, dim, rng), 2)
        names = [name for name, *_ in kernels]
        assert {"op_norm", "is_inhomogeneous_unitary", "check_block_conditions", "lie_algebra_check",
                "is_self_adjoint", "hamiltonian_field", "poisson_bracket", "dispersion",
                "kahler_condition_check"} <= set(names)
        assert {row_dim for _, row_dim, *_ in kernels + verifies} == {dim}
        # the disc row comes only at dim 1; the rows of single objects
        # alone have no stacked call
        assert ("disc_evolve_closed" in names) == (dim == 1)
        assert [name for name, _, _, stacked in kernels if stacked is None] == [
            "distance", "ExtendedOperator", "compose", "rim op"]
        for _, _, single, stacked in kernels:
            single()
            if stacked is not None:
                stacked()
        assert [name for name, *_ in verifies] == [name for _, name, _, _ in verify.PROPERTIES]


def test_kernel_timings_csv_cases_run(commands, kernel_timings):
    rows, _ = commands
    assert [key for key in rows if key[0] == "trajectory_csv"] == [("trajectory_csv", d) for d in (1, 8, 16)]
    for dim in (1, 8, 16):
        lines = rows["trajectory_csv", dim]().splitlines()
        assert len(lines) == kernel_timings.STEPS + 2
        assert lines[1].count(",") == 2 * dim


def test_kernel_timings_norm_cases_run(commands, kernel_timings):
    rows, inputs = commands
    assert inputs[-1].shape == (5, 5)
    for name in ("norm_b", "norm_s"):
        assert rows[name, kernel_timings.NORM_DIM]() > 0.0


def test_kernel_timings_cli_case_runs(commands, kernel_timings, capsys):
    rows, _ = commands
    assert rows["cli norm b", kernel_timings.NORM_DIM]() == 0
    assert capsys.readouterr().out == ""


def test_kernel_timings_io_cases_run(commands, kernel_timings, tmp_path, capsys):
    rows, (_, _, H, _, _, C) = commands
    assert np.array_equal(rows["load_matrix", kernel_timings.NORM_DIM](), C)
    assert np.array_equal(rows["load_matrix", 16](), H)
    assert rows["cli evolve schrodinger", 16]() == 0
    assert capsys.readouterr().out == ""
    assert len((tmp_path / "evolve.csv").read_text().splitlines()) == kernel_timings.STEPS + 2
    for name, dim in (("trajectory_disc", 1), ("trajectory_exp", 8), ("trajectory_schrodinger", 16)):
        times, points = rows[name, dim]()
        assert len(times) == kernel_timings.STEPS + 1 and points.dim == dim


def test_kernel_timings_verify_cases_run(kernel_timings):
    # a second copy of the package, as --against loads one, which leaves
    # sys.modules as it found it
    def loaded():
        return {name: module for name, module in sys.modules.items() if name.split(".")[0] == "hilbertball"}

    before = loaded()
    package = kernel_timings.load_package(SCRIPTS.parent / "src")
    assert package["verify"] is not verify
    arrays = kernel_timings.draw(verify, 1, np.random.default_rng(0))
    _, verifies = kernel_timings.dim_rows(package, 1, arrays, 2)
    assert [name for name, *_ in verifies] == [name for _, name, _, _ in verify.PROPERTIES]
    for name, _, call, stacked in verifies:
        assert call().name == name and stacked is None
    assert loaded() == before
    # verify takes dims 1..16 only
    arrays = kernel_timings.draw(verify, 17, np.random.default_rng(0))
    assert kernel_timings.dim_rows(package, 17, arrays, 2)[1] == []


def test_kernel_timings_rows_read_dash_for_missing_times(kernel_timings, monkeypatch, capsys):
    row = kernel_timings.row
    assert row("p", 1, [2.0]).split() == ["p", "1", "2.00", "-"]
    assert row("p", 1, [2.0, None]).split() == ["p", "1", "2.00", "-", "-", "-", "-", "-"]
    assert row("k", 4, [3.0, 1.5], [8.0, 2.0]).split() == [
        "k", "4", "3.00", "8.00", "1.50", "2.00", "2.00", "4.00"]
    # a row the other tree lacks, matched by (name, dim)
    monkeypatch.setattr(kernel_timings, "ROUND_SECONDS", 1e-4)
    kernel_timings.print_rows([[("p", 1, lambda: None, lambda: None)], [("p", 2, lambda: None, None)]], 1)
    assert capsys.readouterr().out.split()[4:] == ["-", "-", "-", "-"]


def test_kernel_timings_verify_rows_read_err_for_a_failing_call(kernel_timings, monkeypatch):
    # a property whose result carries an error, as a tree's verify gives
    # for a lazy import that fails
    monkeypatch.setattr(kernel_timings, "ROUND_SECONDS", 1e-4)
    monkeypatch.setattr(verify, "run_property", lambda index, cfg: verify.PropertyResult(
        "p", "geometry", 1, 0.0, 1.0, True, "ModuleNotFoundError: no" if index == 0 else None))
    arrays = kernel_timings.draw(verify, 1, np.random.default_rng(0))
    _, verifies = kernel_timings.dim_rows(this_package(kernel_timings), 1, arrays, 2)
    times, _ = kernel_timings.per_call_us([call for _, _, call, _ in verifies[:2]], 1)
    assert times[0] == "err" and isinstance(times[1], float)
    assert kernel_timings.row("p", 1, times).split()[2:] == ["err", "-", "%.2f" % times[1], "-", "-", "-"]


def test_kernel_timings_cells_read_err_for_a_call_that_raises(kernel_timings, monkeypatch):
    # a stacked call on a tree whose kernel takes single objects only
    # raises; its cell reads `err` and the other tree's time still comes
    monkeypatch.setattr(kernel_timings, "ROUND_SECONDS", 1e-4)

    def single_only():
        raise AttributeError("'numpy.ndarray' object has no attribute 'adjoint'")

    times, values = kernel_timings.per_call_us([lambda: 7, single_only, None], 3)
    assert isinstance(times[0], float) and times[1:] == ["err", None] and values == [7, None, None]
    assert kernel_timings.row("k", 4, [1.0, 2.0], times).split()[2:] == [
        "1.00", "%.2f" % times[0], "2.00", "err", "0.50", "-"]


def test_kernel_timings_csv_rows_compare_the_trees_text(kernel_timings, monkeypatch, capsys):
    # any row whose call returns text, compared with the other tree's
    monkeypatch.setattr(kernel_timings, "ROUND_SECONDS", 1e-4)

    def printed(*values):
        kernel_timings.print_rows([[("t", 1, lambda value=value: value, None)] for value in values], 1)
        return capsys.readouterr().out

    assert printed("a,b\n").endswith(" -\n")
    assert printed("a,b\n", "a,b\n").endswith(" -\n")
    assert printed("a,b\n", "a,c\n").endswith(" -  differs\n")
    assert printed(1.0, 2.0).endswith(" -\n")


def test_kernel_timings_import_row_reads_err_for_a_tree_without_the_package(kernel_timings, monkeypatch,
                                                                            tmp_path):
    # the fresh interpreter of a tree whose import fails does not end the
    # run: its cell reads `err`, and the other tree's time still comes
    monkeypatch.delenv("PYTHONPATH", raising=False)
    monkeypatch.chdir(tmp_path)
    calls = [kernel_timings.import_row(src)[2] for src in (tmp_path, SCRIPTS.parent / "src")]
    times, _ = kernel_timings.per_call_us(calls, 1)
    assert times[0] == "err" and isinstance(times[1], float)


def test_kernel_timings_main_prints_every_row_once(kernel_timings, monkeypatch, capsys):
    for name in ("REPEATS", "VERIFY_ROUNDS", "IMPORT_RUNS"):
        monkeypatch.setattr(kernel_timings, name, 1)
    monkeypatch.setattr(kernel_timings, "ROUND_SECONDS", 1e-4)
    monkeypatch.setattr(kernel_timings, "STEPS", 10)
    monkeypatch.setattr(sys, "argv", ["kernel_timings.py", "--dims", "1", "--trials", "2",
                                      "--against", str(SCRIPTS.parent)])
    kernel_timings.main()
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("#") and lines[1].split()[-2:] == ["ratio_1", "ratio_k"]
    keys = [(line[:30].rstrip(), line[31:35].strip()) for line in lines[2:]]
    assert len(keys) == len(set(keys)) == 24 + len(verify.PROPERTIES) + 12 + 1
    assert keys[-1] == ("import hilbertball.cli", "-")
    for line in lines[2:]:
        cells = line[35:].split()
        assert len(cells) == 6 and "err" not in cells and "differs" not in line, line
        float(cells[4])


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
