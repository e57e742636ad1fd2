"""Smoke test of the experiment scripts, in-process and without running
their `main`: each imports, and the library calls that
`kernel_timings.py` times run once, so a script that calls a deleted or
re-signatured library function fails here.  The fresh interpreters of
the import row are not started."""

import importlib
from pathlib import Path

import numpy as np
import pytest

from hilbertball import algebra, cli, dynamics, geometry, isometries, numerics, serialize

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.fixture
def scripts_path(monkeypatch):
    # verify_timings imports kernel_timings as a sibling module
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
                "is_self_adjoint"} <= set(names)
        # the disc row comes only at dim 1
        assert ("disc_evolve_closed" in names) == (dim == 1)
        for _, single, stacked in rows:
            single()
            if stacked is not None:
                stacked()


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
