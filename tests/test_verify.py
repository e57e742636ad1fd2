import math

import numpy as np
import pytest

from hilbertball.errors import DomainError
from hilbertball.verify import (
    PROPERTIES,
    SUITES,
    VerifyConfig,
    run_property,
    run_suite,
)


def test_config_validation():
    VerifyConfig(dim=1, trials=1)
    VerifyConfig(dim=16, trials=5000)
    with pytest.raises(DomainError):
        VerifyConfig(dim=0)
    with pytest.raises(DomainError):
        VerifyConfig(dim=17)
    with pytest.raises(DomainError):
        VerifyConfig(trials=0)


def test_registry_covers_all_suites():
    suites = {entry[0] for entry in PROPERTIES}
    assert suites == set(SUITES)
    names = [entry[1] for entry in PROPERTIES]
    assert len(names) == len(set(names))


def test_single_property_is_deterministic():
    cfg = VerifyConfig(dim=2, trials=5, seed=9)
    a = run_property(0, cfg)
    b = run_property(0, cfg)
    assert a == b


def test_suite_filter_and_report_shape():
    cfg = VerifyConfig(dim=2, trials=5, seed=1)
    report = run_suite("dynamics", cfg)
    assert report["suite"] == "dynamics"
    assert report["dim"] == 2 and report["trials"] == 5 and report["seed"] == 1
    assert all(p["suite"] == "dynamics" for p in report["properties"])
    names = [p["name"] for p in report["properties"]]
    assert names == sorted(names)
    assert report["passed"] is True
    assert all(p["error"] is None for p in report["properties"])
    with pytest.raises(DomainError):
        run_suite("nope", cfg)


def test_tiny_tolerance_forces_failures(monkeypatch):
    import hilbertball.verify as verify_module

    tiny = tuple((suite, name, 1e-30 * tol, runner) for suite, name, tol, runner in PROPERTIES)
    monkeypatch.setattr(verify_module, "PROPERTIES", tiny)
    report = run_suite("algebra", VerifyConfig(dim=2, trials=5, seed=0))
    assert report["passed"] is False
    assert len(report["failed_properties"]) > 0
    assert report["failed_properties"] == sorted(report["failed_properties"])


def test_crashing_runner_reported_not_raised(monkeypatch):
    # replace one runner with a crash; the run completes and flags it
    import hilbertball.verify as verify_module

    suite, name, tol, _ = PROPERTIES[0]

    def boom(cfg, rng):
        raise ValueError("synthetic failure")

    patched = ((suite, name, tol, boom),) + tuple(PROPERTIES[1:])
    monkeypatch.setattr(verify_module, "PROPERTIES", patched)
    res = run_property(0, VerifyConfig(dim=2, trials=3))
    assert res.passed is False
    assert math.isinf(res.max_defect)
    assert res.error == "ValueError: synthetic failure"


@pytest.mark.parametrize("dim, trials", [(7, 10), (16, 2)])
def test_representation_injectivity_at_high_dims(dim, trials):
    # (n+1)^2 unknowns outgrow a fixed fifty points from dim 7 on
    index = [entry[1] for entry in PROPERTIES].index("representation_injectivity")
    res = run_property(index, VerifyConfig(dim=dim, trials=trials, seed=0))
    assert res.passed and res.error is None


def _index(name):
    return [entry[1] for entry in PROPERTIES].index(name)


DISTANCE_PROPERTIES = (
    "distance_symmetry",
    "triangle_inequality",
    "radial_distance_identity",
    "distance_formula_agreement",
    "isometry_distance_invariance",
    "flow_distance_invariance",
)


@pytest.mark.parametrize("name", DISTANCE_PROPERTIES)
def test_nan_distance_fails_every_distance_property(monkeypatch, name):
    from hilbertball import geometry

    monkeypatch.setattr(geometry, "distance", lambda u, v: math.nan)
    res = run_property(_index(name), VerifyConfig(dim=2, trials=10))
    assert res.passed is False and math.isnan(res.max_defect)


def test_nan_op_norm_of_one_size_fails_the_square_identity(monkeypatch):
    # sizes 2..8 stay clean; only the last group of the reduction is NaN
    from hilbertball import numerics

    op_norm = numerics.op_norm

    def nan_at_nine(M):
        norms = op_norm(M)
        return np.full_like(norms, np.nan) if np.shape(M)[-1] == 9 else norms

    monkeypatch.setattr(numerics, "op_norm", nan_at_nine)
    res = run_property(_index("op_norm_square_identity"), VerifyConfig(dim=2, trials=16))
    assert res.passed is False and math.isnan(res.max_defect)
