import math

import numpy as np
import pytest

from hilbertball.errors import DomainError
from hilbertball.verify import (
    PINNED_TRIALS,
    PROPERTIES,
    SUITES,
    VerifyConfig,
    run_property,
    run_suite,
)

from conftest import same_bytes


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


def _defects(name, cfg):
    """A property's per-trial defects, drawn as `run_property` draws them."""
    index = _index(name)
    return PROPERTIES[index][3](cfg, np.random.default_rng([cfg.seed, index]))


@pytest.mark.parametrize("name", [entry[1] for entry in PROPERTIES])
def test_every_property_returns_its_per_trial_defects(name):
    # one entry per trial along the first axis; `run_property` counts
    # them and reduces them to the reported max
    cfg = VerifyConfig(dim=2, trials=10, seed=0)
    defects = _defects(name, cfg)
    res = run_property(_index(name), cfg)
    want = {"metric_j_invariance": PINNED_TRIALS, "membership_equivalence": PINNED_TRIALS,
            "involution_twist_witness": 1}.get(name, cfg.trials)
    assert len(defects) == res.trials == want
    assert same_bytes([np.max(defects, initial=0.0)], [res.max_defect])


def test_nan_op_norm_of_one_size_fails_the_square_identity(monkeypatch):
    # sizes 2..8 stay clean; only size 9, drawn at trials 7 and 15, is NaN
    from hilbertball import numerics

    op_norm = numerics.op_norm

    def nan_at_nine(M):
        norms = op_norm(M)
        return np.full_like(norms, np.nan) if np.shape(M)[-1] == 9 else norms

    monkeypatch.setattr(numerics, "op_norm", nan_at_nine)
    cfg = VerifyConfig(dim=2, trials=16)
    res = run_property(_index("op_norm_square_identity"), cfg)
    assert res.passed is False and math.isnan(res.max_defect)
    assert np.flatnonzero(np.isnan(_defects("op_norm_square_identity", cfg))).tolist() == [7, 15]


def test_nan_disc_distance_sits_at_the_disc_trials(monkeypatch):
    # trials cycle through exponential, Schroedinger and disc flows; a
    # distance that is NaN on disc points only marks trials 2, 5 and 8
    from hilbertball import geometry

    distance = geometry.distance
    monkeypatch.setattr(geometry, "distance",
                        lambda u, v: math.nan if u.vector.size == 1 else distance(u, v))
    defects = _defects("flow_distance_invariance", VerifyConfig(dim=2, trials=10))
    assert np.flatnonzero(np.isnan(defects)).tolist() == [2, 5, 8]
