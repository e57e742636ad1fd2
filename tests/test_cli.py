import json
import os
import re
import subprocess
import sys
import types
import warnings

import numpy as np
import pytest

from hilbertball import algebra, cli, dynamics, geometry, isometries, numerics, serialize, verify
from hilbertball.geometry import BallPoint

from conftest import cgauss, spectral_hermitian


def write_vector(path, v):
    serialize.save_matrix(path, np.asarray(v, dtype=complex).reshape(-1, 1))
    return str(path)


def write_matrix(path, M):
    serialize.save_matrix(path, np.asarray(M, dtype=complex))
    return str(path)


def lie_matrix(rng, dim):
    G = cgauss(rng, (dim, dim))
    B = G - G.conj().T
    u = cgauss(rng, dim)
    M = np.zeros((dim + 1, dim + 1), dtype=complex)
    M[:dim, :dim] = B
    M[:dim, dim] = u
    M[dim, :dim] = u.conj()
    M[dim, dim] = 0.25j
    return M


def test_distance_command(tmp_path, capsys):
    uf = write_vector(tmp_path / "u.json", [0.5, 0.0])
    vf = write_vector(tmp_path / "v.json", [0.5j, 0.0])
    assert cli.main(["distance", uf, vf]) == 0
    doc = json.loads(capsys.readouterr().out)
    u = BallPoint([0.5, 0.0])
    v = BallPoint([0.5j, 0.0])
    assert abs(doc["distance"] - geometry.distance(u, v)) < 1e-15
    assert abs(doc["tanh_distance"] - geometry.tanh_distance(u, v)) < 1e-15
    assert doc["difference"] < 1e-12


def test_distance_missing_file_exits_2(tmp_path, capsys):
    uf = write_vector(tmp_path / "u.json", [0.1])
    assert cli.main(["distance", uf, str(tmp_path / "absent.json")]) == 2
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("digits, message", [
    # past the float range: the reader names the entry
    pytest.param(401, "error: data[0][0]: entries must be finite", id="401"),
    # past Python's limit on an integer literal's digits: the file is named
    pytest.param(5000, "error: cannot read {path}: Exceeds the limit (4300 digits)", id="5000"),
])
def test_distance_with_an_integer_literal_too_long_exits_2(tmp_path, capsys, digits, message):
    big = tmp_path / "big.json"
    big.write_text('{"rows": 1, "cols": 1, "data": [[1%s, 0]]}' % ("0" * (digits - 1)))
    zf = write_vector(tmp_path / "z.json", [0.1])
    assert cli.main(["distance", str(big), zf]) == 2
    assert capsys.readouterr().err.startswith(message.format(path=big))


def test_distance_outside_ball_exits_3(tmp_path, capsys):
    uf = write_vector(tmp_path / "u.json", [0.1])
    vf = write_vector(tmp_path / "v.json", [2.0])
    assert cli.main(["distance", uf, vf]) == 3
    assert "error:" in capsys.readouterr().err


def test_evolve_disc_stdout(tmp_path, capsys):
    zf = write_vector(tmp_path / "z.json", [0.2 + 0.1j])
    rc = cli.main(
        ["evolve", "disc", "--state", zf, "--t-max", "1.0", "--dt", "0.25",
         "--a", "0.4", "--b-re", "0.3", "--b-im", "0.1"]
    )
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "t,re_z1,im_z1"
    assert len(lines) == 6
    assert lines[1].startswith("0,")


def test_evolve_out_file_and_summary(tmp_path, capsys):
    zf = write_vector(tmp_path / "z.json", [0.2 + 0.1j])
    dest = tmp_path / "traj.csv"
    rc = cli.main(
        ["evolve", "disc", "--state", zf, "--t-max", "0.5", "--dt", "0.1",
         "--a", "0.2", "--b-re", "0.1", "--out", str(dest)]
    )
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["samples"] == 6
    assert doc["max_norm"] < 1.0
    assert dest.read_text().startswith("t,re_z1,im_z1")


@pytest.mark.parametrize("command", ["evolve", "star"])
def test_unwritable_out_exits_2(tmp_path, capsys, command):
    # evolve's CSV to a directory, star's product under a missing directory
    zf = write_vector(tmp_path / "z.json", [0.2 + 0.1j])
    mf = write_matrix(tmp_path / "m.json", np.eye(2))
    argv, dest = {"evolve": (["evolve", "disc", "--state", zf, "--t-max", "0.5", "--dt", "0.1"], tmp_path),
                  "star": (["star", mf, mf, "--state", zf], tmp_path / "missing" / "x.json")}[command]
    assert cli.main(argv + ["--out", str(dest)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert re.fullmatch(re.escape(f"error: cannot write {dest}: ") + r"\[Errno \d+\] .+\n", err)


def test_evolve_schrodinger(tmp_path, capsys):
    H = np.array([[0.5, 0.2 - 0.1j], [0.2 + 0.1j, -0.3]])
    hf = write_matrix(tmp_path / "h.json", H)
    zf = write_vector(tmp_path / "z.json", [0.3, 0.1j])
    rc = cli.main(
        ["evolve", "schrodinger", "--state", zf, "--hamiltonian", hf,
         "--t-max", "0.4", "--dt", "0.2"]
    )
    assert rc == 0
    assert len(capsys.readouterr().out.splitlines()) == 4


def test_evolve_schrodinger_large_hamiltonian_from_json(tmp_path, capsys):
    # a self-adjoint H of norm 1e4 whose roundoff defect exceeds the
    # absolute 1e-12; the JSON round trip keeps its bits
    rng = np.random.default_rng(7)
    H = spectral_hermitian(rng, 4, 1e4)
    while numerics.op_norm(H - H.conj().T) <= algebra.SELF_ADJOINT_TOL:
        H = spectral_hermitian(rng, 4, 1e4)
    hf = write_matrix(tmp_path / "h.json", H)
    assert np.array_equal(serialize.load_matrix(hf), H)
    zf = write_vector(tmp_path / "z.json", [0.3, 0.1j, 0.2, -0.1])
    rc = cli.main(
        ["evolve", "schrodinger", "--state", zf, "--hamiltonian", hf,
         "--t-max", "0.4", "--dt", "0.2"]
    )
    assert rc == 0
    assert len(capsys.readouterr().out.splitlines()) == 4


def test_evolve_exp_and_bad_generator(tmp_path, capsys):
    rng = np.random.default_rng(2)
    gf = write_matrix(tmp_path / "x.json", lie_matrix(rng, 2))
    zf = write_vector(tmp_path / "z.json", [0.2, 0.1])
    rc = cli.main(
        ["evolve", "exp", "--state", zf, "--generator", gf, "--t-max", "0.6", "--dt", "0.3"]
    )
    assert rc == 0
    capsys.readouterr()
    # a hermitian block is not a flow generator: domain failure, code 3
    bad = write_matrix(tmp_path / "bad.json", np.eye(3, dtype=complex))
    rc = cli.main(
        ["evolve", "exp", "--state", zf, "--generator", bad, "--t-max", "0.6", "--dt", "0.3"]
    )
    assert rc == 3
    assert "error:" in capsys.readouterr().err


def csv_points(text):
    """Row count and the (rows, n) complex points of a trajectory CSV."""
    rows = np.array([[float(x) for x in line.split(",")] for line in text.splitlines()[1:]])
    return len(rows), rows[:, 1::2] + 1j * rows[:, 2::2]


@pytest.mark.parametrize("mode", ["disc", "schrodinger", "exp"])
def test_evolve_summary_matches_csv(tmp_path, capsys, mode):
    rng = np.random.default_rng(5)
    dest = tmp_path / "traj.csv"
    if mode == "disc":
        zf = write_vector(tmp_path / "z.json", [0.4 - 0.3j])
        flags = ["--a", "0.3", "--b-re", "0.8", "--b-im", "0.2"]
    elif mode == "schrodinger":
        G = cgauss(rng, (4, 4))
        zf = write_vector(tmp_path / "z.json", [0.3, 0.2j, -0.1, 0.4])
        flags = ["--hamiltonian", write_matrix(tmp_path / "h.json", 0.5 * (G + G.conj().T))]
    else:
        zf = write_vector(tmp_path / "z.json", [0.2, 0.1 - 0.3j])
        flags = ["--generator", write_matrix(tmp_path / "x.json", 0.2 * lie_matrix(rng, 2))]
    argv = ["evolve", mode, "--state", zf, "--t-max", "3", "--dt", "0.01", *flags]
    assert cli.main(argv + ["--out", str(dest)]) == 0
    doc = json.loads(capsys.readouterr().out)
    count, Z = csv_points(dest.read_text())
    assert doc["samples"] == count == 301
    assert doc["max_norm"] == np.linalg.norm(Z, axis=-1).max()
    # the same trajectory on stdout
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == dest.read_text()


def test_evolve_rim_exit_names_the_first_sample(tmp_path, capsys):
    # the README disc example at t = 40: its exact orbit reaches the rim
    # faster than a float z can follow, so it exits 3 at the first
    # sample whose norm rounds past BallPoint's margin
    zf = write_vector(tmp_path / "z.json", [0.5])
    rc = cli.main(["evolve", "disc", "--state", zf, "--a", "0.3", "--b-re", "0.8",
                   "--b-im", "0.2", "--t-max", "40", "--dt", "0.1"])
    assert rc == 3
    err = capsys.readouterr().err
    found = re.fullmatch(r"error: sample (\d+) \(t = (\S+)\): point with norm (\S+) "
                         r"is outside the open ball\n", err)
    assert found, err
    index, t, norm = int(found[1]), float(found[2]), found[3]
    assert index == 177 and t == 177 * 0.1 and found[2] == "17.7"
    g = dynamics.DiscGenerator(0.3, 0.8 + 0.2j)
    orbit = dynamics.disc_evolve_closed(g, 0.5, np.arange(index + 1) * 0.1)
    norms = np.linalg.norm(orbit[:, None], axis=-1)
    assert norm == "%.17g" % norms[index]
    assert norms[index] >= 1.0 - geometry.BOUNDARY_MARGIN > norms[:index].max()


def test_evolve_exp_rim_exit_names_the_first_sample(tmp_path, capsys):
    # a hyperbolic exp flow leaves the ball in a block moved by the group
    # law; the error names that block's first bad sample like a disc
    # orbit's
    zf = write_vector(tmp_path / "z.json", [0.1])
    gf = write_matrix(tmp_path / "x.json", [[0.0, 2.0], [2.0, 0.0]])
    rc = cli.main(["evolve", "exp", "--state", zf, "--generator", gf,
                   "--t-max", "40", "--dt", "0.02"])
    assert rc == 3
    err = capsys.readouterr().err
    found = re.fullmatch(r"error: sample (\d+) \(t = (\S+)\): point with norm (\S+) "
                         r"is outside the open ball\n", err)
    assert found, err
    index, norm = int(found[1]), float(found[3])
    assert index >= dynamics.TIME_BLOCK and found[2] == repr(index * 0.02)
    assert found[3] == "%.17g" % norm and norm >= 1.0 - geometry.BOUNDARY_MARGIN
    X = isometries.ExtendedOperator(np.array([[0.0, 2.0], [2.0, 0.0]], dtype=complex))
    # every earlier sample is inside, and the named one is on the flow
    _, points = dynamics.trajectory(X, BallPoint([0.1]), (index - 1) * 0.02, 0.02)
    assert len(points.vector) == index
    w = numerics.mat_exp(X.matrix, index * 0.02) @ np.array([0.1, 1.0])
    assert abs(norm - abs(w[0] / w[1])) < 1e-12


@pytest.mark.parametrize("flag, value", [("--a", "nan"), ("--a", "inf"), ("--b-re", "nan"),
                                         ("--b-im", "inf")])
def test_evolve_non_finite_disc_generator_exits_3(tmp_path, capsys, flag, value):
    zf = write_vector(tmp_path / "z.json", [0.5])
    argv = ["evolve", "disc", "--state", zf, "--a", "0.3", "--b-re", "0.8",
            "--t-max", "1", "--dt", "0.1", flag, value]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert cli.main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == "error: disc generator has non-finite a or b\n"


@pytest.mark.parametrize("flags, code", [(["--a", "-1e-3"], 0), (["--b-re", "-2e-1"], 0),
                                         (["--t-max", "-1e2"], 3), (["--a=-1e-3"], 0)])
def test_evolve_takes_negative_numbers_in_exponent_form(tmp_path, capsys, flags, code):
    # argparse alone reads only plain decimals such as -0.5 as values
    zf = write_vector(tmp_path / "z.json", [0.5])
    argv = ["evolve", "disc", "--state", zf, "--t-max", "0.2", "--dt", "0.1"]
    assert cli.main(argv + flags) == code
    err = capsys.readouterr().err
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1


def test_evolve_missing_mode_input(tmp_path, capsys):
    zf = write_vector(tmp_path / "z.json", [0.2])
    rc = cli.main(["evolve", "schrodinger", "--state", zf, "--t-max", "1", "--dt", "0.5"])
    assert rc == 2


def test_star_product_document(tmp_path, capsys):
    rng = np.random.default_rng(3)
    A = cgauss(rng, (3, 3))
    B = cgauss(rng, (3, 3))
    lf = write_matrix(tmp_path / "a.json", A)
    rf = write_matrix(tmp_path / "b.json", B)
    assert cli.main(["star", lf, rf]) == 0
    doc = json.loads(capsys.readouterr().out)
    got = serialize.matrix_from_json(doc)
    eps = np.diag([-1.0, -1.0, 1.0]).astype(complex)
    assert np.allclose(got, A @ eps @ B, atol=1e-14)


def test_star_state_evaluation(tmp_path, capsys):
    rng = np.random.default_rng(4)
    lf = write_matrix(tmp_path / "a.json", cgauss(rng, (3, 3)))
    rf = write_matrix(tmp_path / "b.json", cgauss(rng, (3, 3)))
    zf = write_vector(tmp_path / "z.json", [0.2 + 0.1j, -0.3j])
    out = tmp_path / "prod.json"
    rc = cli.main(["star", lf, rf, "--state", zf, "--out", str(out)])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["difference"] < 1e-9
    assert serialize.load_matrix(out).shape == (3, 3)


def test_norm_command(tmp_path, capsys):
    rng = np.random.default_rng(6)
    cf = write_matrix(tmp_path / "c.json", cgauss(rng, (4, 4)))
    rc = cli.main(["norm", cf, "--which", "b", "--samples", "1024", "--seed", "1"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert set(doc) == {"which", "estimate", "oracle_op_norm", "gap"}
    # b is exact; the gap is roundoff of either sign
    assert abs(doc["gap"]) <= 1e-12
    rc = cli.main(["norm", cf, "--which", "s"])
    assert rc == 0
    assert json.loads(capsys.readouterr().out)["which"] == "s"


def test_norm_bad_samples_exits_2(tmp_path, capsys):
    cf = write_matrix(tmp_path / "c.json", np.eye(3, dtype=complex))
    assert cli.main(["norm", cf, "--samples", "many"]) == 2


OUT_OF_RANGE = [("verify", "--seed", "-1")] + [
    (which, flag, value) for which in "bsd" for flag, value in (("--seed", "-1"), ("--samples", "0"))
]


@pytest.mark.parametrize("command,flag,value", OUT_OF_RANGE,
                         ids=["-".join(case) for case in OUT_OF_RANGE])
def test_out_of_range_seed_or_samples_exits_3(tmp_path, capsys, command, flag, value):
    if command == "verify":
        argv = ["verify", "geometry", "--dim", "2", "--trials", "2"]
    else:
        argv = ["norm", write_matrix(tmp_path / "c.json", np.eye(3, dtype=complex)),
                "--which", command]
    assert cli.main(argv + [flag, value]) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


@pytest.mark.parametrize("t_max,dt", [("nan", "0.1"), ("inf", "0.1"), ("1.0", "nan"),
                                      ("1e300", "1e-300")])
def test_evolve_non_finite_step_counts_exit_3(tmp_path, capsys, t_max, dt):
    zf = write_vector(tmp_path / "z.json", [0.2 + 0.1j])
    argv = ["evolve", "disc", "--state", zf, "--t-max", t_max, "--dt", dt,
            "--a", "0.4", "--b-re", "0.3"]
    assert cli.main(argv) == 3
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err


def test_parser_is_built_once_and_calls_share_no_state(tmp_path, capsys):
    assert cli.build_parser() is cli.build_parser()
    cf = write_matrix(tmp_path / "c.json", np.eye(3, dtype=complex))
    assert cli.main(["norm", cf, "--which", "s", "--samples", "64"]) == 0
    assert json.loads(capsys.readouterr().out)["which"] == "s"
    assert cli.main(["norm", cf]) == 0
    assert json.loads(capsys.readouterr().out)["which"] == "b"
    dest = tmp_path / "product.json"
    args = ["star", cf, cf]
    assert cli.main(args + ["--out", str(dest)]) == 0
    dest.write_text("kept")
    assert cli.main(args) == 0
    assert dest.read_text() == "kept"


def test_verify_reports_are_byte_identical(capsys):
    args = ["verify", "geometry", "--dim", "2", "--trials", "10", "--seed", "5"]
    assert cli.main(args) == 0
    first = capsys.readouterr().out
    assert cli.main(args) == 0
    second = capsys.readouterr().out
    assert first == second
    report = json.loads(first)
    assert report["passed"] is True
    assert report["failed_properties"] == []
    names = [p["name"] for p in report["properties"]]
    assert names == sorted(names)


def test_verify_rejects_bad_configuration(capsys):
    assert cli.main(["verify", "all", "--dim", "0", "--trials", "5"]) == 3
    capsys.readouterr()
    assert cli.main(["verify", "all", "--trials", "x"]) == 2
    capsys.readouterr()
    with pytest.raises(SystemExit):
        cli.main(["verify", "nonsense"])


def test_verify_has_no_tolerance_flag(capsys):
    # every property is held to its own fixed tolerance, and the report
    # goes to stdout only (redirect it to keep a copy)
    for flag, value in (("--tol", "1"), ("--out", "x")):
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "all", "--dim", "2", "--trials", "5", flag, value])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err


def test_verify_flags_broken_metric(monkeypatch, capsys):
    # a bilinear stand-in loses the J-invariance the true pairing has;
    # the suite must fail and say which property broke.  It takes single
    # points and stacks alike, so the property fails by its defect, not
    # by a crash.
    def bilinear(z, s, t):
        k = geometry.k_factor(z)
        return k * (np.sum(s.antihol * t.hol, axis=-1) + np.sum(t.antihol * s.hol, axis=-1))

    monkeypatch.setattr("hilbertball.geometry.metric", bilinear)
    rc = cli.main(["verify", "geometry", "--dim", "2", "--trials", "10"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "verification failed:" in captured.err
    assert "metric_j_invariance" in captured.err
    report = json.loads(captured.out)
    assert "metric_j_invariance" in report["failed_properties"]
    entry = next(p for p in report["properties"] if p["name"] == "metric_j_invariance")
    assert entry["error"] is None and 0.0 < entry["max_defect"] < float("inf")


def test_closed_stdout_exits_4_without_a_traceback():
    # the read end is closed before the child starts, so its first write
    # to stdout fails whatever its timing
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        run = subprocess.run([sys.executable, "-m", "hilbertball", "verify", "geometry", "--dim", "1",
                              "--trials", "2"], stdout=write_end, stderr=subprocess.PIPE,
                             env=dict(os.environ, PYTHONPATH=path))
    finally:
        os.close(write_end)
    assert run.returncode == 4
    assert run.stderr == b""


def test_verify_reports_any_exception(monkeypatch, capsys):
    # a property that raises outside the numeric error types still
    # yields the complete report and exit code 1
    index = [entry[1] for entry in verify.PROPERTIES].index("metric_positivity")
    suite, name, tol, _ = verify.PROPERTIES[index]

    def broken(cfg, rng):
        raise TypeError("unsupported operand")

    patched = list(verify.PROPERTIES)
    patched[index] = (suite, name, tol, broken)
    monkeypatch.setattr(verify, "PROPERTIES", tuple(patched))
    rc = cli.main(["verify", "geometry", "--dim", "2", "--trials", "5"])
    assert rc == 1
    captured = capsys.readouterr()
    report = json.loads(captured.out)
    assert len(report["properties"]) == sum(e[0] == "geometry" for e in verify.PROPERTIES)
    assert report["failed_properties"] == ["metric_positivity"]
    entry = next(p for p in report["properties"] if p["name"] == "metric_positivity")
    assert entry["error"] == "TypeError: unsupported operand"
    assert "verification failed: metric_positivity" in captured.err


def test_verify_flags_broken_stacked_mobius(monkeypatch, capsys):
    # halving the images of a stack keeps them inside the ball but breaks
    # distance invariance; single points still get the true map
    true_apply = isometries.mobius_apply

    def halved(T, z):
        image = true_apply(T, z)
        return image if image.vector.ndim == 1 else BallPoint(0.5 * image.vector)

    monkeypatch.setattr("hilbertball.isometries.mobius_apply", halved)
    rc = cli.main(["verify", "geometry", "--dim", "2", "--trials", "10"])
    assert rc == 1
    captured = capsys.readouterr()
    assert "isometry_distance_invariance" in captured.err
    report = json.loads(captured.out)
    assert "isometry_distance_invariance" in report["failed_properties"]


def _scaled_metric(e):
    # the probed curvature -(1/(2 lambda)) Laplacian(log lambda) scales by
    # 1/(1 + e) for a metric times 1 + e: a defect of 2e where the true
    # metric reads 3e-10, so 1 + 1e-8 shows too
    return lambda metric: lambda z, s, t: (1.0 + e) * metric(z, s, t)


def _radial_metric(metric):
    # 1 for ||z|| <= 1/2 and 1 + 1e-4 (||z|| - 1/2)^3 beyond: shows only to
    # a probe that reads the metric at the point it is given (about 6e-6)
    def planted(z, s, t):
        r = np.linalg.norm(getattr(z, "vector", z), axis=-1)
        return (1.0 + 1e-4 * np.maximum(r - 0.5, 0.0) ** 3) * metric(z, s, t)
    return planted


def _transposed_star(star):
    def planted(C, Cp):
        P = star(C, Cp)
        if isinstance(P, isometries.ExtendedOperator):
            return isometries.ExtendedOperator(P.matrix.T)
        return P.swapaxes(-1, -2)
    return planted


def _linear_half(projection):
    # dropping the conjugate-linear half B of every projection keeps the
    # two halves of a complete frame adding up to I, since their A halves
    # do so on their own; the projection's action on its frame fails
    def planted(basis):
        A, B = projection(basis)
        return A, np.zeros_like(B)
    return planted


def _top_eigenvalue(hermitian_norm):
    # lambda_max alone drops -lambda_min from the norm of every Hermitian
    # residual; the checks on members still pass, and only the property
    # that reads their defects against op_norm of the residuals can fail
    def planted(H):
        top = np.linalg.eigvalsh(H)[..., -1]
        return float(top) if np.ndim(H) == 2 else top
    planted.__wrapped__ = planted  # guarded callers read the body
    return planted


def _taylor_term_dropped(k):
    # exp's Taylor series without its term k: exp(tX) is then off by about
    # ||tX / 2^s||^k / k! before squaring
    return lambda taylor: taylor[:k] + (0.0,) + taylor[k + 1:]


def _epsilon_corner_off(epsilon_matrix):
    # eps with its (0, 0) entry off by 1e-9, where the isometries read it
    def planted(dim):
        eps = epsilon_matrix(dim)
        eps[0, 0] = -1.0 - 1e-9
        return eps
    return planted


def _log_for_log1p(module_math):
    # geometry's math with log1p(x) read as log(x): the distance loses the
    # 1 of (m + s)/(m - s) = 1 + 2s/(m - s), its only log1p
    return types.SimpleNamespace(**{**vars(module_math), "log1p": module_math.log})


_ALL = ["verify", "all", "--dim", "4", "--trials", "200", "--seed", "0"]
_GEOMETRY_4 = ["verify", "geometry", "--dim", "4", "--trials", "200", "--seed", "0"]
_GEOMETRY_2 = ["verify", "geometry", "--dim", "2", "--trials", "10"]
_STAR = ["star_associativity", "star_homomorphism"]
_OFF_ALGEBRA = "DomainError: generator leaves the isometry Lie algebra"


# Planted defects: each row swaps one module attribute for a broken
# version of it (`make` maps the true attribute to the planted one), runs
# `verify` and names exactly the properties that must fail, each with a
# finite defect or, as a (name, error) pair, with that error.
@pytest.mark.parametrize("module, name, make, argv, failed", [
    pytest.param(algebra, "HBAR", lambda hbar: -hbar, _ALL, _STAR, id="hbar_sign_flipped"),
    pytest.param(algebra, "star_operator", _transposed_star, _ALL, ["cstar_chain_identity"] + _STAR,
                 id="star_operator_transposed"),
    # HBAR keeps the value it was given at import
    pytest.param(geometry, "CURVATURE", lambda curvature: -curvature, _ALL, ["curvature_constancy"],
                 id="curvature_sign_flipped"),
    pytest.param(geometry, "math", _log_for_log1p, _ALL,
                 ["distance_formula_agreement", "radial_distance_identity", "triangle_inequality"],
                 id="distance_log1p_as_log"),
    # no other geometry property reads the metric's scale
    pytest.param(geometry, "metric", _scaled_metric(1e-5), _GEOMETRY_4, ["curvature_constancy"],
                 id="metric_scaled_by_1e-5"),
    pytest.param(geometry, "metric", _scaled_metric(1e-8), _GEOMETRY_4, ["curvature_constancy"],
                 id="metric_scaled_by_1e-8"),
    pytest.param(geometry, "metric", _radial_metric, _GEOMETRY_4, ["curvature_constancy"],
                 id="metric_scaled_radially"),
    pytest.param(numerics, "real_projection", _linear_half, _GEOMETRY_2, ["projection_complement_identity"],
                 id="projection_without_conjugate_half"),
    # the four checks, `algebra.is_self_adjoint` among them, read their
    # residuals through `isometries._residual_norm`
    pytest.param(isometries, "hermitian_norm", _top_eigenvalue, _GEOMETRY_2, ["membership_defect_agreement"],
                 id="under_reporting_hermitian_norm"),
    pytest.param(numerics, "_TAYLOR", _taylor_term_dropped(9), _ALL,
                 ["disc_closed_form_agreement", "exp_additivity", "exponential_membership"], id="taylor_term_9_zeroed"),
    # the flows' generators then leave the Lie algebra by the check that reads eps
    pytest.param(isometries, "epsilon_matrix", _epsilon_corner_off, _ALL,
                 [("disc_closed_form_agreement", _OFF_ALGEBRA), "exponential_membership",
                  ("flow_distance_invariance", _OFF_ALGEBRA), ("flow_group_law", _OFF_ALGEBRA), "group_closure",
                  "transport_transitivity", "unit_function"], id="epsilon_entry_off_by_1e-9"),
])
def test_verify_flags_planted_defect(monkeypatch, capsys, module, name, make, argv, failed):
    monkeypatch.setattr(module, name, make(getattr(module, name)))
    errors = dict(prop for prop in failed if isinstance(prop, tuple))
    failed = [prop[0] if isinstance(prop, tuple) else prop for prop in failed]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("verification failed:")
    assert all(prop in captured.err for prop in failed)
    report = json.loads(captured.out)
    assert report["failed_properties"] == failed
    for entry in report["properties"]:
        if entry["name"] in errors:
            assert entry["error"] == errors[entry["name"]]
        elif entry["name"] in failed:
            assert entry["error"] is None and 0.0 < entry["max_defect"] < float("inf")
