import json

import numpy as np
import pytest

from sigmatoda import addition
from sigmatoda.cli import ATTEMPTS_PER_SAMPLE, build_parser, main
from sigmatoda.errors import ThetaDivisorPole

G1 = {"genus": 1, "lambda": [[0.0, 0.0], [-1.0, 0.0], [0.0, 0.0]]}


@pytest.fixture()
def curve_file(tmp_path):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(G1))
    return str(path)


def run(capsys, argv):
    status = main(argv)
    out = capsys.readouterr().out
    return status, out


def test_periods_subcommand(curve_file, capsys):
    status, out = run(capsys, ["periods", "--curve", curve_file])
    assert status == 0
    payload = json.loads(out)
    assert payload["legendre_residual"] < 1e-10
    assert payload["genus"] == 1


def test_malformed_curve_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    status = main(["periods", "--curve", str(bad)])
    assert status == 2
    missing = main(["periods", "--curve", str(tmp_path / "absent.json")])
    assert missing == 2


def test_degenerate_curve_exits_2(tmp_path):
    path = tmp_path / "cusp.json"
    path.write_text(json.dumps(
        {"genus": 1, "lambda": [[0, 0], [0, 0], [0, 0]]}))
    assert main(["periods", "--curve", str(path)]) == 2


def test_torsion_subcommand_finds_known_value(curve_file, capsys):
    status, out = run(capsys, ["torsion", "--curve", curve_file, "--N", "3"])
    assert status == 0
    payload = json.loads(out)
    target = np.sqrt(9 + 6 * np.sqrt(3)) / 3
    hits = [c for c in payload["candidates"]
            if abs(complex(*c["x"]) - target) < 1e-8]
    assert hits
    assert hits[0]["lattice_residual"] < 1e-6


def test_sigma_and_abel_round_trip(curve_file, capsys):
    status, out = run(capsys, ["sigma", "--curve", curve_file,
                               "--u", "0.31,0.12"])
    assert status == 0
    payload = json.loads(out)
    x_re, x_im = payload["wp"][0][0]
    # lift the wp value back through the Abel map
    y2 = complex(x_re, x_im) ** 3 - complex(x_re, x_im)
    y = np.sqrt(y2)
    status2, out2 = run(capsys, [
        "abel", "--curve", curve_file,
        "--points", json.dumps([[x_re, x_im, y.real, y.imag]])])
    assert status2 == 0
    u = json.loads(out2)["u"][0]
    # equal to the input up to lattice and involution sign
    assert min(abs(complex(*u) - 0.31 - 0.12j),
               abs(complex(*u) + 0.31 + 0.12j)) < 1e-6


def test_sigma_refuses_a_u_of_the_wrong_length(curve_file, capsys):
    # 2g pairs at genus one: refused before sigma is evaluated anywhere
    status = main(["sigma", "--curve", curve_file, "--u", "0.31,0.12,0.2,0.1"])
    captured = capsys.readouterr()
    assert status == 2 and captured.out == ""
    assert captured.err.startswith("input error: one point expected")


def test_division_degree_certificate(curve_file, capsys):
    status, out = run(capsys, ["division", "--curve", curve_file, "--n", "5"])
    assert status == 0
    payload = json.loads(out)
    assert payload["degree"] == 12
    assert payload["degree_certified"] is True


def test_verify_addition_deterministic(curve_file, capsys):
    argv = ["verify-addition", "--curve", curve_file,
            "--samples", "3", "--seed", "11"]
    status1, out1 = run(capsys, argv)
    status2, out2 = run(capsys, argv)
    assert status1 == status2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["residuals"]["two_point_addition"]["max"] < 1e-8
    assert set(payload["raised"]) == set(payload["residuals"])
    assert payload["stopped"] == []


def test_verify_addition_stops_a_sampler_that_always_raises(curve_file, capsys,
                                                            monkeypatch):
    def always_raises(ctx, pts):
        raise ThetaDivisorPole("stub")

    monkeypatch.setattr(addition, "fs_residual", always_raises)
    status, out = run(capsys, ["verify-addition", "--curve", curve_file,
                               "--samples", "2", "--seed", "11"])
    assert status == 1
    payload = json.loads(out)
    assert payload["stopped"] == ["frobenius_pair"]
    assert payload["raised"]["frobenius_pair"] == {
        "ThetaDivisorPole": 2 * ATTEMPTS_PER_SAMPLE}
    # no residual for the stopped identity; the others still report theirs
    assert set(payload["residuals"]) == {
        "two_point_addition", "fay_kernel", "baker_bilinear",
        "one_point_f_value", "doubling_kernel"}


def test_toda_run_csv(curve_file, capsys):
    status, out = run(capsys, [
        "toda-run", "--format", "csv", "--curve", curve_file,
        "--point", json.dumps([[1.4678898250138706, 0.0,
                                1.3019113530593938, 0.0]]),
        "--sites", "3", "--t0", "0.0", "--t1", "0.2", "--steps", "3"])
    assert status == 0
    lines = out.strip().splitlines()
    assert lines[0] == "t,site,a_re,a_im,b_re,b_im"
    assert len(lines) == 1 + 3 * 3


TORSION3 = json.dumps([[1.4678898250138706, 0.0, 1.3019113530593938, 0.0]])
X2 = json.dumps([[2.0, 0.0, 6.0 ** 0.5, 0.0]])  # not of order 3: 3 c is off the lattice


def test_toda_run_format_alone_picks_the_writer(curve_file, tmp_path):
    # an --out ending in .csv gets JSON under the default --format json
    out = tmp_path / "run.csv"
    assert main(["toda-run", "--curve", curve_file, "--out", str(out), "--point", TORSION3,
                 "--sites", "3", "--steps", "2"]) == 0
    assert len(json.loads(out.read_text())["series"]) == 2 * 3


def assert_cells_are_floats(rows):
    for row in rows:
        for cell in row:
            float(cell)


def assert_cells_are_json_numbers(rows):
    # a JSON reader gets numbers, not the strings of their repr
    for row in rows:
        for cell in row:
            assert type(cell) in (int, float), cell


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_toda_run_series_are_plain_numbers(curve_file, capsys, fmt):
    # numpy 2 scalars print as np.float64(...) under repr; every cell parses
    status, out = run(capsys, [
        "toda-run", "--format", fmt, "--curve", curve_file, "--point", TORSION3,
        "--sites", "3", "--t0", "0.0", "--t1", "0.2", "--steps", "2"])
    assert status == 0
    rows = ([line.split(",") for line in out.strip().splitlines()[1:]] if fmt == "csv"
            else json.loads(out)["series"])
    assert len(rows) == 2 * 3
    assert_cells_are_floats(rows)
    if fmt == "json":
        assert_cells_are_json_numbers(rows)


@pytest.mark.parametrize("point, periodic", [(TORSION3, True), (X2, False)],
                         ids=["3-torsion", "x=2"])
def test_spectral_reports_whether_the_chain_is_periodic(curve_file, capsys, point, periodic):
    status, out = run(capsys, ["spectral", "--curve", curve_file, "--point", point,
                               "--sites", "3"])
    assert status == 0
    payload = json.loads(out)
    assert payload["periodic"] is periodic
    assert (payload["lattice_residual"] < 1e-6) is periodic
    status, out = run(capsys, ["toda-run", "--curve", curve_file, "--point", point,
                               "--sites", "3", "--steps", "2"])
    assert status == 0
    run_payload = json.loads(out)
    assert run_payload["periodic"] is periodic
    assert run_payload["lattice_residual"] == payload["lattice_residual"]


def test_spectral_subcommand(curve_file, capsys):
    status, out = run(capsys, [
        "spectral", "--curve", curve_file,
        "--point", json.dumps([[1.4678898250138706, 0.0,
                                1.3019113530593938, 0.0]]),
        "--sites", "3"])
    assert status == 0
    payload = json.loads(out)
    assert len(payload["weierstrass_z"]) == 6
    assert payload["morphism_residual"] < 1e-9
    assert payload["lax_determinant_residual"] < 1e-10


def test_poncelet_subcommand(curve_file, tmp_path, capsys):
    from sigmatoda.division import xi_set
    from sigmatoda.poncelet import pair_for_torsion
    from sigmatoda.sigma import sigma_context
    from sigmatoda.curves import make_curve

    ctx = sigma_context(make_curve(1, [0, -1, 0]))
    cand = max((c for c in xi_set(ctx.curve, 3)
                if abs(c.point.x.imag) < 1e-9 and c.point.x.real > 0),
               key=lambda c: c.point.x.real)
    pair = pair_for_torsion(ctx, cand.point)
    conic = tmp_path / "conic.json"
    conic.write_text(json.dumps({
        "matrix": [[[z.real, z.imag] for z in row] for row in pair.matrix]}))
    status, out = run(capsys, ["poncelet", "--conic", str(conic), "--N", "3"])
    assert status == 0
    payload = json.loads(out)
    assert payload["closure_residual_max"] < 1e-6
    assert payload["side_tangency_max"] < 1e-6
    assert_cells_are_floats(payload["vertices"])
    assert_cells_are_json_numbers(payload["vertices"])
    status, out = run(capsys, ["poncelet", "--conic", str(conic), "--N", "3",
                               "--format", "json"])
    assert status == 0
    assert json.loads(out)["vertices"] == payload["vertices"]
    # t = 0 puts vertex 0 on a pole: the sweep moves to 0.1137, and its rows say so
    status, out = run(capsys, ["poncelet", "--conic", str(conic), "--N", "3",
                               "--t0", "0", "--t1", "0.5", "--steps", "2", "--format", "csv"])
    assert status == 0
    rows = [line.split(",") for line in out.strip().splitlines()[1:]]
    assert_cells_are_floats(rows)
    assert [float(row[0]) for row in rows] == [0.1137] * 4 + [0.5] * 4


def test_parser_has_all_subcommands():
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, type(parser._subparsers._group_actions[0])))
    names = set(sub.choices)
    assert {"periods", "sigma", "abel", "verify-addition", "division",
            "torsion", "toda-run", "spectral", "poncelet",
            "verify-all"} <= names


def test_tol_flag_is_rejected(curve_file, capsys):
    # a subcommand refuses every option it does not read: a knob that
    # nothing reads is never silently accepted
    for command, *rest in (["periods", "--tol", "1e-9"],
                           ["periods", "--samples", "3"],
                           ["abel", "--points", "[]", "--format", "csv"]):
        with pytest.raises(SystemExit) as exc:
            main([command, "--curve", curve_file, *rest])
        assert exc.value.code == 2
        assert rest[-2] in capsys.readouterr().err


POINT = "[[2, 0, 2.449489742783178, 0]]"
# every count option, with the other options its subcommand requires; the
# files are never opened, since a bad count is refused while parsing
COUNT_OPTIONS = [
    (["verify-addition", "--curve", "c.json"], "--samples"),
    (["division", "--curve", "c.json"], "--n"),
    (["torsion", "--curve", "c.json"], "--N"),
    (["toda-run", "--curve", "c.json", "--point", POINT], "--sites"),
    (["toda-run", "--curve", "c.json", "--point", POINT], "--steps"),
    (["poncelet", "--conic", "p.json"], "--N"),
    (["poncelet", "--conic", "p.json", "--N", "3"], "--steps"),
]


@pytest.mark.parametrize("argv, flag", COUNT_OPTIONS,
                         ids=[f"{a[0]}{f}" for a, f in COUNT_OPTIONS])
def test_count_below_one_is_refused_by_name(argv, flag, capsys):
    for bad in ("0", "-1", "2.5", "\u00b2"):
        with pytest.raises(SystemExit) as exc:
            main([*argv, flag, bad])
        assert exc.value.code == 2
        assert f"argument {flag}: expected an integer >= 1, got '{bad}'" \
            in capsys.readouterr().err
    args = build_parser().parse_args([*argv, flag, "1"])
    assert getattr(args, flag.lstrip("-")) == 1


def test_spectral_sites_below_two_is_refused_by_name(capsys):
    # the Lax matrix of a period needs two sites, so one is refused while
    # parsing, before any context or frame is built
    argv = ["spectral", "--curve", "c.json", "--point", POINT, "--sites"]
    for bad in ("1", "0", "-1", "2.5", "\u00b2"):
        with pytest.raises(SystemExit) as exc:
            main([*argv, bad])
        assert exc.value.code == 2
        assert f"argument --sites: expected an integer >= 2, got '{bad}'" \
            in capsys.readouterr().err
    assert build_parser().parse_args([*argv, "2"]).sites == 2
