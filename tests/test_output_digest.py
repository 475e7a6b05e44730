import copy
import importlib.util
import json
from pathlib import Path

import numpy as np

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_digest.py"


def _tool():
    spec = importlib.util.spec_from_file_location("output_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_digest_repeats_and_tells_seeds_apart():
    tool = _tool()
    first = tool.digest(1, 2, 2)
    assert first == tool.digest(1, 2, 2)
    assert set(first) == {"seed", "addition", "toda", "toda_setup", "toda_constants",
                          "contexts"}
    other = tool.digest(2, 2, 2)
    for key in ("addition", "toda"):
        assert first[key]["ops"] == 2 and len(first[key]["sha256"]) == 64
        assert other[key]["sha256"] != first[key]["sha256"]
    for key in ("toda_setup", "toda_constants"):
        assert len(first[key]) == 64 and other[key] != first[key]
    # the canonical contexts draw no seed
    assert len(first["contexts"]) == 64 and other["contexts"] == first["contexts"]


def test_values_file_holds_the_numbers_behind_the_digests(tmp_path, capsys):
    tool = _tool()
    path = tmp_path / "values.json"
    assert tool.main(["--seed", "1", "--addition-ops", "2", "--toda-ops", "3",
                      "--values", str(path)]) == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed == tool.digest(1, 2, 3)
    values = json.loads(path.read_text())
    assert set(values) == {"seed", "addition", "toda", "toda_constants", "contexts"}
    for name, n_ops in (("addition", 2), ("toda", 3)):
        assert len(values[name]["residuals"]) == len(values[name]["failures"]) == n_ops
    # the residuals are those the digest hashes, op by op
    results = tool.op_results("addition", 1, 2)
    assert values["addition"]["residuals"] == [res.residuals for res in results]
    assert [len(c) for c in values["contexts"]] == [2, 2]
    assert np.shape(values["contexts"][1]["kappa"]) == (2, 2, 2)
    assert len(values["toda_constants"]) == 4
    # value_moves reads no move against itself and the move of a perturbed copy
    moves = tool.value_moves(values, values)
    assert moves.pop("failures") is True and set(moves.values()) == {0.0}
    moved = copy.deepcopy(values)
    moved["toda"]["residuals"][2][0] += 1e-13
    moved["contexts"][0]["gamma0"][0] *= 1 + 1e-15
    moved["addition"]["failures"][0].append([1, "gate:x"])
    moves = tool.value_moves(values, moved)
    assert moves["failures"] is False and moves["addition"] == 0.0
    assert 0 < moves["toda"] <= 2e-13 and 0 < moves["gamma0"] <= 2e-15


def test_cli_digest_repeats(tmp_path):
    # verify-all's own repeatability is criterion 8's; the rest runs twice
    tool = _tool()
    names = set(tool.cli_invocations(0, "tmp")) - {"verify_all_out"}
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    first = tool.cli_digest(0, str(tmp_path / "a"), names)
    assert first == tool.cli_digest(0, str(tmp_path / "b"), names)
    assert set(first) == names
    # every invocation has its own output
    assert len(set(first.values())) == len(first)


def test_cli_digest_hashes_a_missing_output_file(tmp_path, monkeypatch):
    # a failing --out invocation after a writing one hashes as it does alone
    tool = _tool()
    g1 = str(tool.ROOT / "curves" / "lemniscatic_g1.json")
    missing = str(tmp_path / "missing.json")

    def invocations(seed, tmp):
        return {"good": ["periods", "--curve", g1, "--out", f"{tmp}/good"],
                "bad": ["periods", "--curve", missing, "--out", f"{tmp}/bad"]}

    monkeypatch.setattr(tool, "cli_invocations", invocations)
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    both = tool.cli_digest(0, str(tmp_path / "a"))
    alone = tool.cli_digest(0, str(tmp_path / "b"), {"bad"})
    assert not (tmp_path / "a" / "bad").exists()
    assert both["bad"] == alone["bad"] != both["good"]


def test_generic_periods_digest_repeats_and_sees_a_sign(monkeypatch):
    tool = _tool()
    first = tool.generic_periods_digest(2)
    assert len(first) == 64 and first == tool.generic_periods_digest(2)
    assert first != tool.generic_periods_digest(3)
    # a flipped transport sign shows, although the periods it gives fail
    # their certificate and hash as an error name
    import sigmatoda.periods as periods

    signs = periods._transport_signs
    monkeypatch.setattr(periods, "_transport_signs",
                        lambda e: (-signs(e)[0], signs(e)[1]))
    assert tool.generic_periods_digest(2) != first
