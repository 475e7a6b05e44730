import importlib.util
from pathlib import Path

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
