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
    assert set(first) == {"seed", "addition", "toda", "toda_frames"}
    other = tool.digest(2, 2, 2)
    for key in ("addition", "toda"):
        assert first[key]["ops"] == 2 and len(first[key]["sha256"]) == 64
        assert other[key]["sha256"] != first[key]["sha256"]
    assert other["toda_frames"] != first["toda_frames"]
