"""The kernel A/B tool (tools/kernel_ab.py), run on the repo against itself."""
import importlib.util
import json
import math
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


@pytest.fixture(scope="module")
def kernel_ab():
    spec = importlib.util.spec_from_file_location("kernel_ab", ROOT / "tools" / "kernel_ab.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_repo_against_itself(kernel_ab, capsys):
    kernel_ab.main([str(SRC), str(SRC), "--dataset", "CX_GSE1730", "--passes", "2"])
    out = json.loads(capsys.readouterr().out)
    assert out["dataset"] == "CX_GSE1730" and out["tasks"] == 14 and out["passes"] == 2
    for side in ("a", "b"):
        assert set(out[side]) == set(kernel_ab.PHASES)
        assert out[side]["mine_s"] > 0
        assert all(v >= 0 for v in out[side].values())
        assert out[side]["bounds_s"] < out[side]["mine_s"]
    assert all(r > 0 for r in out["ratio_b_over_a"].values())
    ratios = out["pass_mine_ratio_b_over_a"]
    assert len(ratios) == 2 and all(r > 0 for r in ratios)
    q1, median, q3 = out["pass_mine_ratio_quartiles"]
    assert min(ratios) <= q1 <= median <= q3 <= max(ratios)
    assert math.isclose(median, sum(ratios) / 2)


def test_different_result_sets_refused(kernel_ab, tmp_path):
    """A side whose run_task loses a result set fails the comparison."""
    sys.path.insert(0, str(tmp_path))
    try:
        sides = [kernel_ab.load_side(SRC, name, tmp_path) for name in ("repro_x", "repro_y")]
    finally:
        sys.path.remove(str(tmp_path))
    tasks = sides[1][2]

    def lossy(*args, **kw):
        out = tasks.run_task(*args, **kw)
        out.results = out.results[1:]
        return out

    sides[1] = sides[1][:2] + (SimpleNamespace(run_task=lossy),)
    with pytest.raises(AssertionError, match="different result sets"):
        kernel_ab._interleave(sides, "CX_GSE1730", 1)
