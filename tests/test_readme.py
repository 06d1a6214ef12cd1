"""The README's library quick start runs as written and does what its comments say."""

import re
from fractions import Fraction
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_the_quick_start_runs_as_written():
    blocks = re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"),
                        re.DOTALL | re.MULTILINE)
    assert len(blocks) == 1
    names = {}
    exec(compile(blocks[0], "README.md", "exec"), names)
    report, cert = names["report"], names["cert"]
    assert report.hankel_dets == (1, 1, 1, 1, 1, 1)
    assert all(type(d) is Fraction for d in report.hankel_dets)
    assert report.is_pm is True
    assert cert.verdict.label == "refuted-at-order 1"
    assert cert.verdict.status == "refuted"
    assert names["lancaster_report"](names["problem"]).verdict.label == "positive-to-order 5"
