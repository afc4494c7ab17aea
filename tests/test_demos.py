"""The demo scripts run to the end and print their tables.

Each demo runs in-process with ``runpy``, under the suite's filter that
turns every ``RuntimeWarning`` into an error. ``demos/oracle_check.py`` is
left out: its Fock oracle takes about 5 s on a 2-core machine, and the
oracle itself is covered by ``test_fock.py`` and acceptance criterion 5.
"""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize(
    "name", ["regime_map.py", "cross_correlation_bounds.py", "threshold_statistics.py"]
)
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    assert capsys.readouterr().out.strip()
