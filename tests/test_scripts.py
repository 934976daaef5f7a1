"""The shipped scripts run end to end, as a user runs them from the repo root."""
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]

OVERLAYS = (("s2", 8), ("s2", 16), ("s3", 8), ("s3_markov", 8), ("s3_hmm", 8), ("s77", 3))

#: every CSV `make_figure_data.py` writes without --full
FIGURE_FILES = (
    {"tilted_family_s3.csv"}
    | {f"rate_{kind}_{name}.csv" for kind in "gri" for name in ("s2", "s3", "s77")}
    | {f"approx_{name}_n{n}{tail}.csv" for name, n in OVERLAYS for tail in ("", "_overlay")}
)


def run_script(name, *args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *map(str, args)],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=300,
    )


def test_make_figure_data_writes_every_csv(tmp_path):
    outdir = tmp_path / "fig_data"
    done = run_script("make_figure_data.py", "--outdir", outdir)
    assert done.returncode == 0, done.stderr
    assert len(FIGURE_FILES) == 22
    assert {p.name for p in outdir.iterdir()} == FIGURE_FILES
    for path in outdir.iterdir():
        lines = path.read_text().splitlines()
        assert lines[0].startswith("# ") and len(lines) > 2, path.name


def test_ldp_corridor_demo_prints_one_row_per_t():
    done = run_script("ldp_corridor_demo.py", "--n", 6)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0] == "n=6 eps=0.1"
    ts = np.arange(0.1, math.log(3), 0.1)
    rows = [line.split() for line in lines[2:]]
    assert [row[0] for row in rows] == [f"{t:.2f}" for t in ts]
    assert all(len(row) == 4 for row in rows)
    for row in rows:
        [float(cell) for cell in row]  # every cell is a number (or inf)


def test_ldp_corridor_demo_maps_an_input_error_to_exit_2():
    done = run_script("ldp_corridor_demo.py", "--n", 6, "--epsilon", "nan")
    assert done.returncode == 2
    assert done.stderr.splitlines() == ["ldp_corridor_demo: epsilon must be positive and finite"]


def test_ldp_corridor_demo_maps_a_budget_error_to_exit_1():
    done = run_script("ldp_corridor_demo.py", "--n", 30)
    assert done.returncode == 1
    assert done.stderr.splitlines() == [
        "ldp_corridor_demo: 3^30 strings exceed the enumeration budget 16777216"
    ]
