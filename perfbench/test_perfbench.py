"""Tests of the benchmark itself: every workload end to end at toy size, and
an oracle that counts a corrupted output as a failed job."""
import dataclasses
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402

W = run.import_workloads()


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_smoke_workload_passes_the_oracle(workload, tmp_path):
    tally = run.smoke(W, workload, seed=5, workdir=tmp_path)
    assert tally.problems == []
    assert tally.attempted > 0 and tally.failed_frac == 0.0


def test_criterion_7_failure_is_the_expected_verify_output():
    reference = run.load_reference(W, "full")
    assert reference["verify_quick"]["exit_code"] == "3"


def _swap_two_ranks(out):
    table, pmf, groups = out
    rank_of = table.rank_of.copy()
    rank_of[[0, 1]] = rank_of[[1, 0]]
    return dataclasses.replace(table, rank_of=rank_of), pmf, groups


def _flip_csv_byte(out):
    code, paths = out
    data = bytearray(paths[0].read_bytes())
    data[-2] ^= 1  # a digit of the last data row, below the metadata line
    paths[0].write_bytes(bytes(data))
    return out


def _tally_of(workload, job_name, tmp_path, corrupt=None) -> run.Tally:
    inputs = W.setup(workload, 5, "smoke", tmp_path, run.NullTracer())
    (job,) = [j for j in W.jobs_for(workload, inputs) if j.name == job_name]
    if corrupt is not None:
        clean_run = job.run
        job = dataclasses.replace(job, run=lambda tr, state: corrupt(clean_run(tr, state)))
    tally = run.Tally()
    run.run_pass(W, [job], run.load_reference(W, "smoke"), run.NullTracer(), tally)
    return tally


@pytest.mark.parametrize(
    "workload, job_name, corrupt",
    [
        ("exact_iid", "rank_s2", _swap_two_ranks),
        ("exact_iid", "rank_seeded_k4", _swap_two_ranks),
        ("figure_export", "guesswork_s3", _flip_csv_byte),
        ("figure_export", "guesswork_seeded", _flip_csv_byte),
    ],
)
def test_corrupted_output_raises_failed_frac(workload, job_name, corrupt, tmp_path):
    assert _tally_of(workload, job_name, tmp_path).failed_frac == 0.0
    corrupted = _tally_of(workload, job_name, tmp_path, corrupt)
    assert corrupted.attempted == 1
    assert corrupted.failed_frac == 1.0
